"""Outside-in tracer for the gmvshrink package.

Times the public functions of every loaded ``gmvshrink`` module without
editing program source. :meth:`Tracer.install` rebinds each public
function, in every ``gmvshrink`` module that holds a reference to it, to a
timing wrapper; :meth:`Tracer.uninstall` puts every original back.

Besides module-level functions it wraps the ``PooledStats`` methods and
``scipy.linalg.cho_factor`` as seen by ``gmvshrink.core`` (through a proxy
for the ``linalg`` module it imported), recorded as ``core.cholesky`` with
a content hash of every input matrix so repeated factorizations of the
same matrix show up as ``calls`` above ``distinct``.

Every span records its total time and its self time, which is the total
minus the time covered by wrapped callees. Hashing time is excluded from
the caller's self time and reported on its own as ``hash_s``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
import types

PACKAGE = "gmvshrink"

#: class methods traced besides module-level functions, by module
METHODS = {"core": {"PooledStats": ("updated", "mean", "cov")}}

CHOLESKY = "core.cholesky"


class _ModuleProxy(types.ModuleType):
    """A module stand-in that overrides some attributes of ``target``."""

    def __init__(self, target, **overrides):
        super().__init__(target.__name__, target.__doc__)
        self.__dict__.update(overrides)
        self.__dict__["_proxy_target"] = target

    def __getattr__(self, name):
        return getattr(self.__dict__["_proxy_target"], name)


class Stat:
    """Accumulated counters of one traced function."""

    __slots__ = ("calls", "total_s", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0

    def as_dict(self):
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "errors": self.errors,
        }


class Tracer:
    """Span accounting plus install/uninstall of the wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.hash_s = 0.0
        self.cholesky_distinct = 0
        self._stack = []  # per open span: time covered by its children
        self._digests = set()
        self._bindings = []  # (owner, attribute, original)

    # -- span accounting ---------------------------------------------------

    def _stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def _close(self, stat, start, raised):
        elapsed = self.clock() - start
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        stat.total_s += elapsed
        stat.self_s += elapsed - children
        if raised:
            stat.errors += 1

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so each call is a span named ``name``.

        A generator function's span is one per resumption; its call count
        is the number of generators created.
        """
        stat = self._stat(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(stat, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            self._stack.append(0.0)
            start = self.clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self._close(stat, start, raised)

        return wrapper

    def _wrap_generator(self, stat, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self._stack.append(0.0)
                    start = self.clock()
                    raised = True
                    try:
                        item = next(gen)
                        raised = False
                    except StopIteration:
                        raised = False
                        return
                    finally:
                        self._close(stat, start, raised)
                    yield item
            finally:
                gen.close()

        return wrapper

    def _hashing(self, timed):
        """Wrap a timed ``cho_factor`` so its input matrix is content-hashed."""

        @functools.wraps(timed)
        def cho_factor(a, *args, **kwargs):
            start = self.clock()
            data = a if a.flags.c_contiguous else a.tobytes()
            key = (a.shape, hashlib.blake2b(data, digest_size=16).digest())
            if key not in self._digests:
                self._digests.add(key)
                self.cholesky_distinct += 1
            elapsed = self.clock() - start
            self.hash_s += elapsed
            if self._stack:
                self._stack[-1] += elapsed
            return timed(a, *args, **kwargs)

        return cho_factor

    def new_scope(self):
        """Start counting distinct Cholesky inputs afresh (one per command)."""
        self._digests.clear()

    # -- install / uninstall ---------------------------------------------

    def _bind(self, owner, attribute, value):
        self._bindings.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        """Rebind every public gmvshrink function in every module holding it."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}  # id(original) -> (original, wrapper)
        for module in modules:
            short = module.__name__[len(PACKAGE) + 1:]
            for attribute, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attribute.startswith("_")
                ):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{value.__name__}", value))
        for module in modules:
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bind(module, attribute, entry[1])

        for module_name, classes in METHODS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            if module is None:
                continue
            for class_name, methods in classes.items():
                cls = getattr(module, class_name)
                for method in methods:
                    name = f"{module_name}.{class_name}.{method}"
                    self._bind(cls, method, self.wrap(name, vars(cls)[method]))

        core = sys.modules.get(f"{PACKAGE}.core")
        if core is not None:
            timed = self.wrap(CHOLESKY, core.linalg.cho_factor)
            proxy = _ModuleProxy(core.linalg, cho_factor=self._hashing(timed))
            self._bind(core, "linalg", proxy)

    def uninstall(self):
        """Restore every binding made by :meth:`install`, newest first."""
        while self._bindings:
            owner, attribute, original = self._bindings.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def report(self):
        """Counters of every traced function that ran, by span name."""
        return {name: stat.as_dict() for name, stat in sorted(self.stats.items()) if stat.calls}
