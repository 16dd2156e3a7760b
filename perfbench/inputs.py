"""Deterministic returns file for the ``backtest-file`` workload.

The file holds ``ASSETS`` x ``DAYS`` simple daily returns drawn from the
package's own population model (``build_population`` / ``generate``,
scenario ``t5``) and scaled to daily-return size, so a window of 250 days
is a realistic estimation sample and no backtest is ruined. The same seed
always gives the same bytes.

Files are cached under the work directory, named by the generation
parameters; each file's SHA-256 is stored next to it and checked before
the file is reused, so a truncated or edited file is regenerated.

Run as a script (``python3 perfbench/inputs.py SEED OUT_DIR``) it prints
one JSON line with the file's path, size and hash. The benchmark runs it in
its own interpreter before the set-up and timed phases.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

ASSETS = 25
DAYS = 10_000
#: daily returns are the population draws times this factor
SCALE = 0.01
FIRST_DATE = datetime.date(2000, 1, 3)
FORMAT_VERSION = 1
#: cached files kept, newest first
KEEP = 4


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_returns(path, seed):
    import gmvshrink.cli  # noqa: F401  (pins BLAS threads before numpy loads)
    import numpy as np
    from gmvshrink.sim import build_population, generate

    pop_seed, data_seed = np.random.SeedSequence(seed).spawn(2)
    pop = build_population(ASSETS, pop_seed)
    returns = SCALE * generate(pop, "t5", DAYS, np.random.default_rng(data_seed))
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", newline="") as handle:
        handle.write("date," + ",".join(f"A{i:03d}" for i in range(ASSETS)) + "\n")
        for day, row in enumerate(returns.T.tolist()):
            date = (FIRST_DATE + datetime.timedelta(days=day)).isoformat()
            handle.write(date + "," + ",".join(["%.8f" % v for v in row]) + "\n")
    os.replace(tmp, path)


def _evict(cache_dir, keep):
    files = sorted(cache_dir.glob("returns-*.csv"), key=lambda f: f.stat().st_mtime, reverse=True)
    for old in files[keep:]:
        old.unlink()
        old.with_suffix(".sha256").unlink(missing_ok=True)


def returns_file(seed, cache_dir):
    """Describe the returns file for ``seed``, building it if needed."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"returns-v{FORMAT_VERSION}-p{ASSETS}-d{DAYS}-s{seed}.csv"
    digest_path = path.with_suffix(".sha256")
    digest = _sha256(path) if path.exists() and digest_path.exists() else None
    cached = digest is not None and digest == digest_path.read_text().strip()
    if not cached:
        _write_returns(path, seed)
        digest = _sha256(path)
        digest_path.write_text(digest + "\n")
    os.utime(path)
    _evict(cache_dir, KEEP)
    return {
        "path": str(path),
        "bytes": path.stat().st_size,
        "sha256": digest,
        "cached": cached,
        "days": DAYS,
        "assets": [f"A{i:03d}" for i in range(ASSETS)],
    }


if __name__ == "__main__":
    print(json.dumps(returns_file(int(sys.argv[1]), sys.argv[2])))
