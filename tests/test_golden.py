"""Golden command-line outputs.

Every command listed in ``tests/golden/make_golden.py`` is rerun in-process
and each file it writes is compared with the golden copy kept next to the
script. Non-numeric text, integers among it, must match exactly. A number
with a fraction or an exponent may differ from the golden one by ``RTOL``
relative: a few units in the last of the 12 significant digits the writers
print, so a reordering that moves the last bit of a result passes while a
changed constant fails. ``check-rmt`` prints its columns with six decimals,
so its numbers may also move by one unit in the sixth decimal.

``python tests/golden/make_golden.py --check`` compares byte for byte and
names the largest relative change of each file that differs; both use the
one pattern of a number, ``make_golden.NUMBER``.
"""

import importlib.util
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

RTOL = 1e-10


def _mismatch(got, want, atol=0.0):
    """The first difference between two outputs as a message, or None."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    pattern = make_golden.NUMBER
    for number, (line, expected) in enumerate(zip(got_lines, want_lines), start=1):
        numbers, want_numbers = pattern.findall(line), pattern.findall(expected)
        same = pattern.split(line) == pattern.split(expected) and all(
            a == b
            or re.search(r"[.eE]", b) is not None
            and abs(float(a) - float(b)) <= RTOL * abs(float(b)) + atol
            for a, b in zip(numbers, want_numbers)
        )
        if not same:
            return f"line {number}: {line!r}, expected {expected!r}"
    return None


@pytest.mark.parametrize("command", make_golden.COMMANDS, ids=lambda command: command.name)
def test_command_reproduces_its_golden_outputs(command, tmp_path):
    make_golden.run(command, tmp_path)
    atol = 1e-6 if command.argv[0] == "check-rmt" else 0.0
    for name in command.outputs:
        got = (tmp_path / name).read_text()
        problem = _mismatch(got, (GOLDEN / name).read_text(), atol)
        assert problem is None, f"{name}, {problem}"


def test_golden_directory_holds_only_command_outputs_and_inputs():
    """A command taken out of the list cannot leave its file behind."""
    kept = {path.name for path in GOLDEN.iterdir() if path.suffix in (".csv", ".txt")}
    written = {name for command in make_golden.COMMANDS for name in command.outputs}
    assert kept == written | {make_golden.RETURNS, make_golden.EXTERNAL}


def test_check_names_the_largest_relative_change():
    want = "# config-hash: 3e5a01c2d4f6\nperiod,loss\n1,0.25\n2,-4e-03\n"
    assert make_golden.describe_change(want, want) == "largest relative change 0"
    moved = want.replace("0.25", "0.2500001").replace("-4e-03", "-4.2e-03")
    assert make_golden.describe_change(moved, want) == "largest relative change 0.05"
    assert make_golden.describe_change(want.replace(",0.25", ",0"), want) == (
        "largest relative change 1"
    )
    assert make_golden.describe_change(want, want.replace(",0.25", ",0")) == (
        "largest relative change inf"
    )
    assert make_golden.describe_change(want.replace("3e5a", "3e6a"), want) == "text differs"
    assert make_golden.describe_change(want + "3,0.5\n", want) == "text differs"


def test_comparison_tolerates_only_the_last_printed_digits():
    want = "config-hash: 3e5a01c2d4f6\nmean_loss: 0.389052685602\nperiod: 2 of 2001-01-02\n"
    assert _mismatch(want, want) is None
    assert _mismatch(want.replace("685602", "685603"), want) is None
    assert _mismatch(want.replace("685602", "695602"), want) is not None
    assert _mismatch(want.replace("3e5a", "3e6a"), want) is not None
    assert _mismatch(want.replace("2 of", "3 of"), want) is not None
    assert _mismatch(want.replace("01-02", "01-03"), want) is not None
    assert _mismatch(want.replace("mean_loss", "mean-loss"), want) is not None
    assert _mismatch(want + "\n", want) is not None
    assert _mismatch("rel_err 0.000368\n", "rel_err 0.000367\n", atol=1e-6) is None
    assert _mismatch("rel_err 0.000369\n", "rel_err 0.000367\n", atol=1e-6) is not None
