"""Golden corpus: every case in manifest.json run through cli.main in process.

Each manifest entry holds a case name, its argv, the expected exit code and
the expected stderr; the expected output, stdout followed by whatever the
command wrote to its --out file, is expected/<name>.out.  Arguments run
from this directory, so input paths (inputs/...) and the paths a command
echoes are the same on every machine; the argument "{out}" stands for a
fresh temporary file.

Comparison rules:

* exact bytes of output and stderr, and the exit code, for every case but
  the next three;
* `verify --suite sections|lattice|all`: the same exit code and stderr,
  and the same output once each check's value and margin are dropped,
  i.e. the same check names, bounds, verdicts and failure count.  Their
  values are FFT and eigensolver residuals, which move by rounding;
* `map-check`: the same exit code, stderr, parameters, keys and `passed`,
  and each residual on the same side of its bound (`sections._BOUNDS`).
  The residuals are FFT rounding, so only their verdicts are pinned;
* `ring-spectrum`: the same exit code, stderr, parameters, n,
  multiplicity and row order, and each e_n and energy within RING_RTOL *
  (pi*N + |twist|)/L of the expected value (CSV: plus one unit in its 12th
  significant digit).  The levels are eigensolver rounding below that.

Adding a case (it refuses a name that already has an expected file):

    PYTHONPATH=src python tests/golden/test_golden.py NAME ARG...
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from spinorlab.cli import main
from spinorlab.sections import _BOUNDS

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"
EXPECTED = GOLDEN / "expected"
OUT = "{out}"
VERDICT_ONLY_SUITES = ("sections", "lattice", "all")
# ring-spectrum's e_n and energy may move by this much of the top level
RING_RTOL = 2e-14
RING_VALUES = ("e_n", "energy")


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Run one argv in process: (exit code, stdout then the --out file, stderr)."""
    with contextlib.ExitStack() as stack:
        target = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "report"
        stack.callback(os.chdir, os.getcwd())
        os.chdir(GOLDEN)
        # argparse wraps its usage lines at the terminal width
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        out = stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        code = main([str(target) if arg == OUT else arg for arg in argv])
        written = target.read_text() if target.exists() else ""
    return code, out.getvalue() + written, err.getvalue()


def _option(argv: list[str], flag: str, default: str) -> str:
    return dict(zip(argv, argv[1:])).get(flag, default)


def _within(key: str, value: float, tol: float) -> bool:
    multiple, fixed = _BOUNDS[key]
    return value <= multiple * tol + fixed


def _map_check_verdicts(argv: list[str], output: str):
    """map-check output with each residual replaced by value <= bound."""
    if _option(argv, "--format", "json") == "json":
        document = json.loads(output)
        tol = document["parameters"]["tol"]
        residuals = document["residuals"]
        for key in residuals:
            residuals[key] = _within(key, residuals[key], tol)
        for key in ("kernel_residual", "mapped_kernel_residual"):
            document[key] = _within(key, document[key], tol)
        return document
    comments = [line for line in output.splitlines() if line.startswith("#")]
    tol = float(dict(line[2:].split(" = ") for line in comments)["tol"])
    header, row = csv.reader(output.splitlines()[len(comments):])
    cells = dict(zip(header, row))
    residuals = json.loads(cells["residuals"])
    cells["residuals"] = {key: _within(key, value, tol) for key, value in residuals.items()}
    for key in ("kernel_residual", "mapped_kernel_residual"):
        cells[key] = _within(key, float(cells[key]), tol)
    return comments, header, cells


def _comparable(argv: list[str], output: str):
    """The output as compared: all of it, or for verify and map-check what rounding cannot move."""
    if argv[:1] == ["map-check"] and output:
        return _map_check_verdicts(argv, output)
    if argv[:1] != ["verify"] or _option(argv, "--suite", "all") not in VERDICT_ONLY_SUITES:
        return output
    if _option(argv, "--format", "json") == "csv":
        # the table's columns are name, value, bound, margin, passed
        return [row[:1] + row[2:3] + row[4:] for row in csv.reader(output.splitlines())]
    document = json.loads(output)
    for check in document["checks"]:
        del check["value"], check["margin"]
    return document


def _ring_spectrum_parts(output: str):
    """A ring-spectrum output as (the part pinned exactly, [(value, its print's rounding unit)]).

    The values are each row's e_n and energy.  A CSV value's unit is one in
    its 12th significant digit; a JSON value prints in full (unit 0).
    """
    pinned, values = [], []
    if output.startswith("{"):
        document = json.loads(output)
        values += [(row.pop(key), 0.0) for row in document["rows"] for key in RING_VALUES]
        pinned.append(document)
    elif output:
        lines = output.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        header, *rows = csv.reader(lines[len(comments) :])
        columns = [header.index(key) for key in RING_VALUES]
        for row in rows:
            printed = [float(row[column]) for column in columns]
            values += [(value, _twelfth_digit(value)) for value in printed]
        kept = [[cell for column, cell in enumerate(row) if column not in columns] for row in rows]
        pinned.append((comments, header, kept))
    return pinned, values


def _twelfth_digit(value: float) -> float:
    """One unit in the 12th significant digit of value, as %.12g prints it."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0


def _ring_bound(argv: list[str]) -> float:
    """RING_RTOL * (pi*N + |twist|)/L for the ring that argv asks for."""
    exotic = _option(argv, "--structure", "standard") == "exotic"
    twist = math.pi if exotic else float(_option(argv, "--twist", "0"))
    sites, length = float(_option(argv, "--sites", "")), float(_option(argv, "--length", ""))
    return RING_RTOL * (math.pi * sites + abs(twist)) / length


def _assert_ring_spectrum_close(argv, output, expected) -> None:
    pinned, values = _ring_spectrum_parts(output)
    expected_pinned, expected_values = _ring_spectrum_parts(expected)
    assert pinned == expected_pinned
    bound = _ring_bound(argv) if expected_values else 0.0
    for (value, _), (reference, unit) in zip(values, expected_values, strict=True):
        assert abs(value - reference) <= bound + unit, (value, reference, bound + unit)


def _cases() -> list[dict]:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_golden_case(case):
    code, output, stderr = run_case(case["argv"])
    expected = (EXPECTED / f"{case['name']}.out").read_text()
    assert (code, stderr) == (case["exit"], case["stderr"])
    if case["argv"][:1] == ["ring-spectrum"]:
        _assert_ring_spectrum_close(case["argv"], output, expected)
    else:
        assert _comparable(case["argv"], output) == _comparable(case["argv"], expected)


def test_manifest_names_are_unique_and_complete():
    names = [case["name"] for case in _cases()]
    assert len(set(names)) == len(names)
    assert sorted(path.stem for path in EXPECTED.glob("*.out")) == sorted(names)


def capture(name: str, argv: list[str]) -> None:
    """Append one case to the manifest and write its expected output."""
    cases = _cases()
    path = EXPECTED / f"{name}.out"
    if path.exists() or any(case["name"] == name for case in cases):
        raise SystemExit(f"refusing to overwrite the expected output of {name!r}")
    code, output, stderr = run_case(argv)
    EXPECTED.mkdir(exist_ok=True)
    path.write_text(output)
    cases.append({"name": name, "argv": argv, "exit": code, "stderr": stderr})
    MANIFEST.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")
    print(f"{name}: exit {code}, {len(output)} bytes")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    capture(sys.argv[1], sys.argv[2:])
