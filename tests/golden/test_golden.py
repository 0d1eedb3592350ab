"""Golden corpus: every case in manifest.json run through cli.main in process.

Each manifest entry holds a case name, its argv, the expected exit code and
the expected stderr; the expected output, stdout followed by whatever the
command wrote to its --out file, is expected/<name>.out.  Arguments run
from this directory, so input paths (inputs/...) and the paths a command
echoes are the same on every machine; the argument "{out}" stands for a
fresh temporary file.

Comparison rules:

* exact bytes of output and stderr, and the exit code, for every case but
  the next two;
* `verify --suite sections|lattice|all`: the same exit code and stderr,
  and the same output once each check's detail is dropped, i.e. the same
  check names, verdicts and failure count.  Their details print FFT and
  eigensolver residuals, which move by rounding;
* `map-check`: the same exit code, stderr, parameters, keys and `passed`,
  and each residual on the same side of its bound (MAP_CHECK_BOUNDS).
  The residuals are FFT rounding, so only their verdicts are pinned.

Adding a case (it refuses a name that already has an expected file):

    PYTHONPATH=src python tests/golden/test_golden.py NAME ARG...
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from spinorlab.cli import main

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"
EXPECTED = GOLDEN / "expected"
OUT = "{out}"
VERDICT_ONLY_SUITES = ("sections", "lattice", "all")
# map-check's bound on each residual, as a multiple of its tol or absolute
MAP_CHECK_BOUNDS = {
    "intertwine_plus": ("tol", 1.0),
    "intertwine_minus": ("tol", 1.0),
    "commutation": ("abs", 1e-15),
    "density": ("abs", 1e-15),
    "roundtrip": ("abs", 1e-15),
    "kernel_residual": ("tol", 1.0),
    "mapped_kernel_residual": ("tol", 1.0 + 1e-6),
}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Run one argv in process: (exit code, stdout then the --out file, stderr)."""
    with contextlib.ExitStack() as stack:
        target = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "report"
        stack.enter_context(contextlib.chdir(GOLDEN))
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
    kind, bound = MAP_CHECK_BOUNDS[key]
    return value <= (tol * bound if kind == "tol" else bound)


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
    """The output as compared: all of it, verify's without the details, or map-check's verdicts."""
    if argv[:1] == ["map-check"] and output:
        return _map_check_verdicts(argv, output)
    if argv[:1] != ["verify"] or _option(argv, "--suite", "all") not in VERDICT_ONLY_SUITES:
        return output
    if _option(argv, "--format", "json") == "csv":
        return [row[:2] for row in csv.reader(output.splitlines())]
    document = json.loads(output)
    for check in document["checks"]:
        del check["detail"]
    return document


def _cases() -> list[dict]:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_golden_case(case):
    code, output, stderr = run_case(case["argv"])
    expected = (EXPECTED / f"{case['name']}.out").read_text()
    assert (code, stderr) == (case["exit"], case["stderr"])
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
