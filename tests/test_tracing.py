"""Smoke test for the benchmark's in-process tracer (clibench/tracing.py).

The tracer binds names of the program by attribute: every public function
of each layer and ModeSpec.__init__.  Building it here and tracing one
verify call makes a deleted or renamed binding fail in the test suite.
Some per-layer metrics read the totals under a function's name, where a
renamed function reads 0 without an error; tracing one map-check call
and one ring-spectrum call pins the names the sections and lattice
metrics read.
"""

from pathlib import Path

from spinorlab.cli import main

CLIBENCH = Path(__file__).resolve().parent.parent / "clibench"


def _traced(monkeypatch, argv):
    """Run argv through cli.main under a fresh tracer: (tracing module, tracer, exit code)."""
    monkeypatch.syspath_prepend(str(CLIBENCH))
    import tracing

    tracer = tracing.build_tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    return tracing, tracer, code


def test_tracer_records_verify_and_restores_bindings(monkeypatch, capsys):
    _, tracer, code = _traced(monkeypatch, ["verify", "--suite", "dispersion"])
    capsys.readouterr()
    assert code == 0
    assert tracer.calls["verification.run_suite"] == 1
    assert tracer.calls["dispersion.branch_energies"] > 0
    for owner, attr, original, _ in tracer.bindings:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} still traced"


def test_tracer_sees_the_sections_functions_its_metrics_read(monkeypatch, capsys):
    tracing, tracer, code = _traced(monkeypatch, ["map-check", "--sites", "16", "--sections", "1"])
    capsys.readouterr()
    assert code == 0
    names = [f"sections.{name}" for name in tracing.RESIDUALS]
    for name in names + ["sections.random_band_limited_section"]:
        assert tracer.calls[name] > 0, f"{name} never called"


def test_tracer_sees_the_lattice_functions_its_metrics_read(monkeypatch, capsys):
    _, tracer, code = _traced(monkeypatch, ["ring-spectrum", "--sites", "16", "--length", "1"])
    capsys.readouterr()
    assert code == 0
    for name in ("lattice.ring_spectrum", "lattice.eigvalsh"):
        assert tracer.calls[name] > 0, f"{name} never called"
