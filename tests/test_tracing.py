"""Smoke test for the benchmark's in-process tracer (clibench/tracing.py).

The tracer binds names of the program by attribute: every public function
of each layer and ModeSpec.__init__.  Building it here and tracing one
verify call makes a deleted or renamed binding fail in the test suite.
"""

from pathlib import Path

from spinorlab.cli import main

CLIBENCH = Path(__file__).resolve().parent.parent / "clibench"


def test_tracer_records_verify_and_restores_bindings(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(CLIBENCH))
    import tracing

    tracer = tracing.build_tracer()
    tracer.install()
    try:
        code = main(["verify", "--suite", "dispersion"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.calls["verification.run_suite"] == 1
    assert tracer.calls["dispersion.ModeSpec"] > 0
    for owner, attr, original, _ in tracer.bindings:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} still traced"
