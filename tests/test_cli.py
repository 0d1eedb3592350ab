import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import cli, lattice
from spinorlab.cli import main
from spinorlab.magma import BUILTIN_NAMES
from spinorlab.dispersion import Structure, branch_energies
from spinorlab.sections import (
    SampledSection,
    map_checks,
    random_band_limited_section,
    section_to_json,
)
from spinorlab.verification import SUITES, run_suite
from spinorlab.winding import build_theta

TWO_PI = 2.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DISPERSION_ARGS = ("dispersion", "--m", "1", "--p", "0,0,0.5", "--k", "0,0,0.01")


def test_dispersion_csv(capsys):
    code, out, err = run(capsys, *DISPERSION_ARGS)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    assert "# m = 1" in comments
    assert "# p = 0,0,0.5" in comments
    header = next(line for line in lines if not line.startswith("#"))
    assert header == "branch,e_semiclassical,e_exact"
    assert "exotic_plus,1.2475,1.11359777299" in out
    assert "exotic_minus,1.2525,1.12254175869" in out


def test_dispersion_json_values_round_trip(capsys):
    code, out, _ = run(capsys, *DISPERSION_ARGS, "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert list(document) == ["command", "parameters", "branches", "gaps"]
    assert document["branches"]["exotic_plus"]["semiclassical"] == 1.2475
    assert document["branches"]["exotic_minus"]["semiclassical"] == 1.2525
    assert document["gaps"]["semiclassical"] == 0.005
    # sqrt(1.2601) - sqrt(1.2401) correctly rounded (50-digit decimal
    # reference); subtracting the two float roots gave 0.008943985702456914
    assert document["gaps"]["exact"] == 0.0089439857024569


def test_identical_invocations_identical_bytes(capsys):
    _, first, _ = run(capsys, *DISPERSION_ARGS, "--format", "json")
    _, second, _ = run(capsys, *DISPERSION_ARGS, "--format", "json")
    assert first == second


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, *DISPERSION_ARGS, "--out", str(target))
    assert code == 0
    assert out == ""
    assert "exotic_plus,1.2475" in target.read_text()


MAP_CHECK_ARGS = ("map-check", "--sites", "16", "--sections", "1")
ALL_STAGES = ["parse", "compute", "render", "write"]


def test_timing_goes_to_stderr_only(capsys):
    cases = [
        (DISPERSION_ARGS, 0, ALL_STAGES),
        # map-check fails its identities away from scale 1
        ((*MAP_CHECK_ARGS, "--scale", "0.5"), 1, ALL_STAGES),
        # refused in compute: the spans closed before it follow the error line
        ((*MAP_CHECK_ARGS, "--m", "1e200"), 3, ["parse"]),
    ]
    for (argv, exit_code, stages), fmt in itertools.product(cases, ("csv", "json")):
        _, plain, plain_err = run(capsys, *argv, "--format", fmt)
        code, out, err = run(capsys, *argv, "--format", fmt, "--timing")
        assert code == exit_code
        assert out == plain
        lines = err.splitlines()
        assert lines[: len(lines) - len(stages)] == plain_err.splitlines()
        spans = [json.loads(line) for line in lines[len(lines) - len(stages) :]]
        assert [span["stage"] for span in spans] == stages
        # the stages follow one another from the start of the invocation
        assert spans[0]["start_s"] == 0.0
        for span, following in zip(spans, spans[1:]):
            assert span["duration_s"] >= 0.0
            assert following["start_s"] == pytest.approx(
                span["start_s"] + span["duration_s"], abs=2e-6
            )


def test_unwritable_destination_is_domain_exit(capsys, tmp_path):
    code, _, err = run(
        capsys, *DISPERSION_ARGS, "--out", str(tmp_path / "missing" / "deep.csv")
    )
    assert code == 3
    assert "error:" in err


def test_sweep_row_count_and_gap_columns(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--m", "1",
        "--k", "0,0,0.01",
        "--p3-min", "-1",
        "--p3-max", "1",
        "--count", "5",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    header, data = lines[0], lines[1:]
    assert header.startswith("p3,e_plus_semiclassical")
    assert len(data) == 5
    first = data[0].split(",")
    assert float(first[0]) == -1.0
    # gap column equals the alignment s*(k.p) at each row
    assert float(first[5]) == pytest.approx(-0.01, abs=1e-15)


SWEEP_HEADER = (
    "p3",
    "e_plus_semiclassical",
    "e_minus_semiclassical",
    "e_plus_exact",
    "e_minus_exact",
    "gap_semiclassical",
    "gap_exact",
)


def test_sweep_rows_are_the_scalar_functions(capsys):
    code, out, _ = run(
        capsys, "sweep", "--m", "0.8", "--k", "0.01,-0.02,0.05", "--p-transverse", "0.3,-0.1",
        "--p3-min=-2", "--p3-max", "3", "--count", "41", "--scale", "0.7", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 41
    for row in rows:
        assert tuple(row) == SWEEP_HEADER
        one = branch_energies(0.8, [[0.3, -0.1, row["p3"]]], [0.01, -0.02, 0.05], 0.7)
        expected = (
            row["p3"],
            one.semiclassical_plus[0],
            one.semiclassical_minus[0],
            one.exact_plus[0],
            one.exact_minus[0],
            one.signed_shift[0],
            one.gap_exact[0],
        )
        assert tuple(row.values()) == expected


def test_sweep_exact_gap_keeps_the_sign_at_tiny_gradient(capsys):
    code, out, _ = run(
        capsys, "sweep", "--m", "1", "--k", "0,0,1e-17", "--p3-min=-1", "--p3-max", "1",
        "--count", "5", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    signs = [math.copysign(1.0, r["gap_exact"]) if r["gap_exact"] else 0.0 for r in rows]
    assert signs == [-1.0, -1.0, 0.0, 1.0, 1.0]
    assert [math.copysign(1.0, r["gap_semiclassical"]) for r in rows[3:]] == [1.0, 1.0]


@pytest.mark.parametrize(
    "argv",
    [
        ("dispersion", "--m", "1", "--p", "0,0,1e200", "--k", "0,0,0.01", "--format", "json"),
        ("dispersion", "--m", "1", "--p", "0,0,1e200", "--k", "0,0,0.01"),
        ("sweep", "--m", "1", "--k", "0,0,0.1", "--p3-min", "0", "--p3-max", "1e200",
         "--count", "2"),
        ("sweep", "--m", "1", "--k", "0,0,0.1", "--p3-min", "0", "--p3-max", "1e200",
         "--count", "2", "--format", "json"),
        # no --tol: the default degeneracy tol is what overflows
        ("preference", "--p", "0,0,1e200", "--k", "0,0,1e200"),
        ("preference", "--p", "0,0,1e200", "--k", "0,0,1e200", "--format", "csv"),
    ],
)
def test_overflow_exits_3_without_output_or_warnings(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: m^2 + |p|^2 overflows float64 at p = (0.0, 0.0, 1e+200)\n"


def test_chain_default_tol_overflow_exits_3_without_warnings(capsys, tmp_path):
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{"operand": "(a,b)"}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "algebra", "chain", "--initial", "(a,b)", "--events", str(events),
            "--p", "0,0,1e200", "--k", "0,0,1e200",
        )
    assert code == 3
    assert out == ""
    assert err == "error: m^2 + |p|^2 overflows float64 at p = (0.0, 0.0, 1e+200)\n"


@pytest.mark.parametrize(
    "low, high, message",
    [
        ("0", "inf", "momentum must be finite"),
        ("-inf", "0", "momentum must be finite"),
        ("nan", "1", "momentum must be finite"),
        ("-1e308", "1e308", "--p3-max - --p3-min overflows float64"),
    ],
)
def test_sweep_rejects_an_unbounded_range_without_warnings(capsys, low, high, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "sweep", "--m", "1", "--k", "0,0,0.1", f"--p3-min={low}",
            f"--p3-max={high}", "--count", "3",
        )
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_sweep_refuses_a_count_over_its_cap(capsys, monkeypatch):
    # the cap lowered, so that no test allocates at the real one
    monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 4)
    argv = ("sweep", "--m", "1", "--k", "0,0,0.1", "--p3-min", "0", "--p3-max", "1")
    code, out, _ = run(capsys, *argv, "--count", "4")
    assert code == 0 and len(out.splitlines()) == 12
    code, out, err = run(capsys, *argv, "--count", "5")
    assert (code, out, err) == (3, "", "error: --count 5 is over the limit 4\n")


def test_map_check_refuses_sites_times_sections_over_its_cap(capsys, monkeypatch):
    # the cap lowered: 16 sites x (3 + 1) sections is at it, one more section is over
    monkeypatch.setattr(cli, "MAX_MAP_CHECK_SAMPLES", 64)
    code, _, _ = run(capsys, "map-check", "--sites", "16", "--sections", "3")
    assert code == 0
    code, out, err = run(capsys, "map-check", "--sites", "16", "--sections", "4")
    message = "error: --sites x (--sections + 1) = 80 is over the limit 64\n"
    assert (code, out, err) == (3, "", message)


def test_table_file_refuses_a_carrier_over_its_cap(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "MAX_TABLE_SIZE", 2)
    path = tmp_path / "table.json"
    for n, code_expected in ((2, 0), (3, 3)):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        path.write_text(json.dumps({"carrier": [f"g{i}" for i in range(n)], "table": table}))
        for argv in (("analyze",), ("compose", "g0", "g1")):
            head, *tail = argv
            code, out, err = run(capsys, "algebra", head, "--table-file", str(path), *tail)
            assert code == code_expected
    assert (out, err) == ("", "error: --table-file carrier of 3 labels is over the limit 2\n")


@pytest.mark.parametrize("count", ["0", "2"])
@pytest.mark.parametrize("transverse", ["nan,0", "0,inf", "-inf,nan"])
def test_sweep_rejects_a_non_finite_transverse_momentum_at_any_count(capsys, count, transverse):
    # refused before any row is built, so also when there are no rows
    code, out, err = run(
        capsys, "sweep", "--m", "1", "--k", "0,0,0.1", "--p3-min", "0", "--p3-max", "1",
        "--count", count, f"--p-transverse={transverse}",
    )
    assert (code, out, err) == (3, "", "error: momentum must be finite\n")


def test_preference_overflow_exits_3(capsys):
    code, out, err = run(
        capsys, "preference", "--p", "0,0,1e200", "--k", "0,0,1e200", "--tol", "1"
    )
    assert code == 3
    assert out == ""
    assert err == "error: s*(k.p) overflows float64 at p = (0.0, 0.0, 1e+200)\n"


@pytest.mark.parametrize(
    "low, high", [("-1", "1"), ("0", "1"), ("-1", "0")]
)
def test_sweep_rejects_the_pole_at_any_row(capsys, low, high):
    code, out, err = run(
        capsys, "sweep", "--m", "0", "--k", "0,0,0.1", f"--p3-min={low}", "--p3-max", high,
        "--count", "3",
    )
    assert code == 3
    assert out == ""
    assert err == "error: semiclassical correction undefined at m = 0, p = 0\n"


def test_preference_json(capsys):
    code, out, _ = run(capsys, "preference", "--p", "0,0,0.5", "--k", "0,0,0.01")
    assert code == 0
    document = json.loads(out)
    assert document["preference"] == "prefer_plus"
    assert document["table"] == "prefer_standard"
    assert document["signed_shift"] == 0.005
    code, out, _ = run(capsys, "preference", "--p", "0,0,0.5", "--k", "0,0,-0.01")
    assert json.loads(out)["preference"] == "prefer_minus"
    code, out, _ = run(capsys, "preference", "--p", "0,0,0.5", "--k", "0,0,0")
    assert json.loads(out)["table"] == "z2"


def test_ring_spectrum_exotic_levels(capsys):
    code, out, _ = run(
        capsys,
        "ring-spectrum",
        "--sites", "8",
        "--length", str(TWO_PI),
        "--structure", "exotic",
        "--count", "4",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert lines[0] == "n,e_n,energy,multiplicity"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    # massless exotic ring: lowest energy 0.5, twofold
    assert {row[1] for row in rows[:2]} == {"-0.5", "0.5"}
    assert all(row[2] == "0.5" for row in rows[:2])
    assert all(row[3] == "2" for row in rows[:2])
    assert sorted(int(row[0]) for row in rows[:2]) == [-1, 0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count, rows", [("100", 4), ("3", 3)])
def test_ring_spectrum_echoes_the_rows_it_prints(capsys, fmt, count, rows):
    code, out, _ = run(
        capsys, "ring-spectrum", "--sites", "4", "--length", "1", "--count", count,
        "--format", fmt,
    )
    assert code == 0
    if fmt == "json":
        document = json.loads(out)
        assert (document["parameters"]["count"], len(document["rows"])) == (rows, rows)
    else:
        lines = out.splitlines()
        assert f"# count = {rows}" in lines
        assert len(lines) == 5 + 1 + rows  # five parameters, the header, the rows


def test_ring_spectrum_rejects_twist_and_structure_together(capsys):
    code, _, err = run(
        capsys,
        "ring-spectrum",
        "--sites", "8",
        "--length", "6.28",
        "--twist", "0",
        "--structure", "exotic",
    )
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("structure", ["standard", "exotic"])
def test_ring_spectrum_keeps_degenerate_pairs_at_large_momenta(capsys, structure):
    # |e_n| reaches 2*pi*512 here, where eigvalsh rounding exceeds 1e-12
    code, out, _ = run(
        capsys,
        "ring-spectrum",
        "--sites", "1024",
        "--length", "1",
        "--structure", structure,
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1024
    shift = 0 if structure == "standard" else 1
    for row in rows:
        # |2*pi*n + twist| is shared by n and -n - twist/pi when that is a mode
        partner = -row["n"] - shift
        expected = 2 if partner != row["n"] and -512 <= partner < 512 else 1
        assert row["multiplicity"] == expected
    # each level's rows are adjacent, share one energy and ascend in n
    start = 0
    while start < len(rows):
        level = rows[start : start + rows[start]["multiplicity"]]
        modes = [row["n"] for row in level]
        assert modes == sorted(set(modes))
        assert len(level) == 1 or sum(modes) == -shift
        energies = [row["energy"] for row in level]
        assert max(energies) - min(energies) <= 1e-12 * 2.0 * math.pi * 512
        start += len(level)


def test_ring_spectrum_refuses_an_oversized_ring(capsys):
    code, out, err = run(capsys, "ring-spectrum", "--sites", "4098", "--length", "1")
    assert code == 3
    assert out == ""
    assert "over the limit 4096" in err


@pytest.mark.parametrize(
    "sites, length, mass", [("8", "1e13", "0"), ("16", "1e9", "0.001")]
)
def test_ring_spectrum_pairs_levels_on_the_scale_of_tiny_energies(capsys, sites, length, mass):
    # every energy here is far below 1, where a window of 1e-12 would merge them all
    code, out, _ = run(
        capsys,
        "ring-spectrum",
        "--sites", sites,
        "--length", length,
        "--m", mass,
        "--structure", "exotic",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    modes = [row["n"] for row in rows]
    assert sorted(modes) == list(range(-int(sites) // 2, int(sites) // 2))
    # the exotic ring pairs n with -n - 1 at every level
    assert all(row["multiplicity"] == 2 for row in rows)
    # and the levels ascend: each pair lies wholly below the next
    levels = [(rows[i]["energy"], rows[i + 1]["energy"]) for i in range(0, len(rows), 2)]
    assert all(max(low) < min(high) for low, high in zip(levels, levels[1:]))


def test_ring_spectrum_rejects_a_negative_count_before_the_eigensolve(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ring_modes called")

    monkeypatch.setattr(cli, "ring_modes", refuse)
    code, out, err = run(
        capsys, "ring-spectrum", "--sites", "2048", "--length", "1", "--count", "-1"
    )
    assert code == 3
    assert out == ""
    assert "--count must be non-negative" in err


def test_ring_spectrum_rejects_an_overflowing_energy_before_the_eigensolve(capsys, monkeypatch):
    # the message names the inputs only, so it reads the same under any
    # BLAS thread count
    def refuse(*args, **kwargs):
        raise AssertionError("ring_spectrum called")

    monkeypatch.setattr(lattice, "ring_spectrum", refuse)
    argv = ("--sites", "4096", "--length", "1", "--twist", "8e307", "--m", "1.7e308")
    code, out, err = run(capsys, "ring-spectrum", *argv)
    assert code == 3
    assert out == ""
    assert err == (
        "error: Dirac energy sqrt(m^2 + e_n^2) overflows float64 at m = 1.7e+308, "
        "N = 4096, L = 1.0, twist = 8e+307\n"
    )


@pytest.mark.parametrize("winding", ["4", "-4"])
def test_map_check_refuses_an_aliased_winding(capsys, winding):
    code, out, err = run(capsys, "map-check", "--sites", "8", "--winding", winding)
    assert code == 3
    assert out == ""
    assert "sites/2 = 4" in err


def test_map_check_resolves_the_largest_winding(capsys):
    code, out, _ = run(capsys, "map-check", "--sites", "8", "--winding", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_map_check_passes_and_fails_by_scale(capsys):
    code, out, _ = run(
        capsys, "map-check", "--sites", "32", "--sections", "3", "--seed", "5"
    )
    assert code == 0
    document = json.loads(out)
    assert document["passed"] is True
    assert document["residuals"]["intertwine_plus"] <= 1e-10
    assert document["residuals"]["density"] <= 1e-15
    # halving the multiplier breaks the operator identity: verification fails
    code, out, _ = run(
        capsys,
        "map-check",
        "--sites", "32",
        "--sections", "1",
        "--scale", "0.5",
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize(
    "sites, length, winding, scale, tol, seed",
    [
        (32, TWO_PI, 1, 1.0, 1e-10, 5),
        (32, TWO_PI, -2, 0.5, 1e-10, 7),
        (64, TWO_PI, 2, 1.0, 1e-15, 3),
        (256, 1.0, 2, 1.0, 1e-10, 4),  # fails on commutation rounding alone
        (256, 1.0, 2, 1.0, 1e-10, 2),
    ],
)
def test_map_check_exit_code_is_the_shared_bound_list(
    capsys, sites, length, winding, scale, tol, seed
):
    draws = 4
    code, out, _ = run(
        capsys,
        "map-check",
        f"--sites={sites}",
        f"--length={length!r}",
        f"--winding={winding}",
        f"--scale={scale!r}",
        f"--tol={tol!r}",
        f"--sections={draws}",
        f"--seed={seed}",
    )
    rng = np.random.default_rng(seed)
    drawn = [random_band_limited_section(sites, length, rng) for _ in range(draws)]
    checks = map_checks(drawn, build_theta(sites, length, winding), 1.0, scale, 1, tol)
    passed = all(value <= bound for _, value, bound in checks)
    assert code == (0 if passed else 1)
    document = json.loads(out)
    assert document["passed"] is passed
    printed = {**document["residuals"]}
    printed["kernel_residual"] = document["kernel_residual"]
    printed["mapped_kernel_residual"] = document["mapped_kernel_residual"]
    assert printed == {key: value for key, value, _ in checks}
    assert document["parameters"]["tol"] == tol


def test_map_check_reads_section_file(capsys, tmp_path):
    section = random_band_limited_section(32, TWO_PI, np.random.default_rng(3))
    path = tmp_path / "section.json"
    path.write_text(section_to_json(section))
    code, out, _ = run(
        capsys,
        "map-check",
        "--sites", "32",
        "--sections", "0",
        "--section-file", str(path),
    )
    assert code == 0
    assert json.loads(out)["parameters"]["sections"] == 1


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_map_check_rejects_a_tol_that_is_not_positive_and_finite(capsys, tmp_path, tol, source):
    argv = ["map-check", "--sites", "16", "--sections", "1"]
    if source == "flag":
        argv.append(f"--tol={tol}")
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"tol = {tol}\n")
        argv += ["--config", str(config)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: tol must be positive and finite, got {float(tol)!r}\n"


@pytest.mark.parametrize(
    "argv, quantity",
    [
        (("--m", "1e200"), "m = 1e+200, q_eff = 1.5"),
        (("--scale", "1e308", "--winding", "2", "--length", "0.5"), "m = 1.0, q_eff = inf"),
    ],
)
def test_map_check_kernel_energy_overflow_exits_3(capsys, argv, quantity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "map-check", "--sites", "16", "--sections", "1", *argv)
    assert (code, out) == (3, "")
    assert err == f"error: kernel mode energy: m^2 + q_eff^2 overflows float64 at {quantity}\n"


TOO_SMALL = "is too small: L/N is subnormal or 2*pi*|w|*N/L overflows float64"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--length", "1e-310"), f"1e-310 {TOO_SMALL}"),
        (("--length", "5e-324"), f"5e-324 {TOO_SMALL}"),
        (("--sites", "16", "--winding", "7", "--length", "8e-307"), f"8e-307 {TOO_SMALL}"),
        (("--length", "1e308"), "1e+308 is too large: 2*pi*L overflows"),
    ],
)
def test_map_check_names_an_extreme_length_without_warnings(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "map-check", *argv)
    assert (code, out, err) == (3, "", f"error: circumference L = {message}\n")


def _refuse_constant(name):
    raise AssertionError(f"{name} in JSON output")


@pytest.mark.parametrize(
    "argv",
    [
        ("--sites", "8", "--sections", "1", "--winding", "2", "--m", "1e150", "--scale", "3"),
        ("--sites", "16", "--m", "1e150", "--winding", "-2", "--sections", "2"),
    ],
)
def test_map_check_residual_norms_that_overflow_read_finite(capsys, argv):
    # sum |r|^2 * L/N overflows at L = 1e200 though each norm is ~1e234
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "map-check", *argv, "--length", "1e200")
    assert (code, err) == (1, "")
    report = json.loads(out, parse_constant=_refuse_constant)
    assert report["passed"] is False
    assert 1e233 < report["residuals"]["intertwine_plus"] < 1e235


def test_map_check_names_a_dirac_image_that_overflows(capsys, tmp_path):
    # the section's values are finite; m * psi is not, so the refusal names
    # the operator and m rather than the file
    path = tmp_path / "section.json"
    values = np.full((16, 4), 1e300, dtype=complex)
    path.write_text(section_to_json(SampledSection(values, Structure.EXOTIC, TWO_PI)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "map-check", "--section-file", str(path), "--sites", "16",
            "--sections", "0", "--m", "1e10",
        )
    assert (code, out) == (3, "")
    assert err == "error: Dirac operator D psi overflows float64 at m = 10000000000.0\n"


def test_map_check_refuses_a_residual_that_overflows(capsys, tmp_path):
    # |psi|^2 overflows at 1e305, so the density residual is not finite; max()
    # used to keep the old worst over it and print a passing "density": 0.0
    path = tmp_path / "section.json"
    values = np.full((16, 4), 1e305, dtype=complex)
    path.write_text(section_to_json(SampledSection(values, Structure.EXOTIC, TWO_PI)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "map-check", "--section-file", str(path), "--sites", "16",
            "--sections", "0", "--m", "1",
        )
    assert (code, out) == (3, "")
    assert err == "error: map-check residual density overflows float64\n"


# edge values for map-check's float flags, each passed as --flag=value so that
# argparse does not read -inf as an option
_EDGE_FLOATS = (
    "nan", "inf", "-inf", "0", "-0", "5e-324", "1e-310", "1e-200",
    "0.5", "1e150", "1e200", "1e308", "-1",
)
# a non-finite float as CSV prints it (nan, inf) and as JSON (NaN, Infinity)
_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# what an exit-3 message may name in place of one of its command's flags: the
# inputs and symbols of the domain, each also as a plural
_QUANTITIES = (
    "m", "mass", "p", "momentum", "gradient", "scale", "tol", "circumference", "sites", "twist",
    "section", "table", "magma", "carrier", "event", "involute", "parity", "config",
)
_NAMED = re.compile(r"\b(%s)s?\b" % "|".join(map(re.escape, _QUANTITIES)))


def _contract(argv, codes, echoed="", out_file=None):
    """main(argv) under the output contract; returns its exit code and stdout.

    main does not raise, warnings are errors, the exit code is one of
    codes, and exit 3 prints nothing and writes one error line, which
    names a --flag of argv or one of _QUANTITIES.  The
    output, stdout then out_file if the run wrote it, holds no nan or inf
    token once echoed (an input path, not a computed value) is removed,
    and as JSON it parses without NaN or Infinity.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in codes
    if code == 3:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        flags = {arg.split("=", 1)[0] for arg in argv if arg.startswith("--")}
        message = err.getvalue()
        assert flags & set(re.findall(r"--[\w-]+", message)) or _NAMED.search(message), message
    output = out.getvalue()
    if out_file is not None and out_file.is_file():
        output += out_file.read_text()
    assert not _NOT_FINITE.search(output.replace(echoed, ""))
    if "--format=json" in argv and output:
        json.loads(output, parse_constant=_refuse_constant)
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    sites=st.integers(1, 64),
    sections=st.integers(0, 2),
    output=st.sampled_from(["csv", "json"]),
    flags=st.dictionaries(
        st.sampled_from(["--length", "--m", "--scale", "--tol"]), st.sampled_from(_EDGE_FLOATS)
    ),
)
def test_map_check_output_contract(sites, sections, output, flags):
    argv = ["map-check", f"--sites={sites}", f"--sections={sections}", f"--format={output}"]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    _contract(argv, (0, 1, 3))


# the other commands' contract draws from the whole edge pool: ordinary,
# tiny, huge and non-finite values of both signs, with vectors drawn
# componentwise; hypothesis favours the first entries, so ordinary ones lead
_FLOAT = st.sampled_from(
    (
        "0.5", "3", "-1", "0", "-0", "1e-30", "1e-200", "1e-310", "5e-324",
        "1e150", "1e200", "1e308", "-1e200", "nan", "inf", "-inf",
    )
)
_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def _vector(size):
    return st.lists(_FLOAT, min_size=size, max_size=size).map(",".join)


# command: (required flags, optional flags), each flag with its strategy;
# sizes stay small (sites <= 64, count <= 20)
_CONTRACT_COMMANDS = {
    "dispersion": (
        {"--m": _FLOAT, "--p": _vector(3), "--k": _vector(3)},
        {"--scale": _FLOAT, "--formula": st.sampled_from(["semiclassical", "exact", "both"])},
    ),
    "sweep": (
        {
            "--m": _FLOAT,
            "--k": _vector(3),
            "--p3-min": _FLOAT,
            "--p3-max": _FLOAT,
            "--count": st.integers(-1, 20),
        },
        {"--p-transverse": _vector(2), "--scale": _FLOAT},
    ),
    "preference": (
        {"--p": _vector(3), "--k": _vector(3)},
        {"--scale": _FLOAT, "--tol": _FLOAT},
    ),
    "ring-spectrum": (
        {"--sites": st.sampled_from([8, 16, 64, 4, 2, 1, 33]), "--length": _FLOAT},
        {
            "--m": _FLOAT,
            "--twist": _FLOAT,
            "--structure": st.sampled_from(["standard", "exotic"]),
            "--count": st.integers(-1, 20),
        },
    ),
    "algebra chain": (
        {
            "--events": st.sampled_from(["events.json", "parity-events.json"]).map(
                lambda name: str(_INPUTS / name)
            ),
            "--initial": st.sampled_from(["(a,b)", "(b,a)", "S", "C"]),
            "--p": _vector(3),
            "--k": _vector(3),
        },
        {"--scale": _FLOAT, "--tol": _FLOAT},
    ),
}


def _contract_argv(command, required, optional):
    flags = st.fixed_dictionaries(required, optional=optional)
    return flags.map(lambda drawn: [*command.split(), *(f"{k}={v}" for k, v in drawn.items())])


@settings(max_examples=400, deadline=None)
@given(
    argv=st.one_of(*(_contract_argv(name, *flags) for name, flags in _CONTRACT_COMMANDS.items())),
    output=st.sampled_from(["csv", "json"]),
)
def test_cli_output_contract(argv, output):
    # none of these commands checks an identity, so none may exit 1
    _contract([*argv, f"--format={output}"], (0, 2, 3), echoed=str(_INPUTS))


# the file inputs' contract: a valid table or events file, with half of the
# draws swapping one value, row, list or the whole document for a JSON edge
# token written as raw text, so 1e400 (read as inf) and NaN reach the readers
# as written; they are half of the swaps.  A lone surrogate is written as the
# byte 0xff (not UTF-8), and DEEP nests past what the JSON reader recurses into
_NOT_UTF8 = "\udcff"
_DEEP = "[" * 10**5 + "]" * 10**5
_JSON_EDGE = st.sampled_from(("1e400", "NaN")) | st.sampled_from(
    ("-0.0", "0.5", "true", "false", "null", "-1", "7", '"1"', "[]", "[[0]]", "{}")
) | st.sampled_from((_NOT_UTF8, _DEEP))


def _write(path, text):
    """text as UTF-8, with each lone surrogate written as the byte it escapes."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def _json_paths(node, path=()):
    """The path of every value in a document whose leaves are raw JSON tokens."""
    yield path
    if not isinstance(node, str):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _json_paths(child, (*path, key))


def _json_text(node, swap, path=()):
    """The document as JSON text, with the value at swap's path replaced by its token."""
    if path == swap[0]:
        return swap[1]
    if isinstance(node, str):
        return node
    if isinstance(node, dict):
        items = (f'"{k}": {_json_text(v, swap, (*path, k))}' for k, v in node.items())
        return "{" + ", ".join(items) + "}"
    return "[" + ", ".join(_json_text(v, swap, (*path, i)) for i, v in enumerate(node)) + "]"


@st.composite
def _file_input(draw):
    """(argv head, file text, argv tail) for a command that reads a JSON file."""
    command = draw(st.sampled_from(["analyze", "compose", "chain"]))
    if command == "chain":
        operand = st.sampled_from(['"(b,a)"', '"(a,b)"', '"(ab,.)"', '"S"'])
        event = st.fixed_dictionaries(
            {"operand": operand}, optional={"involute": st.sampled_from(["true", "false"])}
        )
        document = draw(st.lists(event, max_size=4))
        initial = draw(st.sampled_from(["(a,b)", "S"]))
        k = draw(st.sampled_from(["0,0,0.01", "0,0,-0.01", "0,0,0"]))
        head, tail = ["--events"], ["--initial", initial, "--p", "0,0,0.5", "--k", k]
    else:
        n = draw(st.integers(1, 3))
        row = st.lists(st.sampled_from([str(i) for i in range(n)]), min_size=n, max_size=n)
        document = {
            "carrier": ['"e"', '"g"', '"(a,b)"'][:n],
            "table": draw(st.lists(row, min_size=n, max_size=n)),
        }
        if draw(st.booleans()):
            document["name"] = '"drawn"'
        head, tail = ["--table-file"], []
        if command == "compose":
            tail = draw(st.lists(st.sampled_from(["e", "g", "(a,b)"]), min_size=2, max_size=2))
    swap = (None, None)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_json_paths(document))))
        swap = (path, draw(_JSON_EDGE))
    return ["algebra", command, *head], _json_text(document, swap), tail


@settings(max_examples=120, deadline=None)
@given(command=_file_input(), output=st.sampled_from(["csv", "json"]))
def test_file_input_output_contract(tmp_path_factory, command, output):
    head, text, tail = command
    path = tmp_path_factory.getbasetemp() / "contract-input.json"
    _write(path, text)
    _contract([*head, str(path), *tail, f"--format={output}"], (0, 2, 3), echoed=str(path))


# each file flag: the argv that reads it, what its read error names, and what
# its JSON error names (None: the file is not JSON)
_FILE_READERS = (
    ("--config", ["preference", "--p=0,0,0.5", "--k=0,0,0.01"], "config {!r}", None),
    ("--table-file", ["algebra", "analyze"], "table file", "magma"),
    ("--section-file", ["map-check", "--sites=16", "--sections=0"], "section file", "section"),
    ("--events", ["algebra", "chain", "--initial=S", "--p=0,0,0.5", "--k=0,0,0.01"],
     "events file", "events"),
)
_NOT_UTF8_REASON = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
_DEEP_REASON = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


@pytest.mark.parametrize(("flag", "argv", "what", "json_what"), _FILE_READERS)
def test_a_file_not_utf8_or_nested_too_deep_is_exit_3(
    capsys, tmp_path, flag, argv, what, json_what
):
    path = tmp_path / "input"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, *argv, flag, str(path))
    what = what.format(str(path))
    assert (code, out, err) == (3, "", f"error: cannot read {what}: {_NOT_UTF8_REASON}\n")
    if json_what is not None:
        path.write_text(_DEEP)
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out, err) == (3, "", f"error: invalid {json_what} JSON: {_DEEP_REASON}\n")


# the rest of the CLI: verify's suites, the builtin tables on labels from a
# pool (ASCII-dot aliases, unknown and empty ones), and edge contents of a
# --config file and a --section-file, each printed to stdout, to an --out
# file, or to an --out directory (exit 3)
_LABEL = st.sampled_from(["S", "C", "(a,b)", "(b,a)", "(ab,.)", "(.,ab)", "(ab,·)", "ab", "x", ""])
_CONFIG_LINE = st.sampled_from(
    (
        "scale = 1", "tol = 1e-9", "scale = 1_0", "tol = 1_0e-9", "# note", "", "scale = nan",
        "tol = inf", "scale = -Infinity", "scale = 1e400", "scale = 0x10", "mass = 2",
        "scale 1", "= 1", "tol =", f"scale = 1  # {_NOT_UTF8}",
    )
)
# (argv, exit codes) of the commands that read a config file
_CONFIG_READERS = (
    (["preference", "--p=0,0,0.5", "--k=0,0,0.01"], (0, 3)),
    (["map-check", "--sites=16", "--sections=1"], (0, 1, 3)),
)
_SECTION = json.loads((_INPUTS / "section-16.json").read_text())
# the golden 16-site section with raw JSON tokens as leaves, for _json_text
_SECTION_TOKENS = {key: json.dumps(value) for key, value in _SECTION.items()} | {
    "values": [[[json.dumps(part) for part in pair] for pair in row] for row in _SECTION["values"]]
}
_SECTION_PATHS = list(_json_paths(_SECTION_TOKENS))
_SECTION_EDGE = st.sampled_from(
    ("true", "null", '"1"', "1e400", "NaN", "-0.0", "0.5", "[]", "[0, 0, 0]", "[[0, 0]]")
) | st.sampled_from((_NOT_UTF8, _DEEP))


@st.composite
def _rest_of_cli(draw):
    """(argv, exit codes, input file text or None); "{in}" in argv is that file."""
    kind = draw(st.sampled_from(["verify", "analyze", "compose", "config", "section"]))
    table = f"--table={draw(st.sampled_from(BUILTIN_NAMES))}"
    if kind == "verify":
        return ["verify", f"--suite={draw(st.sampled_from(['all', *SUITES]))}"], (0,), None
    if kind == "analyze":
        return ["algebra", "analyze", table], (0,), None
    if kind == "compose":
        return ["algebra", "compose", table, draw(_LABEL), draw(_LABEL)], (0, 3), None
    if kind == "config":
        command, codes = draw(st.sampled_from(_CONFIG_READERS))
        text = "".join(f"{line}\n" for line in draw(st.lists(_CONFIG_LINE, max_size=3)))
        return [*command, "--config", "{in}"], codes, text
    swap = (None, None)
    if draw(st.booleans()):
        swap = (draw(st.sampled_from(_SECTION_PATHS)), draw(_SECTION_EDGE))
    argv = ["map-check", "--sites=16", "--sections=0", "--section-file", "{in}"]
    return argv, (0, 1, 3), _json_text(_SECTION_TOKENS, swap)


@settings(max_examples=150, deadline=None)
@given(
    command=_rest_of_cli(),
    output=st.sampled_from(["csv", "json"]),
    destination=st.sampled_from(["stdout", "file", "directory"]),
)
def test_rest_of_cli_output_contract(tmp_path_factory, command, output, destination):
    argv, codes, text = command
    base = tmp_path_factory.getbasetemp()
    path, report = base / "contract-input", base / "contract-report"
    if text is not None:
        _write(path, text)
    report.unlink(missing_ok=True)
    argv = [str(path) if arg == "{in}" else arg for arg in argv] + [f"--format={output}"]
    if destination == "file":
        argv += ["--out", str(report)]
    elif destination == "directory":
        argv, codes = [*argv, "--out", str(base)], (3,)
    _, printed = _contract(argv, codes, echoed=str(path), out_file=report)
    if destination != "stdout":
        assert printed == ""


def test_algebra_analyze_builtin(capsys):
    code, out, _ = run(capsys, "algebra", "analyze", "--table", "prefer_standard")
    assert code == 0
    document = json.loads(out)
    assert document["identities"] == ["(·,ab)"]
    assert document["absorbers"] == ["(ab,·)"]
    assert document["commutativity_violations"] == [["(a,b)", "(b,a)"]]
    assert document["associativity_violations"] == 3
    assert document["is_group"] is False
    # ensure_ascii off: the middle dot appears literally
    assert "(ab,·)" in out


def test_algebra_analyze_z2_group(capsys):
    code, out, _ = run(capsys, "algebra", "analyze", "--table", "z2")
    document = json.loads(out)
    assert code == 0
    assert document["is_group"] is True
    assert document["identities"] == ["S"]
    assert document["commutativity_violations"] == []


def test_algebra_analyze_table_file(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"carrier": ["e", "g"], "table": [[0, 1], [1, 0]]}))
    code, out, _ = run(capsys, "algebra", "analyze", "--table-file", str(path))
    assert code == 0
    assert json.loads(out)["is_group"] is True


def test_algebra_analyze_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "algebra", "analyze")
    assert code == 3
    path = tmp_path / "t.json"
    path.write_text("{}")
    code, _, _ = run(
        capsys, "algebra", "analyze", "--table", "z2", "--table-file", str(path)
    )
    assert code == 3


def test_algebra_compose(capsys):
    code, out, _ = run(capsys, "algebra", "compose", "--table", "z2", "C", "C")
    assert code == 0
    assert json.loads(out)["result"] == "S"
    # ASCII aliases are accepted on input, canonical spelling on output
    code, out, _ = run(
        capsys, "algebra", "compose", "--table", "prefer_standard", "(ab,.)", "(b,a)"
    )
    assert json.loads(out)["result"] == "(ab,·)"


def test_compose_csv_quotes_labels_with_commas(capsys):
    code, out, _ = run(
        capsys, "algebra", "compose", "--table", "prefer_standard", "(ab,.)", "(b,a)",
        "--format", "csv",
    )
    assert code == 0
    assert out == '# table = prefer_standard\nleft,right,result\n"(ab,.)","(b,a)","(ab,·)"\n'
    records = list(csv.reader(io.StringIO(out)))
    assert records[1:] == [["left", "right", "result"], ["(ab,.)", "(b,a)", "(ab,·)"]]


def test_csv_cells_double_inner_quotes(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"name": "q", "carrier": ['a"b', "c"], "table": [[0, 1], [1, 0]]}))
    code, out, _ = run(
        capsys, "algebra", "compose", "--table-file", str(path), 'a"b', "c", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[-1] == '"a""b",c,c'
    assert list(csv.reader(io.StringIO(out)))[-1] == ['a"b', "c", "c"]


@pytest.mark.parametrize(
    "command, header",
    [
        (("compose", "x", "y"), "left,right,result"),
        (("analyze",), "name,carrier,table,identities,absorbers,commutativity_violations,"
                       "associativity_violations,associativity_witness,is_group"),
    ],
)
def test_csv_parameter_with_a_line_break_stays_on_one_line(capsys, tmp_path, command, header):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"name": "two\nlines", "carrier": ["x", "y"],
                                "table": [[0, 1], [1, 0]]}))
    code, out, _ = run(
        capsys, "algebra", command[0], "--table-file", str(path), *command[1:], "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ['# table = "two\\nlines"', header]
    assert json.loads(lines[0].partition(" = ")[2]) == "two\nlines"


def test_algebra_chain_with_involution(capsys, tmp_path):
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{"operand": "(a,b)", "involute": True}]))
    code, out, _ = run(
        capsys,
        "algebra", "chain",
        "--initial", "(a,b)",
        "--events", str(events),
        "--p", "0,0,0.5",
        "--k", "0,0,0.01",
    )
    assert code == 0
    document = json.loads(out)
    assert document["initial_table"] == "prefer_standard"
    assert document["final"] == "(a,b)"
    assert document["trace"] == [{"step": 1, "table": "prefer_exotic", "state": "(a,b)"}]


@pytest.mark.parametrize(
    "event, message",
    [
        # bool("false") is True: it flipped to prefer_exotic and ended at (·,ab)
        ({"operand": "(b,a)", "involute": "false"}, "involute must be true or false"),
        ({"operand": "(b,a)", "involute": 1}, "involute must be true or false"),
        ({"operand": "(b,a)", "involute": None}, "involute must be true or false"),
        ({"operand": 1}, "event operand must be a string"),
        ({"operand": None}, "event operand must be a string"),
    ],
)
def test_algebra_chain_takes_events_as_typed(capsys, tmp_path, event, message):
    events = tmp_path / "events.json"
    argv = ["algebra", "chain", "--initial", "(a,b)", "--events", str(events), "--p", "0,0,0.5"]
    events.write_text(json.dumps([event]))
    code, out, err = run(capsys, *argv, "--k", "0,0,0.01")
    assert (code, out, err) == (3, "", f"error: {message}\n")
    events.write_text(json.dumps([{"operand": "(b,a)", "involute": False}]))
    code, out, _ = run(capsys, *argv, "--k", "0,0,0.01")
    assert (code, json.loads(out)["final"]) == (0, "(b,a)")


@pytest.mark.parametrize("command", [["analyze"], ["compose", "e", "g"]])
def test_algebra_table_file_refuses_a_float_entry(capsys, tmp_path, command):
    # int(1e400) raised an uncaught OverflowError: a traceback and exit 1
    path = tmp_path / "table.json"
    path.write_text('{"carrier": ["e", "g"], "table": [[0, 1e400], [1, 0]]}')
    code, out, err = run(capsys, "algebra", command[0], "--table-file", str(path), *command[1:])
    assert (code, out, err) == (3, "", "error: table entries must be integers\n")


def test_algebra_chain_z2_rejects_preference_operand(capsys, tmp_path):
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{"operand": "(ab,.)"}]))
    code, _, err = run(
        capsys,
        "algebra", "chain",
        "--initial", "S",
        "--events", str(events),
        "--p", "0,0,0.5",
        "--k", "0,0,0",
    )
    assert code == 3
    assert "error:" in err


def test_verify_suite_output(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "winding")
    assert code == 0
    document = json.loads(out)
    assert list(document) == ["command", "parameters", "checks", "failed"]
    assert document["parameters"] == {"suite": "winding"}
    assert [check["name"] for check in document["checks"]] == [
        "holonomy-wound", "holonomy-flat", "holonomy-random", "involution"
    ]
    for check in document["checks"]:
        assert list(check) == ["name", "value", "bound", "margin", "passed"]
        assert check["value"] <= check["bound"]
        assert check["margin"] == check["bound"] - check["value"]
        assert check["passed"] is True
    assert document["failed"] == 0


VERIFY_NAMES = [
    "holonomy-wound", "holonomy-flat", "holonomy-random", "involution",
    "frozen-first-order", "frozen-first-order-gap", "frozen-closed-form", "gap-sign",
    "gap-expansion", "flat-collapse", "perpendicular-degenerate",
    "intertwine_plus", "intertwine_minus", "commutation", "density", "roundtrip",
    "kernel_residual", "mapped_kernel_residual", "flat-identity",
    "z2-group", "prefer-standard-structure", "prefer-exotic-structure", "magma-json",
    "chain-identity-start", "chain-involution-swap", "chain-double-involution",
    "chain-parity", "chain-degenerate-guard", "chain-absorber",
    "quantization", "degeneracy-lifting", "charge-symmetry", "lattice-vs-closed-form",
    "twist-mismatch-detected",
]


def test_verify_all_suites_pass_in_both_formats(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert [check["name"] for check in document["checks"]] == VERIFY_NAMES
    assert all(check["value"] <= check["bound"] for check in document["checks"])
    assert all(check["passed"] is True for check in document["checks"])
    assert document["failed"] == 0
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == 0
    records = list(csv.reader(io.StringIO(out)))
    header = ["name", "value", "bound", "margin", "passed"]
    assert records[:4] == [["# suite = all"], ["failed"], ["0"], header]
    expected = [
        [c["name"], *(_csv_cell(c[key]) for key in header[1:4]), "true"]
        for c in document["checks"]
    ]
    assert records[4:] == expected


def _verify_rows(out: str, fmt: str) -> tuple[int, list[dict]]:
    """verify's failed count and its checks table, each row keyed by column."""
    if fmt == "json":
        document = json.loads(out)
        return document["failed"], document["checks"]
    records = list(csv.reader(io.StringIO(out)))
    header = records[3]
    rows = [dict(zip(header, record)) for record in records[4:]]
    for row in rows:
        row["passed"] = {"true": True, "false": False}[row["passed"]]
    return int(records[2][0]), rows


@pytest.mark.parametrize("broken", ["holonomy-random", "degeneracy-lifting", "roundtrip"])
def test_verify_table_counts_its_failed_rows(capsys, monkeypatch, broken):
    checks = run_suite("all")
    names = [name for name, _, _ in checks]
    # the acceptance gate indexes checks by name
    assert len(set(names)) == len(names)
    for _, value, bound in checks:
        assert type(value) is float and type(bound) is float
        assert math.isfinite(bound) and bound >= 0.0
    # one value above its bound flips exactly that row
    over = list(checks)
    index = names.index(broken)
    over[index] = (broken, over[index][2] + 1.0, over[index][2])
    for suite, code, failing in ((checks, 0, []), (over, 1, [broken])):
        monkeypatch.setattr(cli, "run_suite", lambda name, suite=suite: suite)
        for fmt in ("json", "csv"):
            exit_code, out, _ = run(capsys, "verify", "--format", fmt)
            failed, rows = _verify_rows(out, fmt)
            assert exit_code == code
            assert [row["name"] for row in rows if not row["passed"]] == failing
            assert failed == len(failing)


def _csv_cell(value):
    """What the CSV renderer prints for one JSON value."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, str):
        return value
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


def _is_table(value):
    return isinstance(value, list) and bool(value) and all(isinstance(v, dict) for v in value)


def _csv_parameters(records):
    parameters = {}
    while records and records[0] and records[0][0].startswith("# "):
        # the comment lines are not quoted, so a comma splits them into cells
        key, _, value = ",".join(records.pop(0))[2:].partition(" = ")
        parameters[key] = value
    return parameters


COMMANDS = [
    ("sweep", "--m", "1", "--k", "0,0.01,0.02", "--p3-min=-1", "--p3-max", "1", "--count", "4"),
    ("preference", "--p", "0,0,0.5", "--k", "0,0,-0.01"),
    ("ring-spectrum", "--sites", "8", "--length", "6.28", "--structure", "exotic"),
    ("map-check", "--sites", "16", "--sections", "2"),
    ("algebra", "analyze", "--table", "prefer_standard"),
    ("algebra", "compose", "--table", "prefer_exotic", "(ab,.)", "(a,b)"),
    ("algebra", "chain", "--initial", "(a,b)", "--events", "EVENTS", "--p", "0,0,0.5",
     "--k", "0,0,0.01"),
    ("verify", "--suite", "chains"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_csv_carries_every_json_value(capsys, tmp_path, argv):
    events = tmp_path / "events.json"
    events.write_text(json.dumps([{"operand": "(b,a)", "involute": True}, {"operand": "(a,b)"}]))
    argv = [str(events) if arg == "EVENTS" else arg for arg in argv]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    document = json.loads(out)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    records = list(csv.reader(io.StringIO(out)))
    parameters = _csv_parameters(records)
    assert parameters == {key: cli._fmt12(value) for key, value in document["parameters"].items()}
    fields = {k: v for k, v in document.items() if k not in ("command", "parameters")}
    single = {k: v for k, v in fields.items() if not _is_table(v)}
    if single:
        assert records.pop(0) == list(single)
        assert records.pop(0) == [_csv_cell(v) for v in single.values()]
    for value in fields.values():
        if _is_table(value):
            assert records.pop(0) == list(value[0])
            for row in value:
                assert records.pop(0) == [_csv_cell(cell) for cell in row.values()]
    assert records == []


def test_dispersion_csv_is_its_branch_table(capsys):
    # the one command whose CSV is its own table: the branches, not the gaps
    _, out, _ = run(capsys, *DISPERSION_ARGS, "--format", "json")
    branches = json.loads(out)["branches"]
    _, out, _ = run(capsys, *DISPERSION_ARGS)
    records = list(csv.reader(io.StringIO(out)))
    _csv_parameters(records)
    assert records[0] == ["branch", "e_semiclassical", "e_exact"]
    assert records[1:] == [
        [name, _csv_cell(b["semiclassical"]), _csv_cell(b["exact"])]
        for name, b in branches.items()
    ]


def test_config_file_supplies_scale(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults for this machine\nscale = 0.5\n")
    code, out, _ = run(
        capsys, *DISPERSION_ARGS, "--format", "json", "--config", str(config)
    )
    assert code == 0
    document = json.loads(out)
    assert document["parameters"]["scale"] == 0.5
    assert document["branches"]["exotic_minus"]["exact"] == math.sqrt(1.0 + 0.505**2)
    # an explicit flag beats the config value
    code, out, _ = run(
        capsys, *DISPERSION_ARGS, "--format", "json", "--config", str(config),
        "--scale", "1.0",
    )
    assert json.loads(out)["parameters"]["scale"] == 1.0


@pytest.mark.parametrize("value", ["1_0", "0.5", "2.5E-1", "+3", "nan", "-Infinity"])
def test_config_and_flag_read_a_number_alike(capsys, tmp_path, value):
    # both go through float(), so "1_0" is 10 either way (README, config files)
    config = tmp_path / "run.cfg"
    config.write_text(f"scale = {value}\n")
    from_config = run(capsys, *DISPERSION_ARGS, "--format", "json", "--config", str(config))
    from_flag = run(capsys, *DISPERSION_ARGS, "--format", "json", f"--scale={value}")
    assert from_config == from_flag
    code, out, err = from_flag
    if math.isfinite(float(value)):
        assert (code, json.loads(out)["parameters"]["scale"]) == (0, float(value))
    else:
        assert (code, out, err) == (3, "", "error: scale must be finite\n")


def test_config_refuses_a_number_that_float_does_not_read(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("scale = 0x10\n")
    code, out, err = run(capsys, *DISPERSION_ARGS, "--config", str(config))
    assert (code, out, err) == (3, "", "error: config line 1: bad number '0x10'\n")


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("mass = 2\n")
    code, _, err = run(capsys, *DISPERSION_ARGS, "--config", str(config))
    assert code == 3
    assert "unknown key" in err


def test_config_file_read_once_per_command(capsys, tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("scale = 1\ntol = 1e-9\n")
    reads = []
    load = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda path: reads.append(path) or load(path))
    # map-check, preference and chain each look up both scale and tol
    code, out, _ = run(
        capsys, "map-check", "--sites", "16", "--sections", "1", "--config", str(config)
    )
    assert code == 0
    assert json.loads(out)["parameters"]["tol"] == 1e-9
    code, out, _ = run(
        capsys, "preference", "--p", "0,0,0.5", "--k", "0,0,0.01", "--config", str(config)
    )
    assert code == 0
    assert json.loads(out)["parameters"]["tol"] == 1e-9
    assert reads == [str(config), str(config)]
    # with every value given by a flag the file is never needed, so never read
    code, _, _ = run(
        capsys, "preference", "--p", "0,0,0.5", "--k", "0,0,0.01", "--scale", "1",
        "--tol", "1e-9", "--config", str(tmp_path / "missing.cfg"),
    )
    assert code == 0
    assert len(reads) == 2


# each command that reads --config, given a bad flag and an unreadable file:
# the refusal that comes first (the file is read once the flags before it parse)
_READ_ORDER = (
    (["dispersion", "--m", "1", "--p", "0,0,1", "--k", "1,2"], "--k expects 3"),
    (["preference", "--p", "0,0,1", "--k", "x,0,0"], "--k expects numbers"),
    (["map-check", "--sites", "16", "--sections", "-1"], "--sections must be"),
    (["sweep", "--m", "1", "--k", "0,0,1", "--p-transverse", "x", "--p3-min", "0",
      "--p3-max", "1", "--count", "2"], "cannot read config"),
    (["algebra", "chain", "--events", "events.json", "--initial", "S", "--p", "1,2", "--k",
      "0,0,1"], "--p expects 3"),
    # a --scale is checked with k before the file is read for the tol alone
    (["preference", "--p", "0,0,1", "--k", "inf,0,0", "--scale", "1"], "gradient data"),
    (["preference", "--p", "0,0,1", "--k", "inf,0,0"], "cannot read config"),
)


@pytest.mark.parametrize(("argv", "first"), _READ_ORDER)
def test_a_bad_flag_and_an_unreadable_config_refuse_in_order(capsys, tmp_path, argv, first):
    code, out, err = run(capsys, *argv, "--config", str(tmp_path / "missing.cfg"))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {first}")


def test_usage_errors_exit_2(capsys):
    assert main(["dispersion", "--m", "1"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ("verify",),
        ("ring-spectrum", "--sites", "8", "--length", "1"),
        ("algebra", "analyze", "--table", "z2"),
        ("algebra", "compose", "--table", "z2", "C", "C"),
    ],
)
def test_config_is_a_usage_error_where_it_is_not_read(capsys, command):
    code, out, err = run(capsys, *command, "--config", "x")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --config x" in err


def _console(argv, unbuffered=False, **kwargs) -> subprocess.CompletedProcess:
    """A child interpreter running the CLI through python -m on argv, its output as bytes.

    The child's environment drops every PYTHON* variable, as clibench/run.py's
    children's does, so its stdout is block-buffered and its stderr
    line-buffered unless unbuffered sets PYTHONUNBUFFERED=1.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", *argv], env=env, **kwargs)


@pytest.mark.parametrize("module", ["spinorlab", "spinorlab.cli"])
@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["--version"], 0, "stdout", "spinorlab 0.1.0\n"),
        (["dispersion", "--m", "1", "--p", "1,2", "--k", "0,0,0"], 3, "stderr",
         "error: --p expects 3 comma-separated numbers, got '1,2'\n"),
        (["dispersion", "--m", "1"], 2, None, None),
        (["map-check", "--scale", "2"], 1, None, None),
        (list(DISPERSION_ARGS), 0, None, None),
        ([*DISPERSION_ARGS, "--format", "json"], 0, None, None),
        ([*DISPERSION_ARGS, "--timing"], 0, None, None),
    ],
)
def test_module_entry_points_run_the_cli(capsys, module, argv, code, stream, text):
    done = _console([module, *argv], capture_output=True)
    assert done.returncode == code
    if stream is not None:
        assert getattr(done, stream) == text.encode()
    # the console path flushes and ends the process in os._exit: its exit
    # code and output bytes are main()'s in process, the --timing spans aside
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert done.stdout == out.encode()
    if "--timing" in argv:
        stages = [json.loads(line)["stage"] for line in done.stderr.decode().splitlines()]
        assert stages == ["parse", "compute", "render", "write"]
    else:
        assert done.stderr == err.encode()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_console_path_reports_a_reader_that_closed_first(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _console(
            ["spinorlab", *DISPERSION_ARGS], unbuffered, stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    if unbuffered:
        # main()'s write raises EPIPE, and main reports it as exit 3
        assert (done.returncode, done.stderr) == (3, b"error: [Errno 32] Broken pipe\n")
    else:
        # the write stays in stdout's buffer and main() returns 0; the flush
        # raises EPIPE, and sys.exit's teardown reports it with exit 120
        assert done.returncode == 120
        assert done.stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert done.stderr.endswith(b"\nBrokenPipeError: [Errno 32] Broken pipe\n")


_BAD_P = ("dispersion", "--m", "1", "--p", "1,2", "--k", "0,0,0")


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "fd, argv, code, stdout, stderr",
    [
        (1, DISPERSION_ARGS, 3, b"", b"error: cannot write stdout: it is closed\n"),
        (1, (*DISPERSION_ARGS, "--out", "{out}", "--timing"), 0, b"", None),
        (2, _BAD_P, 3, b"", b""),
        (2, (*DISPERSION_ARGS, "--timing"), 0, None, b""),
    ],
)
def test_a_closed_stdout_or_stderr_keeps_the_exit_code(
    capsys, tmp_path, unbuffered, fd, argv, code, stdout, stderr
):
    argv = [arg.replace("{out}", str(tmp_path / "out.csv")) for arg in argv]
    done = _console(
        ["spinorlab", *argv], unbuffered, capture_output=True, preexec_fn=lambda: os.close(fd)
    )
    assert done.returncode == code
    assert b"Traceback" not in done.stderr
    # what the closed stream would have held is not compared
    if stdout is not None:
        assert done.stdout == stdout
    if stderr is not None:
        assert done.stderr == stderr
    if code == 0:
        main(list(DISPERSION_ARGS))
        want = capsys.readouterr().out
        got = done.stdout if fd == 2 else (tmp_path / "out.csv").read_bytes()
        assert got == want.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, code",
    [(_BAD_P, 3), ((*DISPERSION_ARGS, "--timing"), 0), (("map-check", "--scale", "2"), 1)],
)
def test_an_unwritable_stderr_keeps_the_exit_code(capsys, unbuffered, argv, code):
    # /dev/full takes no byte, so sys.stderr is open and every write or flush
    # of it raises ENOSPC; a stderr on a descriptor closed after start-up
    # behaves the same way
    with open("/dev/full", "wb") as full:
        done = _console(["spinorlab", *argv], unbuffered, stdout=subprocess.PIPE, stderr=full)
    assert done.returncode == code
    assert main(list(argv)) == code
    assert done.stdout == capsys.readouterr().out.encode()


def test_malformed_vector_is_domain_error(capsys):
    code, _, err = run(capsys, "dispersion", "--m", "1", "--p", "1,2", "--k", "0,0,0")
    assert code == 3
    assert "--p" in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
