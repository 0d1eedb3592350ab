import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from spinorlab import cli
from spinorlab.cli import main
from spinorlab.dispersion import branch_energies
from spinorlab.sections import map_checks, random_band_limited_section, section_to_json
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


def test_timing_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, *DISPERSION_ARGS, "--timing")
    assert code == 0
    assert "wall time" in err
    assert "wall time" not in out


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
        raise AssertionError("ring_spectrum called")

    monkeypatch.setattr(cli, "ring_spectrum", refuse)
    code, out, err = run(
        capsys, "ring-spectrum", "--sites", "2048", "--length", "1", "--count", "-1"
    )
    assert code == 3
    assert out == ""
    assert "--count must be non-negative" in err


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
        assert list(check) == ["name", "passed", "detail"]
        assert check["passed"] is True
        assert isinstance(check["detail"], str) and check["detail"]
    assert document["failed"] == 0


VERIFY_NAMES = [
    "holonomy-wound", "holonomy-flat", "holonomy-random", "involution",
    "frozen-first-order", "frozen-closed-form", "gap-sign", "gap-expansion",
    "flat-collapse", "perpendicular-degenerate",
    "intertwine-plus", "intertwine-minus", "phase-commutation", "density-invariance",
    "map-roundtrip", "kernel-transport", "flat-identity",
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
    assert all(check["passed"] is True for check in document["checks"])
    assert document["failed"] == 0
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == 0
    records = list(csv.reader(io.StringIO(out)))
    assert records[:4] == [["# suite = all"], ["failed"], ["0"], ["name", "passed", "detail"]]
    expected = [[c["name"], "true", c["detail"]] for c in document["checks"]]
    assert records[4:] == expected


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


def test_usage_errors_exit_2(capsys):
    assert main(["dispersion", "--m", "1"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_malformed_vector_is_domain_error(capsys):
    code, _, err = run(capsys, "dispersion", "--m", "1", "--p", "1,2", "--k", "0,0,0")
    assert code == 3
    assert "--p" in err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
