"""The bench scripts run end to end on tiny inputs and print what they document."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _bench(script: str, *args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / script), *args],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done


def test_process_reports_wall_rss_spans_and_bytes_per_size():
    done = _bench(
        "process.py", "--src", SRC, "--sizes", "8,16", "--repeats", "1",
        "--", "ring-spectrum", "--sites", "{size}", "--length", "2",
    )
    result = json.loads(done.stdout)
    assert result["argv"] == ["ring-spectrum", "--sites", "{size}", "--length", "2"]
    assert list(result["sizes"]) == ["8", "16"]
    for measured in result["sizes"].values():
        assert list(measured) == [
            "wall_s", "peak_rss_mb", "parse_s", "compute_s", "render_s", "write_s", "bytes",
        ]
        assert measured["bytes"] > 0
        for key in ("wall_s", "peak_rss_mb", "compute_s"):
            assert set(measured[key]) == {"median", "q1", "q3"}
            assert measured[key]["median"] > 0
    assert result["sizes"]["16"]["bytes"] > result["sizes"]["8"]["bytes"]


def test_process_refuses_a_failed_run_with_its_stderr():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "process.py"), "--src", SRC, "--repeats", "1",
         "--", "ring-spectrum", "--sites", "6", "--length", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert "exited 3" in done.stderr and "error: circumference" in done.stderr


def test_energy_bits_hashes_every_column():
    done = _bench("energy_bits.py", "--src", SRC, "--rows", "1000", "--rings", "3")
    result = json.loads(done.stdout)
    assert result["rows_kept"] + result["rows_left_out"] == 1000
    hashes = {key: value for key, value in result.items() if key.startswith(("both.", "exact."))}
    assert len(hashes) == 16 and "ring_modes" in result


def test_map_check_sweep_finds_no_difference_between_two_dumps_of_one_tree(tmp_path):
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    for path in (before, after):
        _bench("map_check_sweep.py", "dump", str(path), "--src", SRC, "--draws", "5")
    done = _bench("map_check_sweep.py", "compare", str(before), str(after))
    assert "draws 5," in done.stdout and "differing draws 0" in done.stdout
    assert "residuals moved 0 of" in done.stdout
