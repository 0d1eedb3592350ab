"""End-to-end benchmark of the spinorlab command line.

Usage (from the root of a source checkout):

    python3 clibench/run.py --workload scan|oracle|session --seed N \
        --seconds S --trace 0|1

--trace 0 runs a closed loop with one client: one fresh interpreter at a
time calls ``spinorlab.cli.main(argv)`` exactly as the console script does,
cycling round-robin through the workload's command classes until the time is
up (and at least the workload's minimum number of whole cycles has run).
Set-up samples (a fresh interpreter importing ``spinorlab.cli``) are spread
through the loop.  Every output is checked against an independent reference
after its process has exited, outside the timed interval.  Each cycle ends
with a repeat of one class (a different one each cycle), which is timed like
the rest and must give identical bytes.

--trace 1 measures the per-layer numbers instead; see tracing.py.

Every child runs with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1.  The last line of stdout is the JSON result; the
line before it holds the details (tail percentile and sample count, known
defects by name, thread settings).
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# before numpy is imported here, so the harness itself does not spin threads
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, Job, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_BOOT = "from spinorlab.cli import console_main; console_main()"
IMPORT_ONLY = "import spinorlab.cli"
# candidate percentiles for cmd_tail_s, highest first
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# stop even before min_cycles are done, to stay inside the 180 s limit
HARD_STOP_S = 150.0


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """One spawned process, timed from spawn to exit."""

    def __init__(self, cmd: list[str], env: dict, stdout_path: Path, stderr_path: Path):
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = child_env()
        self.stdout_path = tmp / "stdout"
        self.stderr_path = tmp / "stderr"

    def invoke(self, job: Job) -> tuple[Child, bytes, bytes | None]:
        if job.out is not None:
            Path(job.out).unlink(missing_ok=True)
        child = Child(
            [sys.executable, "-c", CLI_BOOT, *job.argv],
            self.env,
            self.stdout_path,
            self.stderr_path,
        )
        stdout = self.stdout_path.read_bytes()
        written = Path(job.out).read_bytes() if job.out is not None else None
        return child, stdout, written

    def rerun(self, argv: list[str]) -> tuple[int, bytes]:
        """One more untimed call, for a check that needs a second format."""
        stdout_path = self.tmp / "rerun.stdout"
        child = Child([sys.executable, "-c", CLI_BOOT, *argv], self.env, stdout_path, self.stderr_path)
        return child.returncode, stdout_path.read_bytes()

    def setup_sample(self, *flags: str) -> Child:
        return Child(
            [sys.executable, *flags, "-c", IMPORT_ONLY],
            self.env,
            self.stdout_path,
            self.stderr_path,
        )


def tail_percentile(invocations: int) -> float:
    """Highest ladder percentile with TAIL_BEYOND invocations beyond it.

    Taken at the workload's smallest possible run, so every run of a
    workload reports the same percentile however many cycles it fits.
    """
    for pct in TAIL_LADDER:
        if invocations - math.ceil(pct / 100.0 * invocations) >= TAIL_BEYOND:
            return pct
    raise ValueError(f"{invocations} invocations leave no percentile with a tail")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]


def run_loop(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    rng = np.random.default_rng(seed)
    runner.setup_sample()  # warm the bytecode and page caches once
    tally = checks.Tally()
    walls: list[float] = []
    latencies: list[float] = []  # invocations whose output passed
    by_class: dict[str, list[float]] = {}
    setup: list[float] = []
    peak_mb = 0.0
    since_setup = 0
    cycle = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (cycle >= workload.min_cycles and elapsed >= seconds):
            break
        jobs = workload.cycle(rng, runner.tmp)
        # the cycle ends with a timed repeat of one class (rotating), which
        # must give the same bytes as its first run
        repeat = cycle % len(jobs)
        first_output = None
        for position, job in enumerate([*jobs, jobs[repeat]]):
            child, stdout, written = runner.invoke(job)
            tally.attempted += 1
            walls.append(child.wall)
            peak_mb = max(peak_mb, child.maxrss_mb)
            status, reason = checks.check(job, child.returncode, stdout, written, runner.rerun)
            if position == repeat:
                first_output = (stdout, written)
            elif position == len(jobs) and (stdout, written) != first_output:
                status, reason = checks.FAIL, "repeat gave different bytes"
            if tally.record(job, status, reason):
                latencies.append(child.wall)
                by_class.setdefault(job.cls, []).append(child.wall)
            since_setup += 1
            if since_setup == workload.setup_every:
                setup.append(runner.setup_sample().wall)
                since_setup = 0
        cycle += 1

    # a failed invocation misses every latency limit
    pct = tail_percentile(workload.min_cycles * (len(jobs) + 1))
    tail_value = percentile(latencies + [math.inf] * tally.failed, pct)
    if math.isinf(tail_value):
        tail_value = max(walls)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        # if every invocation failed, report them all (correct is false then)
        "cmd_p50_s": {"value": statistics.median(latencies or walls), "unit": "s"},
        "cmd_tail_s": {"value": tail_value, "unit": "s"},
        "cmds_per_s": {"value": tally.attempted / sum(walls), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "cycles": cycle,
        "invocations": tally.attempted,
        "tail_percentile": pct,
        "tail_samples": tally.attempted,
        "setup_samples": len(setup),
        "loop_s": sum(walls),
        "class_p50_s": {cls: round(statistics.median(v), 4) for cls, v in by_class.items()},
        "thread_env": THREAD_ENV,
        "known_defects": dict(sorted(tally.defects.items())),
        "failures": tally.failures,
    }
    return {"tally": tally, "metrics": metrics, "details": details}


def run_traced(workload: Workload, seed: int, seconds: float, runner: Runner) -> dict:
    """Per-layer numbers: import times, child CPU, then the in-process trace."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    tally = checks.Tally()

    numpy_s, spinorlab_s = [], []
    for _ in range(5):
        runner.setup_sample("-X", "importtime")
        numpy_us, total_us = parse_importtime(runner.stderr_path.read_text())
        numpy_s.append(numpy_us * 1e-6)
        spinorlab_s.append((total_us - numpy_us) * 1e-6)

    cpu = []
    for job in workload.cycle(rng, runner.tmp):
        child, stdout, written = runner.invoke(job)
        tally.attempted += 1
        cpu.append(child.cpu)
        status, reason = checks.check(job, child.returncode, stdout, written, runner.rerun)
        tally.record(job, status, reason)

    budget = max(1.0, seconds - (time.perf_counter() - started))
    result_path = runner.tmp / "trace.json"
    spans_path = ROOT / ".clibench_out" / f"spans-{workload.name}-seed{seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "tracing.py"),
        f"--workload={workload.name}",
        f"--seed={seed}",
        f"--seconds={budget}",
        f"--tmp={runner.tmp}",
        f"--result={result_path}",
        f"--spans={spans_path}",
    ]
    traced = Child(cmd, runner.env, runner.stdout_path, runner.stderr_path)
    if traced.returncode != 0:
        sys.stderr.write(runner.stderr_path.read_text())
        raise SystemExit(f"trace run failed with exit code {traced.returncode}")
    report = json.loads(result_path.read_text())
    tally.attempted += report["attempted"]
    tally.failed += report["failed"]
    tally.failures.update(report["failures"])
    tally.defects.update(report["known_defects"])

    values = {
        "import.numpy_s": statistics.median(numpy_s),
        "import.spinorlab_s": statistics.median(spinorlab_s),
        **report["per_layer"],
        "proc.cpu_s": statistics.median(cpu),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    per_invocation = values["import.numpy_s"] + values["import.spinorlab_s"] + values["trace.invocation_s"]
    shares = {"import": (values["import.numpy_s"] + values["import.spinorlab_s"]) / per_invocation}
    shares.update({layer: t / per_invocation for layer, t in report["layer_self_s"].items()})
    details = {
        "workload": workload.name,
        "seed": seed,
        "traced_passes": report["traced_passes"],
        "untraced_passes": report["untraced_passes"],
        "thread_env": THREAD_ENV,
        "known_defects": dict(sorted(tally.defects.items())),
        "failures": tally.failures,
        "share_of_invocation": {k: round(v, 4) for k, v in sorted(shares.items())},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {"tally": tally, "metrics": metrics, "details": details}


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative microseconds of numpy and of the whole spinorlab.cli import."""
    numpy_us = total_us = None
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.strip() == "numpy":
            numpy_us = float(cumulative)
        elif name.rstrip() == " spinorlab.cli":
            total_us = float(cumulative)
    if numpy_us is None or total_us is None:
        raise SystemExit("could not read numpy and spinorlab.cli from -X importtime")
    return numpy_us, total_us


# per-layer metric name -> unit; the names are fixed for later comparisons
PER_LAYER_UNITS = {
    "import.numpy_s": "s",
    "import.spinorlab_s": "s",
    "cli.build_parser_s": "s",
    "cli.main.self_s": "s",
    "cli.run_command.self_s": "s",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "dispersion.self_s": "s",
    "dispersion.modespec_calls": "count",
    "dispersion.kernel_calls": "count",
    "lattice.ring_spectrum.self_s": "s",
    "lattice.eigvalsh_s": "s",
    "lattice.eigvalsh_calls": "count",
    "lattice.eigvalsh_ops": "count",
    "sections.random_section_s": "s",
    "sections.random_section_calls": "count",
    "sections.residual_s": "s",
    "sections.fft_calls": "count",
    "winding.self_s": "s",
    "magma.analyze_s": "s",
    "magma.analyze_triples": "count",
    "magma.from_json_s": "s",
    "chains.run_chain_s": "s",
    "chains.events": "count",
    "verification.run_suite.self_s": "s",
    "proc.cpu_s": "s",
    "proc.blas_threads": "count",
    "trace.invocation_s": "s",
    "trace.overhead_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinorlab" / "cli.py").is_file():
        print(f"error: no spinorlab sources under {SRC}", file=sys.stderr)
        return 2

    (ROOT / ".clibench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".clibench_tmp"))
    try:
        runner = Runner(tmp)
        workload = WORKLOADS[args.workload]
        run = run_traced if args.trace else run_loop
        outcome = run(workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tally = outcome["tally"]
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps(outcome["details"]))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": outcome["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
