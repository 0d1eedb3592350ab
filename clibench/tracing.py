"""In-process traced run: per-layer time and work counts for one workload.

Run by ``run.py --trace 1``; not meant to be called by hand.  It imports
spinorlab once and calls ``spinorlab.cli.main(argv)`` for the same seeded
command cycles as the end-to-end loop, alternating untraced and traced
passes.  The program is not edited: a traced pass swaps every public
function of each module in ``src/spinorlab`` for a timing wrapper, in every
namespace that holds it (``cli`` binds kernels with ``from .x import y``, so
patching only the defining module would miss those calls), plus
``ModeSpec.__init__`` and the numpy calls that carry the heavy kernels:
``numpy.linalg.eigvalsh`` and ``numpy.fft.fft``/``ifft``, named after the
layer that called them.

Spans carry name, start, end and parent index and are kept in memory; the
spans of the last traced pass are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.  Metrics
are per invocation: totals of one pass divided by its invocation count,
then the median over traced passes.  trace.overhead_s is the traced minus
the untraced median of in-process time per invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("cli", "dispersion", "lattice", "sections", "winding", "magma", "chains", "verification")
KERNELS = ("dispersion_semiclassical", "dispersion_exact", "degeneracy_gap")
RESIDUALS = ("intertwining_residual", "commutation_residual", "density_residual")
MIN_TRACED_PASSES = 3


class Tracer:
    """Span recorder plus the table of bindings it swaps in and out."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[list] = []  # [span index, child time, name]
        self.open: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.total: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name, fn, count=None, by_caller=False):
        """Timing wrapper; count is (counter key, function of the call's args)."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            span = name
            if by_caller:
                layer = stack[-1][2].split(".", 1)[0] if stack else "numpy"
                span = f"{layer}.{name}"
            if count is not None:
                tracer.counts[count[0]] += count[1](args)
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0, span]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            tracer.open[span] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.open[span] -= 1
                duration = end - start
                tracer.spans[index] = (span, start, end, parent)
                tracer.self_time[span] += duration - frame[1]
                if tracer.open[span] == 0:
                    tracer.total[span] += duration
                tracer.calls[span] += 1
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    def bind(self, owner, attr, wrapper) -> None:
        self.bindings.append((owner, attr, getattr(owner, attr), wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)


def build_tracer() -> Tracer:
    import spinorlab.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    modules = {name: importlib.import_module(f"spinorlab.{name}") for name in LAYERS}
    counters = {
        "magma.analyze": ("magma.analyze_triples", lambda a: len(a[0].carrier) ** 3),
        "chains.run_chain": ("chains.events", lambda a: len(a[1])),
    }
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = tracer.wrap(name, obj, counters.get(name))
    # every namespace that holds one of the functions, the package included
    holders = [m for key, m in sys.modules.items() if key == "spinorlab" or key.startswith("spinorlab.")]
    for module in holders:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                tracer.bind(module, attr, wrappers[id(obj)])

    mode_spec = modules["dispersion"].ModeSpec
    tracer.bind(mode_spec, "__init__", tracer.wrap("dispersion.ModeSpec", mode_spec.__init__))
    eig_ops = ("lattice.eigvalsh_ops", lambda a: np.shape(a[0])[-1] ** 3)
    tracer.bind(np.linalg, "eigvalsh", tracer.wrap("eigvalsh", np.linalg.eigvalsh, eig_ops, True))
    tracer.bind(np.fft, "fft", tracer.wrap("fft", np.fft.fft, None, True))
    tracer.bind(np.fft, "ifft", tracer.wrap("fft", np.fft.ifft, None, True))
    return tracer


def per_layer(tracer: Tracer, invocations: int, emitted: int) -> tuple[dict, dict]:
    total, self_time, calls = tracer.total, tracer.self_time, tracer.calls

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_time.items() if k.split(".", 1)[0] == layer)

    values = {
        "cli.build_parser_s": total["cli.build_parser"],
        "cli.main.self_s": self_time["cli.main"],
        "cli.run_command.self_s": self_time["cli.run_command"],
        "cli.emit_s": total["cli.emit"],
        "cli.emit_bytes": emitted,
        "dispersion.self_s": layer_self("dispersion"),
        "dispersion.modespec_calls": calls["dispersion.ModeSpec"],
        "dispersion.kernel_calls": sum(calls[f"dispersion.{k}"] for k in KERNELS),
        "lattice.ring_spectrum.self_s": self_time["lattice.ring_spectrum"],
        "lattice.eigvalsh_s": total["lattice.eigvalsh"],
        "lattice.eigvalsh_calls": calls["lattice.eigvalsh"],
        "lattice.eigvalsh_ops": tracer.counts["lattice.eigvalsh_ops"],
        "sections.random_section_s": total["sections.random_band_limited_section"],
        "sections.random_section_calls": calls["sections.random_band_limited_section"],
        "sections.residual_s": sum(total[f"sections.{r}"] for r in RESIDUALS),
        "sections.fft_calls": calls["sections.fft"],
        "winding.self_s": layer_self("winding"),
        "magma.analyze_s": total["magma.analyze"],
        "magma.analyze_triples": tracer.counts["magma.analyze_triples"],
        "magma.from_json_s": total["magma.from_json"],
        "chains.run_chain_s": total["chains.run_chain"],
        "chains.events": tracer.counts["chains.events"],
        "verification.run_suite.self_s": layer_self("verification"),
        "trace.invocation_s": total["cli.main"],
    }
    layers = {layer: layer_self(layer) for layer in LAYERS}
    return (
        {k: v / invocations for k, v in values.items()},
        {k: v / invocations for k, v in layers.items()},
    )


def call(cli, argv) -> tuple[int, bytes, float]:
    """One in-process call; returns (exit code, stdout bytes, time inside main)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        returncode = cli.main(argv)
        inside = time.perf_counter() - start
    return returncode, stdout.getvalue().encode("utf-8"), inside


def run_pass(cli, jobs, tally, tracer=None) -> tuple[float, int]:
    """Run one cycle in process; returns (time inside main, bytes emitted).

    With a tracer, it is installed around each call only, so the checks
    (and any untimed rerun they make) stay outside the spans.
    """

    def rerun(argv):
        return call(cli, argv)[:2]

    inside = 0.0
    emitted = 0
    for job in jobs:
        if job.out is not None:
            Path(job.out).unlink(missing_ok=True)
        if tracer is not None:
            tracer.install()
        try:
            returncode, data, seconds = call(cli, job.argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        inside += seconds
        written = Path(job.out).read_bytes() if job.out is not None else None
        emitted += len(data) + len(written or b"")
        tally.attempted += 1
        tally.record(job, *checks.check(job, returncode, data, written, rerun))
    return inside, emitted


def write_spans(spans, path: Path) -> None:
    with open(path, "w") as out:
        for name, start, end, parent in spans:
            out.write(f'{{"name":"{name}","start":{start:.9f},"end":{end:.9f},"parent":{parent}}}\n')


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import spinorlab.cli as cli

    tracer = build_tracer()
    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    tally = checks.Tally()

    run_pass(cli, workload.cycle(rng, args.tmp), tally)  # warm-up, not measured
    untraced, traced, layer_rows, shares = [], [], [], []
    last_spans = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < args.seconds:
        jobs = workload.cycle(rng, args.tmp)
        if len(untraced) == len(traced):
            inside, _ = run_pass(cli, jobs, tally)
            untraced.append(inside / len(jobs))
            continue
        tracer.reset()
        inside, emitted = run_pass(cli, jobs, tally, tracer)
        traced.append(inside / len(jobs))
        values, layers = per_layer(tracer, len(jobs), emitted)
        layer_rows.append(values)
        shares.append(layers)
        last_spans = tracer.spans

    write_spans(last_spans, args.spans)
    result = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    result["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    result["proc.blas_threads"] = thread_count()
    report = {
        "per_layer": result,
        "layer_self_s": {k: statistics.median(row[k] for row in shares) for k in shares[0]},
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "known_defects": dict(tally.defects),
    }
    args.result.write_text(json.dumps(report))
    return 0


def thread_count() -> int:
    """OS threads in this process after its numpy work (1 when BLAS is pinned)."""
    task = Path("/proc/self/task")
    if task.is_dir():
        return len(list(task.iterdir()))
    import threading

    return threading.active_count()


if __name__ == "__main__":
    sys.exit(main())
