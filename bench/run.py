"""Run one benchmark workload against the seqgames sources in ``src/``.

    python3 bench/run.py --workload finite-oracle --seed 1 --seconds 30 --trace 0

The workload runs in this process as a single-threaded closed loop: each
task starts after the previous one returned.  A pass sets the program up
afresh and runs every task once; passes repeat until ``--seconds`` have
elapsed.  Timings are calibrated (see calibration.py) and reported as
medians over passes: a task's latency is the median of its calibrated runs,
and set-up time is the median calibrated set-up.  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the JSON carries the
per-layer metrics of the median traced pass, whose spans are written to
``.bench_work/trace-<workload>.csv`` when the run ends.  Correctness checks
run after timing; any failure makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
MODULES = tracing.LAYERS + ("gallery",)
# Tasks between two calibrations take at least this long together.
CALIBRATION_INTERVAL_S = 0.1


def load_program() -> SimpleNamespace:
    """Import ``seqgames`` afresh from ``src/`` and return its modules."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "seqgames" or n.startswith("seqgames.")]:
        del sys.modules[name]
    package = importlib.import_module("seqgames")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise ImportError(f"seqgames was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"seqgames.{name}") for name in MODULES})


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); failed tasks are +inf."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_latencies(passes: list[list[float]]) -> list[float]:
    """Each task's median latency over the given passes."""
    return [statistics.median(runs) for runs in zip(*passes)]


def run_pass(tasks, tracer):
    """Run every task once; returns (results, calibrated latencies, failed
    flags, calibration rounds).  The calibration kernel runs before the
    first task and again whenever the tasks since its last run took
    ``CALIBRATION_INTERVAL_S``; each task's latency is scaled by the mean of
    the two rounds around it."""
    results, latencies, failed = [], [], []
    rounds = [calibration.calibrate()]
    pending, elapsed = [], 0.0
    for i, task in enumerate(tasks):
        start = time.perf_counter()
        try:
            if tracer is None:
                result = task.run()
            else:
                tracer.task = i
                result = tracer.call(tracing.TASK, task.run, (), {})
            ok = True
        except Exception as error:  # a task that raises counts as failed, the run goes on
            result, ok = error, False
        took = time.perf_counter() - start
        elapsed += took
        pending.append(took if ok else float("inf"))
        results.append(result)
        failed.append(not ok)
        if elapsed >= CALIBRATION_INTERVAL_S or i == len(tasks) - 1:
            rounds.append(calibration.calibrate())
            scale = 2 * calibration.REFERENCE_S / (rounds[-2] + rounds[-1])
            latencies.extend(x * scale for x in pending)
            pending, elapsed = [], 0.0
    return results, latencies, failed, rounds


def summarize(tasks, results) -> list:
    return [
        {"error": type(r).__name__} if isinstance(r, Exception) else [task.kind, task.summary(r)]
        for task, r in zip(tasks, results)
    ]


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


@dataclass
class Measurement:
    setups: list[float] = field(default_factory=list)  # calibrated
    latencies: dict[bool, list[list[float]]] = field(default_factory=lambda: {False: [], True: []})
    rounds: list[float] = field(default_factory=list)  # every calibration round
    layer_passes: list[dict[str, float]] = field(default_factory=list)
    last_spans: list = field(default_factory=list)
    bad_passes: list[list[bool]] = field(default_factory=list)  # per pass, per task
    first_tasks: list = field(default_factory=list)
    first_results: list = field(default_factory=list)
    first_summary: list = field(default_factory=list)


def measure(inputs, seconds: int, tracer) -> Measurement:
    """Run passes until ``seconds`` have elapsed; with a tracer, every other
    pass is traced and at least one traced pass runs."""
    m = Measurement()
    # Each pass is pinned to one of the CPUs this process may use, in turn,
    # two passes at a time so that traced and untraced passes see every CPU.
    # The vCPUs of a shared machine change speed each on its own; pinning
    # keeps the calibration rounds on the CPU that runs the tasks they scale.
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    while True:
        os.sched_setaffinity(0, {cpus[len(m.bad_passes) // 2 % len(cpus)]})
        # Every pass sets up afresh (import, then parse every input), so
        # setup_s is the median of set-ups spread across the whole run.  A
        # traced pass installs its wrappers before the parse, so set-up
        # parses are recorded as spans outside any task.
        traced = tracer is not None and len(m.bad_passes) % 2 == 1
        gc.collect()
        before = calibration.calibrate()
        start = time.perf_counter()
        prog = load_program()
        if traced:
            tracer.reset()
            tracer.patch(vars(prog), tracing.TARGETS)
        docs = [prog.dsl.parse(text) for text in inputs.texts]
        took = time.perf_counter() - start
        after = calibration.calibrate()
        m.setups.append(took * 2 * calibration.REFERENCE_S / (before + after))
        tasks = inputs.make_tasks(prog, docs)

        try:
            results, latencies, failed, rounds = run_pass(tasks, tracer if traced else None)
        finally:
            if traced:
                tracer.unpatch()
        m.latencies[traced].append(latencies)
        m.rounds.extend([before, after, *rounds])
        if traced:
            # Span times are scaled like the latencies, by the pass's
            # median calibration round.
            scale = calibration.REFERENCE_S / statistics.median(rounds)
            layer = tracing.pass_metrics(tracer)
            m.layer_passes.append({k: v * scale if k.endswith("_s") else v for k, v in layer.items()})
            m.last_spans = tracer.spans
        summary = summarize(tasks, results)
        if not m.first_tasks:
            m.first_tasks, m.first_results, m.first_summary = tasks, results, summary
        m.bad_passes.append([f or s != s0 for f, s, s0 in zip(failed, summary, m.first_summary)])
        if time.perf_counter() >= deadline and (tracer is None or m.layer_passes):
            return m


def check(tasks, results) -> dict[int, str]:
    """Correctness gate over the first pass: task index -> failure message."""
    failures = {}
    for i, (task, result) in enumerate(zip(tasks, results)):
        if isinstance(result, Exception):
            failures[i] = f"raised {type(result).__name__}: {result}"
            continue
        try:
            message = task.check(result)
        except Exception as error:  # a check that raises is a failed check
            message = f"check raised {type(error).__name__}: {error}"
        if message is not None:
            failures[i] = message
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqgames").is_dir():
        print(f"no seqgames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if args.trace else None
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    # Files the CLI tasks read and write live in a directory of this run's
    # own, removed when the run ends.
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=ROOT / ".bench_work") as work:
        inputs = workloads.WORKLOADS[args.workload](random.Random(args.seed), ROOT, Path(work))
        try:
            m = measure(inputs, args.seconds, tracer)
        except ImportError as error:
            print(f"cannot import seqgames from {ROOT / 'src'}: {error}", file=sys.stderr)
            return 2
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check(m.first_tasks, m.first_results)
    digest = hashlib.sha256(json.dumps(m.first_summary, sort_keys=True).encode("utf-8")).hexdigest()
    recorded = recorded_digest(args.workload, args.seed)
    digest_ok = recorded is None or recorded == digest
    for flags in m.bad_passes:
        for i in failures:
            flags[i] = True
        if not digest_ok:
            flags[:] = [True] * len(flags)
    attempted = sum(len(flags) for flags in m.bad_passes)
    failed = sum(sum(flags) for flags in m.bad_passes)

    print(f"workload {args.workload} seed {args.seed}: {len(m.first_tasks)} tasks, {len(m.bad_passes)} passes")
    for i, message in sorted(failures.items()):
        print(f"FAILED task {i} ({m.first_tasks[i].kind}): {message}")
    state = "not recorded for this seed" if recorded is None else ("matches" if digest_ok else f"MISMATCH, recorded {recorded}")
    print(f"digest {digest} ({state})")
    print(f"failed_ratio {failed / attempted:.4f} 1 ({failed} of {attempted} task runs)")

    print(f"calibration round: median {statistics.median(m.rounds) * 1e3:.3f} ms over {len(m.rounds)} rounds, "
          f"reference {calibration.REFERENCE_S * 1e3:g} ms")
    if tracer is None:
        typical = median_latencies(m.latencies[False])
        p90 = quantile(typical, 90)
        values = {
            "setup_s": statistics.median(m.setups),
            "run_s": sum(typical),
            "task_p50_ms": statistics.median(typical) * 1e3,
            "task_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        declared_metrics = declared["end_to_end"]
        beyond = sum(1 for x in typical if x > p90)
        print(f"task_p90_ms from {len(typical)} task samples (each the median of {len(m.latencies[False])} passes), {beyond} beyond it")
    else:
        values = {k: statistics.median(p[k] for p in m.layer_passes) for k in m.layer_passes[0]}
        values["trace.overhead_ratio"] = sum(median_latencies(m.latencies[True])) / sum(median_latencies(m.latencies[False]))
        declared_metrics = declared["per_layer"]
        spans_path = ROOT / ".bench_work" / f"trace-{args.workload}.csv"
        tracing.dump(spans_path, m.last_spans)
        shares = ", ".join(f"{name} {values[f'{name}.self_share']:.1%}" for name in tracing.LAYERS)
        print(f"traced self time by layer: {shares}")
        print(f"spans of the last traced pass written to {spans_path.relative_to(ROOT)}")
    metrics = {}
    for metric in declared_metrics:
        value = values[metric["name"]]
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
        metrics[metric["name"]] = {"value": value if math.isfinite(value) else None, "unit": metric["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
