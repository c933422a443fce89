"""Run every workload over several seeds and summarize the figures.

    python3 bench/collect.py --seeds 1-10
    python3 bench/collect.py --seeds 1-10 --trace 1 --out bench/results/BENCH_1.json

Each run is a separate ``bench/run.py`` process, one after another.  For
each end-to-end metric the table shows the median over seeds, the spread
(distance between the first and third quartile, as a share of the median)
and the bound from ``BENCHMARK.json``.  ``--out`` writes every run's values,
digests, the interpreter version and the CPU count to a results file; an
existing file keeps the section (``end_to_end`` or ``per_layer``) this call
does not write.  ``--record-digests`` stores the digests in
``bench/digests.json`` so later runs compare against them.  The exit code is
1 if any run failed or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False, "metrics": {}}
    result["exit"] = done.returncode
    result["digest"] = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    result["samples"] = next((line for line in lines if line.startswith("task_p90_ms from")), None)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--note", help="free text stored in the results file")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    kind = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in declared[kind]}
    units = {m["name"]: m["unit"] for m in declared[kind]}
    section = {}
    ok = True
    seconds = declared["run_seconds"]
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {seed: run_once(workload, seed, seconds, args.trace) for seed in args.seeds}
        ok &= all(r["exit"] == 0 and r["correct"] for r in runs.values())
        summary = {}
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs.values())}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs.values() if name in r["metrics"]]
            if len(values) != len(runs):
                ok = False
                continue
            median, q1, q3, share = spread(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share, "values": values}
            flag = ""
            if bound is not None:
                flag = f"bound {bound}" + ("" if share <= bound else "  EXCEEDED")
                ok &= share <= bound
            print(f"  {name:45s} median {median:12.6g} {units[name]:5s}  spread {share:7.2%}  {flag}")
        attempted = sum(r.get("attempted", 0) for r in runs.values())
        failed = sum(r.get("failed", 0) for r in runs.values())
        print(f"  {'failed_ratio':45s} {failed / attempted if attempted else 1.0:19.6g} 1      ({failed} of {attempted} task runs)")
        if args.trace == 0:
            print(f"  {next(iter(runs.values()))['samples']}")
        section[workload] = {
            "metrics": summary,
            "digests": {str(seed): r["digest"] for seed, r in runs.items() if r["correct"]},
            "attempted": attempted,
            "failed": failed,
        }
    if args.out:
        out = Path(args.out)
        report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        report.update(python=platform.python_version(), nproc=len(os.sched_getaffinity(0)), machine=platform.machine())
        if args.note:
            report["note"] = args.note
        report[kind] = {"seconds": seconds, "seeds": args.seeds, "workloads": section}
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.record_digests:
        path = BENCH / "digests.json"
        table = json.loads(path.read_text(encoding="utf-8"))
        for workload, entry in section.items():
            table.setdefault(workload, {}).update({s: d for s, d in entry["digests"].items() if d})
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
