"""Runs the benchmark's workloads and checks the benchmark itself.

    python3 bench/suite.py [--seeds 1,2,3] [--checks]

Runs every workload of BENCHMARK.json for its run_seconds, once per seed.
Each run of bench/run.py is its own process, so peak memory is per
workload. For every workload this prints each end-to-end metric by name
and unit with its median, quartiles and spread (interquartile range over
median) across the seeds, plus operations attempted and failed, and flags
a spread above a third of the metric's bound in BENCHMARK.json.

With --checks it also, on the first seed of each workload:
- runs the workload a second time and compares the artifact digests
  (audio.ckpt, latent.ckpt, direction.csv) of the two processes;
- makes two traced runs, checks that the exact per-request counts
  (autodiff.nodes, calls of every traced name, bytes read and written) are
  equal between them,
  prints the per-layer table and the tracing overhead (traced over
  untraced latency_p50_ms and work_rate_per_s).

A summary is written to bench/out/suite-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py process; returns its detail record plus the
    printed result line under 'result'."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    detail = json.loads((OUT_DIR / f"{workload}-s{seed}-t{trace}.json")
                        .read_text())
    detail["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    `statistics.quantiles(values, n=4)` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def digest_mismatches(a, b, path: str = "") -> list[str]:
    """Leaves that both records hold and that differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in a.keys() & b.keys():
            out += digest_mismatches(a[key], b[key], f"{path}/{key}")
        return out
    return [] if a == b else [f"{path}: {a} != {b}"]


def count_mismatches(a: dict, b: dict) -> dict:
    """Exact per-request counts (autodiff.nodes, calls, bytes) that differ
    between two traced runs, over the requests both completed."""
    out = {}
    for request in a.keys() & b.keys():
        for name in a[request].keys() | b[request].keys():
            x, y = a[request].get(name), b[request].get(name)
            if x != y:
                out[f"request {request} {name}"] = (x, y)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--checks", action="store_true")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, seconds, 0) for s in seeds]
        first = runs[0]
        env = first["env"]
        print(f"\n== {workload}  seeds={seeds}  nproc={env['nproc']} "
              f"blas={env['blas']['name']} {env['blas']['version']} "
              f"threads={env['blas']['threads']} numpy={env['numpy']} "
              f"python={env['python']} commit={env['git_commit']}")
        ws: dict = {"runs": [{"seed": s, "result": r["result"],
                              "named": r["detail"]["named"],
                              "n": r["detail"]["n"],
                              "tail_percentile": r["detail"]["tail_percentile"]}
                             for s, r in zip(seeds, runs)],
                     "metrics": {}}
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"  ops_attempted={attempted} ops_failed={failed}")
        if "pipelines" in first["detail"]:
            pipelines = sum(r["detail"]["pipelines"] for r in runs)
            bad = sum(r["detail"]["pipelines_failed"] for r in runs)
            below = sum(len(r["detail"]["zero_shot_below_min"]) for r in runs)
            print(f"  pipelines={pipelines} failed={bad} "
                  f"(rate {bad / pipelines:.3f}), zero-shot below 0.9: "
                  f"{below} (rate {below / pipelines:.3f})")
            ws.update(pipelines=pipelines, pipelines_failed=bad,
                      zero_shot_below_min=below)
        if failed:
            problems.append(f"{workload}: {failed} operations failed: "
                            f"{[f for r in runs for f in r['failures']][:3]}")
        for name, bound in bounds.items():
            unit = first["result"]["metrics"][name]["unit"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            flag = ""
            if sp > bound / 3:
                flag = f"  SPREAD > bound/3 ({bound / 3:.3f})"
                problems.append(f"{workload}.{name}: spread {sp:.3f}")
            print(f"  {name:20s} median {med:12.4f} {unit:5s} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {sp:.3f}{flag}")
            ws["metrics"][name] = {"unit": unit, "median": med, "q1": q1,
                                   "q3": q3, "spread": sp, "values": values}
        for name, (value, unit) in first["detail"]["named"].items():
            print(f"  {name:20s} {value:12.4f} {unit}  (seed {seeds[0]}, "
                  f"n={first['detail']['n']}, "
                  f"tail p{first['detail']['tail_percentile']:g})")

        if args.checks:
            again = run(workload, seeds[0], seconds, 0)
            bad = digest_mismatches(first["digests"], again["digests"])
            print(f"  determinism across processes: "
                  f"{'OK' if not bad else bad[:3]}")
            if bad:
                problems.append(f"{workload}: digests differ: {bad[:3]}")
            traced = [run(workload, seeds[0], seconds, 1) for _ in range(2)]
            diff = count_mismatches(traced[0]["request_counts"],
                                    traced[1]["request_counts"])
            common = len(traced[0]["request_counts"].keys()
                         & traced[1]["request_counts"].keys())
            print(f"  exact counts equal in two traced runs ({common} common "
                  f"requests): {'OK' if not diff else list(diff.items())[:5]}")
            if diff:
                problems.append(f"{workload}: traced counts differ: {diff}")
            overhead = {m: traced[0]["end_to_end"][m] / first["end_to_end"][m]
                        for m in ("latency_p50_ms", "work_rate_per_s")}
            print(f"  tracing overhead: latency x{overhead['latency_p50_ms']:.2f}, "
                  f"work rate x{overhead['work_rate_per_s']:.2f}")
            print("  per-layer (traced, per operation, largest self time first):")
            ops = max(traced[0]["traced_ops"], 1)
            for row in traced[0]["layers"][:25]:
                print(f"    {row['name']:40s} calls {row['calls'] / ops:12.1f} "
                      f"self {1000 * row['self_s'] / ops:10.3f} ms"
                      + (f" bytes {row['bytes'] / ops:12.0f}" if row["bytes"] else ""))
            ws["checks"] = {"digest_mismatches": bad, "count_mismatches": diff,
                            "tracing_overhead": overhead,
                            "per_layer": traced[0]["per_layer"]}
        summary["workloads"][workload] = ws

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary written to {path.relative_to(ROOT)}")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
