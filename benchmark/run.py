#!/usr/bin/env python3
"""Benchmark of the halin package, end to end and per layer.

One workload run, from the root of a checkout:

    python3 benchmark/run.py --workload large-halin --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) with its unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``. Every workload, untraced
and traced, with the tracing overhead and the machine it ran on:

    python3 benchmark/run.py --all --seed 1 --seconds 20

writes ``.bench_work/report.json``. The package is imported from ``src/``
of the checkout and run there as ``python -m halin.cli``; all files the
benchmark writes go to ``.bench_work/``. Workloads are closed loops with one
client in one process; cli-files runs one child process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Per-layer metric -> (end-to-end metric it should move, workloads where it
# does). Written into the --all report; the metric list in BENCHMARK.json
# follows this table.
LAYERS = {
    "recognition.recognize_s": ("vertices_per_s, op_p50_s", "large-halin, relabelled-mix"),
    "recognition.recognize_slope": ("vertices_per_s, op_p50_s", "large-halin, relabelled-mix"),
    "recognition.verify_halin_s": ("op_p50_s", "cli-files"),
    "recognition.certificate_from_outer_s": ("op_p50_s", "cli-files, relabelled-mix"),
    "recognition.false_reject_share": ("fail_share", "relabelled-mix"),
    "recognition.false_accepts": ("fail_share", "relabelled-mix"),
    "recognition.rejected.<reason>": ("fail_share", "relabelled-mix"),
    "peo.peo_halin_s": ("vertices_per_s", "large-halin"),
    "peo.peo_halin_slope": ("vertices_per_s", "large-halin"),
    "peo.chordal_completion_s": ("vertices_per_s", "large-halin"),
    "peo.verify_peo_s": ("vertices_per_s", "large-halin"),
    "peo.r1_steps, peo.r2_steps, peo.fill_edges": ("vertices_per_s", "large-halin"),
    "coloring.color_halin_s, coloring.case_1..4": ("none expected (about 3% of the pipeline)", "all"),
    "io.*": ("op_p50_s", "cli-files"),
    "cli.*": ("op_p50_s", "cli-files"),
    "generators.generate_s": ("setup_s", "all"),
}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _report_lines(result: dict, metrics: dict) -> list[str]:
    r = result
    lines = [f"workload {r['workload']} seed {r['seed']} trace {int(r['traced'])}: "
             f"{r['rounds']} rounds of {r['attempted']} operations, {r['samples']} samples"]
    lines += [f"  {name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    level = r["tail_percentile"]
    label = "the maximum (too few samples for a percentile of 75 or more with 10 beyond it)" \
        if level == 100 else f"p{level:.4g}"
    lines.append(f"  op_tail_s is {label} of {r['samples']} samples")
    lines.append(f"  fail_share {r['fail_share']!r} share ({r['failed']} of {r['attempted']})")
    for reason, n in r["failures"].items():
        lines.append(f"  failure x{n}: {reason}")
    for err in r["self_check_errors"]:
        lines.append(f"  self-check failed: {err}")
    return lines


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg_at_start": os.getloadavg()}


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in its own process."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    report = {"machine": _machine(), "seed": seed, "seconds": seconds, "layers": LAYERS,
              "workloads": {}}
    ok = True
    for name in why:
        runs = {}
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            with open(_result_path(name, seed, trace), encoding="utf-8") as f:
                runs[trace] = json.load(f)
        plain, traced = runs[0]["end_to_end"], runs[1]["end_to_end"]
        overhead = {k: traced[k][0] - plain[k][0] for k in ("op_p50_s", "vertices_per_s")}
        same = runs[0]["counts_per_round"].items() & runs[1]["counts_per_round"].items()
        shared = runs[0]["counts_per_round"].keys() & runs[1]["counts_per_round"].keys()
        counts_repeat = len(same) == len(shared)
        ok &= counts_repeat and not runs[0]["self_check_errors"] and not runs[1]["self_check_errors"]
        report["workloads"][name] = {
            "why": why[name], "end_to_end": plain, "per_layer": runs[1]["per_layer"],
            "tracing_overhead_traced_minus_untraced": overhead,
            "counts_repeat_across_runs": counts_repeat,
            "attempted": runs[0]["attempted"], "failed": runs[0]["failed"],
            "fail_share": runs[0]["fail_share"], "tail_percentile": runs[0]["tail_percentile"],
        }
        print(f"tracing overhead on {name}: op_p50_s {overhead['op_p50_s']:+.6f} s, "
              f"vertices_per_s {overhead['vertices_per_s']:+.1f} 1/s; "
              f"counts repeat across runs: {counts_repeat}")
    path = os.path.join(WORK, "report.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(f"report written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def _result_path(name: str, seed: int, trace: int) -> str:
    return os.path.join(WORK, f"{name}-seed{seed}-trace{trace}.json")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "halin", "cli.py")):
        return _fail(f"no halin package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import halin

    if os.path.dirname(os.path.dirname(os.path.abspath(halin.__file__))) != SRC:
        return _fail(f"imported halin from {halin.__file__}, not from {SRC}")
    from measure import run_workload
    from workloads import all_workloads

    os.makedirs(WORK, exist_ok=True)
    if args.all:
        return run_all(args.seed, int(args.seconds))
    workloads = all_workloads(ROOT)
    if args.workload not in workloads:
        return _fail(f"--workload must be one of {', '.join(workloads)}")

    result = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace),
                          WORK)
    with open(_result_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as f:
        json.dump(result, f)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print("\n".join(_report_lines(result, metrics)))
    print(json.dumps({
        "correct": result["incorrect"] == 0 and not result["self_check_errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
