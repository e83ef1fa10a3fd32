"""Measurement loop: set-up, warm-up, timed rounds, checks and metrics.

A run sets up the workload, then repeats whole rounds (one pass over every
operation of the workload) until --seconds have passed and at least
``min_rounds`` rounds are done. The set-up is repeated after each round,
outside the timed window, until it has run SETUPS times. Only ``run`` is
timed; checks, digests and, in traced cli-files runs, the in-process replay
happen after the timer stops.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

from inputs import inputs_digest
from spans import Tracer, loglog_slope, percentile, tail_level
from workloads import Outcome

SETUPS = 5            # set-up repetitions; setup_s is their median
STARTUP_PROBES = 5    # cli.startup_s is the median of this many probes

REJECT_METRICS = ("disconnected", "vertex_of_degree_below_3", "reduction_stuck",
                  "certificate_verification_failed", "other")
COUNT_METRICS = ("peo.r1_steps", "peo.r2_steps", "peo.fill_edges", "coloring.case_1",
                 "coloring.case_2", "coloring.case_3", "coloring.case_4",
                 "recognition.false_accepts", "io.bytes_read", "io.bytes_written")
TIME_METRICS = ("recognition.recognize", "recognition.verify_halin",
                "recognition.certificate_from_outer", "peo.peo_halin", "peo.chordal_completion",
                "peo.verify_peo", "coloring.color_halin", "io.load_graph", "io.dumps_graph",
                "io.load_certificate", "io.save_certificate")


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _setup(w, seed: int, tracer, work: str):
    """Build the workload's inputs once. Returns (items, seconds taken)."""
    tracer.op = -1
    gc.collect()
    # The inputs hold no reference cycles; with the collector off, set-up
    # time does not grow with the number of inputs already built.
    gc.disable()
    try:
        start = perf_counter()
        items = w.make_inputs(seed, tracer, os.path.join(work, w.name))
        return items, perf_counter() - start
    finally:
        gc.enable()


def _checked(w, op, raw, counts) -> Outcome:
    """The workload's check; output it cannot even read is a wrong output."""
    try:
        return w.check(op, raw, counts)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return Outcome(f"malformed output: {type(exc).__name__}: {exc}", True)


def run_workload(w, seed: int, seconds: float, traced: bool, work: str) -> dict:
    """One run; the result carries both metric sets, the counts of one round
    and, when traced, every span."""
    tracer = Tracer(traced)
    errors: list[str] = []
    items, secs = _setup(w, seed, tracer, work)
    setup_times, digest = [secs], inputs_digest(items)
    other = w.make_inputs(seed + 1, Tracer(False), os.path.join(work, w.name + "-other-seed"))
    if inputs_digest(other) == digest:
        errors.append("a second seed gave the same inputs")
    del other

    def set_up_again() -> None:
        """One more set-up, to time it and to check the seed fixes the inputs."""
        again, secs = _setup(w, seed, tracer, work)
        setup_times.append(secs)
        if inputs_digest(again) != digest:
            errors.append("the same seed gave different inputs")

    ops = w.ops(items)
    cli = w.subprocesses

    warm = min(ops, key=lambda op: op.item.graph.n)
    w.check(warm, w.run(warm, Tracer(False)), Counter())
    if traced and cli:
        for _ in range(STARTUP_PROBES):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import halin.cli"], cwd=w.root, env=w.env,
                           check=True, capture_output=True)
            tracer.record("cli.startup", start, perf_counter())
    # The inputs stay alive for the whole run; keep the collector from
    # rescanning them, so an operation's collection cost does not depend on
    # how many other inputs the benchmark holds.
    gc.collect()
    gc.freeze()

    latencies, op_of = [], []
    # Each distinct operation is one attempt however many rounds run, and
    # fails if it failed in any round, so both counts are fixed by the seed.
    failed_ops: dict = {}
    incorrect_ops: set = set()
    first_digest: dict = {}
    round_counts: list[Counter] = []
    began = perf_counter()
    while len(round_counts) < w.min_rounds or perf_counter() - began < seconds:
        counts: Counter = Counter()
        for op in ops:
            tracer.op = len(latencies)
            start = perf_counter()
            try:
                raw, error = w.run(op, tracer), None
            except Exception as exc:  # an exception fails the operation, not the run
                raw, error = None, f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            tracer.record(w.span_name(op), start, end)
            latencies.append(end - start)
            op_of.append(op)
            out = Outcome(error) if error else _checked(w, op, raw, counts)
            if traced and cli:
                try:
                    w.replay(op, tracer, counts)
                except Exception as exc:  # the in-process calls failed where the child did not
                    out.failure, out.incorrect = f"replay {type(exc).__name__}: {exc}", True
            key = (op.item.key, op.command)
            if out.digest and first_digest.setdefault(key, out.digest) != out.digest:
                out.failure, out.incorrect = "output differs from the first round", True
            if out.failure:
                failed_ops.setdefault(key, out.failure)
                if out.incorrect:
                    incorrect_ops.add(key)
        round_counts.append(counts)
        # Set-ups between rounds, outside the timed window, meet the machine
        # at different moments rather than all in the same second.
        if len(setup_times) < SETUPS:
            raw = out = None  # the last output is not held through the set-up
            paused = perf_counter()
            set_up_again()
            began += perf_counter() - paused
    while len(setup_times) < SETUPS:
        set_up_again()
    if any(c != round_counts[0] for c in round_counts):
        errors.append("exact counts differ between rounds")

    attempted = len(ops)
    failed = len(failed_ops)
    failures = Counter(failed_ops.values())
    level = tail_level(w.min_rounds * len(ops))
    e2e = {
        "vertices_per_s": (sum(op.item.graph.n for op in op_of) / sum(latencies), "1/s"),
        "op_p50_s": (percentile(latencies, 50), "s"),
        "op_tail_s": (percentile(latencies, level), "s"),
        "peak_rss_mb": (_peak_rss_mb(children=cli), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    result = {
        "workload": w.name, "seed": seed, "traced": traced, "rounds": len(round_counts),
        "samples": len(latencies), "attempted": attempted, "failed": failed,
        "incorrect": len(incorrect_ops),
        "fail_share": failed / attempted, "tail_percentile": level,
        "setup_times": setup_times, "self_check_errors": errors,
        "failures": dict(failures.most_common(5)),
        "counts_per_round": dict(sorted(round_counts[0].items())),
        "end_to_end": e2e,
        "latencies": [(op.item.key, op.command, t) for op, t in zip(op_of, latencies)],
    }
    if traced:
        result["per_layer"] = _per_layer(tracer, op_of, round_counts[0])
        result["spans"] = tracer.to_json()
    return result


def _per_layer(tracer, op_of, counts) -> dict:
    """Layer times are busy seconds per operation; counts are per round."""
    busy = tracer.busy()
    n_ops = len(op_of)
    m = {f"{name}_s": (busy.get(name, 0.0) / n_ops, "s") for name in TIME_METRICS}
    for fn in ("recognize", "peo_halin"):
        layer = "recognition" if fn == "recognize" else "peo"
        per_input: dict = {}
        for op_id, secs in tracer.by_name(f"{layer}.{fn}"):
            item = op_of[op_id].item
            if item.outer is not None:
                per_input.setdefault((item.kind, item.graph.n, item.key), []).append(secs)
        points = [(kind, n, statistics.median(v)) for (kind, n, _), v in per_input.items()]
        m[f"{layer}.{fn}_slope"] = (loglog_slope(points), "1")
    halin_inputs = counts.get("recognition.halin_inputs", 0)
    share = counts.get("recognition.false_rejects", 0) / halin_inputs if halin_inputs else 0.0
    m["recognition.false_reject_share"] = (share, "share")
    for reason in REJECT_METRICS:
        name = f"recognition.rejected.{reason}"
        m[name] = (counts.get(name, 0), "count")
    for name in COUNT_METRICS:
        m[name] = (counts.get(name, 0), "bytes" if name.startswith("io.") else "count")

    startup = [d for _, d in tracer.by_name("cli.startup")]
    m["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    cli_total = 0.0
    for cmd in ("recognize", "color", "peo"):
        cli_total += busy.get(f"cli.{cmd}", 0.0)
        m[f"cli.{cmd}_s"] = (busy.get(f"cli.{cmd}", 0.0) / n_ops, "s")
    in_process = sum(busy.get(name, 0.0) for name in TIME_METRICS)
    self_s = (cli_total - in_process) / n_ops - m["cli.startup_s"][0] if cli_total else 0.0
    m["cli.self_s"] = (self_s, "s")
    m["generators.generate_s"] = (busy.get("generators.generate", 0.0) / SETUPS, "s")
    return dict(sorted(m.items()))


