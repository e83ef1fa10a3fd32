"""The three workloads: what one operation does, and how its output is checked.

``run`` is the timed part of an operation and calls the package only
through the public API or ``python -m halin.cli``. ``check`` runs after
the timer stops; it judges the output with the benchmark's own checks,
adds the operation's exact counts to ``counts`` and returns an Outcome.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

from halin import (
    ColoringTrace,
    certificate_from_outer,
    chordal_completion,
    color_halin,
    dumps_graph,
    load_graph,
    peo_halin,
    recognize,
    verify_halin,
    verify_peo,
)
from halin.io import load_certificate, save_certificate

import checks
import inputs

REASONS = (
    "disconnected",
    "vertex_of_degree_below_3",
    "reduction_stuck",
    "certificate_verification_failed",
)
CLI_TIMEOUT_S = 120


@dataclass
class Outcome:
    failure: str | None = None   # why the operation failed, None on success
    incorrect: bool = False      # an output the program returned was wrong
    digest: str = ""


@dataclass(frozen=True)
class Op:
    item: inputs.Item
    command: str = ""            # cli-files only


def _count_rejection(counts, reason) -> None:
    name = reason if reason in REASONS else "other"
    counts[f"recognition.rejected.{name}"] += 1


def _halin_pipeline(item: inputs.Item, tracer, complete: bool):
    """recognize, then color and eliminate with its certificate, or with the
    certificate of the known outer set when recognize rejects, so the
    downstream work is the same either way."""
    g = item.graph
    res = tracer.call("recognition.recognize", recognize, g)
    cert = res.certificate
    if cert is None:
        cert = tracer.call("recognition.certificate_from_outer", certificate_from_outer,
                           g, set(item.outer))
    ctrace = [ColoringTrace()] if tracer.enabled else []
    colors = tracer.call("coloring.color_halin", color_halin, g, cert, *ctrace)
    peo = tracer.call("peo.peo_halin", peo_halin, g, cert)
    completed = valid = None
    if complete:
        completed = tracer.call("peo.chordal_completion", chordal_completion, g, peo)
        valid = tracer.call("peo.verify_peo", verify_peo, completed, peo.order)
    return res, colors, ctrace, peo, completed, valid


def _check_outer(item: inputs.Item, outer) -> str | None:
    if set(outer) == item.outer:
        return None
    # Small and symmetric Halin graphs can have a second decomposition.
    err = checks.halin_decomposition_error(item.graph, outer)
    return None if err is None else f"wrong outer set: {err}"


def _count_peo(counts, peo) -> None:
    for step in peo.trace:
        counts[f"peo.{step.rule.lower()}_steps"] += 1
    counts["peo.fill_edges"] += len(peo.fill_edges)


def _check_halin(item: inputs.Item, raw, counts) -> Outcome:
    res, colors, ctrace, peo, completed, valid = raw
    g = item.graph
    errors = []
    counts["recognition.halin_inputs"] += 1
    if res.is_halin:
        errors.append(_check_outer(item, res.certificate.outer))
    else:
        _count_rejection(counts, res.reason)
    errors.append(checks.coloring_error(g, colors, item.expected_colors))
    errors.append(checks.peo_error(g, peo.order, peo.fill_edges))
    if completed is not None:
        errors.append(checks.completion_error(g, peo.fill_edges, completed.edges()))
        if not valid:
            errors.append("verify_peo rejected the returned order")
    _count_peo(counts, peo)
    for t in ctrace:
        counts[f"coloring.case_{t.case}"] += 1
    errors = [e for e in errors if e]
    out = Outcome(digest=checks.digest(
        sorted(res.certificate.outer) if res.is_halin else res.reason,
        [colors[v] for v in range(g.n)], peo.order, sorted(peo.fill_edges)))
    if errors:
        out.failure, out.incorrect = "; ".join(errors), True
    elif not res.is_halin:
        counts["recognition.false_rejects"] += 1
        out.failure = f"false rejection: {res.reason}"
    return out


class LargeHalin:
    """Large graphs in generator labelling through the whole in-process
    pipeline: per-vertex cost dominates and there is no I/O."""

    name = "large-halin"
    make_inputs = staticmethod(inputs.large_halin)
    min_rounds = 2
    subprocesses = False

    def ops(self, items):
        return [Op(it) for it in items]

    def span_name(self, op: Op) -> str:
        return "op"

    def run(self, op: Op, tracer):
        return _halin_pipeline(op.item, tracer, complete=True)

    def check(self, op: Op, raw, counts) -> Outcome:
        return _check_halin(op.item, raw, counts)


class RelabelledMix(LargeHalin):
    """Small-to-medium graphs under random vertex permutations, plus
    non-Halin inputs: per-call overhead, arbitrary labellings and the
    rejection path. A false rejection fails the operation but still runs
    the downstream work from the known outer set."""

    name = "relabelled-mix"
    make_inputs = staticmethod(inputs.relabelled_mix)
    min_rounds = 3

    def run(self, op: Op, tracer):
        if op.item.outer is None:
            return tracer.call("recognition.recognize", recognize, op.item.graph)
        return _halin_pipeline(op.item, tracer, complete=False)

    def check(self, op: Op, raw, counts) -> Outcome:
        if op.item.outer is not None:
            return _check_halin(op.item, raw, counts)
        if raw.is_halin:
            counts["recognition.false_accepts"] += 1
            return Outcome("false acceptance of a non-Halin graph", True)
        _count_rejection(counts, raw.reason)
        return Outcome(digest=checks.digest(raw.reason))


class CliFiles:
    """One ``python -m halin.cli`` child at a time on files written at
    set-up: start-up, imports, load_graph and validation dominate."""

    name = "cli-files"
    make_inputs = staticmethod(inputs.cli_files)
    min_rounds = 3
    subprocesses = True
    # Per graph and round: recognize writes the certificate that
    # "color --certificate" then reads.
    commands = ("recognize", "color", "color-cert", "peo")

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def ops(self, items):
        return [Op(it, c) for it in items for c in self.commands]

    def span_name(self, op: Op) -> str:
        return "cli." + op.command.split("-")[0]

    def outputs(self, op: Op, replay: bool = False) -> tuple[str, str]:
        """(certificate path, completion path) written for this graph."""
        base = op.item.path[: -len(".json")] + (".replay" if replay else "")
        return base + ".cert.json", base + ".completion.json"

    def argv(self, op: Op) -> list[str]:
        cert, completion = self.outputs(op)
        it = op.item
        args = {
            "recognize": ["recognize", "--in", it.path, "--emit-certificate", cert],
            "color": ["color", "--in", it.outer_path],
            "color-cert": ["color", "--in", it.path, "--certificate", cert],
            "peo": ["peo", "--in", it.outer_path, "--emit-completion", completion],
        }[op.command]
        return [sys.executable, "-m", "halin.cli", *args]

    def inputs_read(self, op: Op) -> list[str]:
        argv = self.argv(op)
        return [argv[i + 1] for i, a in enumerate(argv) if a in ("--in", "--certificate")]

    def written(self, op: Op) -> list[str]:
        cert, completion = self.outputs(op)
        return {"recognize": [cert], "peo": [completion]}.get(op.command, [])

    def run(self, op: Op, tracer):
        return subprocess.run(self.argv(op), cwd=self.root, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)

    def check(self, op: Op, proc, counts) -> Outcome:
        if op.command == "recognize":
            counts["recognition.halin_inputs"] += 1
            if proc.returncode == 1:
                counts["recognition.false_rejects"] += 1
        if proc.returncode != 0:
            return Outcome(f"exit code {proc.returncode}: {proc.stderr.decode()[-200:]}")
        written = []
        for path in self.written(op):
            with open(path, "rb") as f:
                written.append(f.read())
        for path in self.inputs_read(op):
            counts["io.bytes_read"] += os.path.getsize(path)
        counts["io.bytes_written"] += sum(len(b) for b in written)
        err = self._output_error(op, json.loads(proc.stdout), written)
        out = Outcome(digest=checks.digest(proc.stdout, *written))
        if err:
            out.failure, out.incorrect = err, True
        return out

    @staticmethod
    def _output_error(op: Op, doc, written: list[bytes]) -> str | None:
        it = op.item
        if op.command == "recognize":
            return _check_outer(it, doc["outer"]) if doc["halin"] is True else "rejected"
        if op.command in ("color", "color-cert"):
            colors = {int(v): c for v, c in doc["colors"].items()}
            return checks.coloring_error(it.graph, colors, it.expected_colors)
        fills = [tuple(e) for e in doc["fill_edges"]]
        return (checks.peo_error(it.graph, doc["order"], fills)
                or checks.completion_error(it.graph, fills, json.loads(written[0])["edges"]))

    def replay(self, op: Op, tracer, counts) -> None:
        """Traced runs only: repeat in-process the public calls this CLI
        command makes, so its time splits into io, recognition, coloring
        and peo; what is left of the subprocess time is start-up and cli.self."""
        g, outer = tracer.call("io.load_graph", load_graph, op.item.outer_path
                               if op.command in ("color", "peo") else op.item.path)
        cert_path, completion_path = self.outputs(op, replay=True)
        if op.command == "recognize":
            res = tracer.call("recognition.recognize", recognize, g)
            if res.is_halin:
                tracer.call("io.save_certificate", save_certificate, cert_path, res.certificate)
            return
        if op.command == "color-cert":
            cert = tracer.call("io.load_certificate", load_certificate, cert_path)
            tracer.call("recognition.verify_halin", verify_halin, g, set(cert.outer))
        else:
            tracer.call("recognition.verify_halin", verify_halin, g, outer)
            cert = tracer.call("recognition.certificate_from_outer", certificate_from_outer, g, outer)
        if op.command == "peo":
            peo = tracer.call("peo.peo_halin", peo_halin, g, cert)
            completed = tracer.call("peo.chordal_completion", chordal_completion, g, peo)
            text = tracer.call("io.dumps_graph", dumps_graph, completed)
            with open(completion_path, "w", encoding="utf-8") as f:
                f.write(text)
            _count_peo(counts, peo)
        else:
            ctrace = ColoringTrace()
            tracer.call("coloring.color_halin", color_halin, g, cert, ctrace)
            counts[f"coloring.case_{ctrace.case}"] += 1


def all_workloads(root: str) -> dict:
    return {w.name: w for w in (LargeHalin(), RelabelledMix(), CliFiles(root))}
