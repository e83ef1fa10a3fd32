"""Command line surface: generate, recognize, color, peo, verify, bench.

Every command prints structured JSON on stdout. Exit codes: 0 success,
1 negative decision (input is not Halin, a check failed), 2 usage or
I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from . import io as gio
from .coloring import color_halin, is_even_wheel
from .generators import GenSpec, generate
from .graph import Graph
from .oracles import (
    MAX_ORACLE_VERTICES,
    chromatic_number_bruteforce,
    is_chordal_bruteforce,
)
from .peo import chordal_completion, peo_halin, treewidth_from_peo
from .recognition import (
    HalinCertificate,
    certificate_from_outer,
    certify,
    check_certificate,
    recognize,
)

_BENCH_VARIANTS = ("halin", "halin-cubic", "necklace", "wheel")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halin",
        description="Halin graph pipeline: generate, recognize, color, eliminate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph in the JSON graph format")
    p.add_argument("--variant", required=True, choices=_BENCH_VARIANTS)
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("recognize", help="decide Halin-ness; exit 0 yes, 1 no")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--emit-certificate", dest="cert_out")

    p = sub.add_parser("color", help="optimal vertex coloring")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--certificate", dest="cert_in")
    p.add_argument("--dot", dest="dot_out", help="also write a DOT rendering")

    p = sub.add_parser("peo", help="perfect elimination ordering of a chordal completion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--certificate", dest="cert_in")
    p.add_argument("--emit-completion", dest="completion_out")

    p = sub.add_parser("verify", help="brute-force audits for small graphs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", required=True, choices=("coloring", "chordal", "peo"))

    p = sub.add_parser("bench", help="empirical scaling of coloring / elimination")
    p.add_argument("--algorithm", required=True, choices=("color", "peo"))
    p.add_argument("--variant", default="halin", choices=_BENCH_VARIANTS)
    p.add_argument("--sizes", default="", help="comma-separated vertex counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (gio.GraphFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "recognize":
        return _cmd_recognize(args)
    if args.command == "color":
        return _cmd_color(args)
    if args.command == "peo":
        return _cmd_peo(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_bench(args)


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(", ", ": ")))


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GenSpec(n=args.n, variant=args.variant.replace("-", "_"), seed=args.seed)
    g, outer = generate(spec)
    text = gio.dumps_graph(g, outer)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        _emit({"written": args.out, "n": g.n, "m": g.num_edges()})
    else:
        sys.stdout.write(text)
    return 0


def _load_with_certificate(
    infile: str, cert_in: str | None
) -> tuple[Graph, HalinCertificate | None, str | None]:
    """Graph plus a certificate, recognizing when none was supplied.

    A supplied certificate goes through ``check_certificate``: it is a
    MalformedCertificateError, a ValueError, when its outer set does not
    certify the graph or the document's other fields differ from the
    ones derived from it. An "outer" field in the graph file is used when
    it certifies, otherwise recognition runs from scratch.
    Returns (graph, certificate, reason).
    """
    g, outer = gio.load_graph(infile)
    if cert_in:
        return g, check_certificate(g, gio.load_certificate(cert_in)), None
    if outer is not None:
        cert = certify(g, outer)
        if cert is not None:
            return g, cert, None
    result = recognize(g)
    return g, result.certificate, result.reason


def _cmd_recognize(args: argparse.Namespace) -> int:
    g, _outer = gio.load_graph(args.infile)
    result = recognize(g)
    if not result.is_halin:
        _emit({"halin": False, "reason": result.reason})
        return 1
    cert = result.certificate
    if args.cert_out:
        gio.save_certificate(args.cert_out, cert)
    _emit({"halin": True, "outer": sorted(cert.outer)})
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    g, cert, reason = _load_with_certificate(args.infile, args.cert_in)
    if cert is None:
        _emit({"halin": False, "reason": reason})
        return 1
    colors = color_halin(g, cert)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as f:
            gio.write_dot(f, g, colors=colors, outer=set(cert.outer))
    _emit(
        {
            "colors": {str(v): c for v, c in sorted(colors.items())},
            "num_colors": len(set(colors.values())),
        }
    )
    return 0


def _cmd_peo(args: argparse.Namespace) -> int:
    g, cert, reason = _load_with_certificate(args.infile, args.cert_in)
    if cert is None:
        _emit({"halin": False, "reason": reason})
        return 1
    result = peo_halin(g, cert)
    if args.completion_out:
        gio.save_graph(args.completion_out, chordal_completion(g, result))
    _emit(
        {
            "order": result.order,
            "fill_edges": [list(e) for e in sorted(result.fill_edges)],
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g, _outer = gio.load_graph(args.infile)
    if args.mode == "chordal":
        ok = is_chordal_bruteforce(g)
        _emit({"mode": "chordal", "chordal": ok, "ok": ok})
        return 0 if ok else 1

    g2, cert, reason = _load_with_certificate(args.infile, None)
    if cert is None:
        _emit({"mode": args.mode, "halin": False, "reason": reason, "ok": False})
        return 1
    if args.mode == "coloring":
        colors = color_halin(g2, cert)
        used = len(set(colors.values()))
        expected = 4 if is_even_wheel(g2, cert) else 3
        chromatic = (
            chromatic_number_bruteforce(g2, 5) if g2.n <= MAX_ORACLE_VERTICES else None
        )
        ok = used == expected and (chromatic is None or chromatic == used)
        _emit(
            {
                "mode": "coloring",
                "num_colors": used,
                "expected": expected,
                "chromatic_number": chromatic,
                "ok": ok,
            }
        )
        return 0 if ok else 1
    # mode == "peo"
    result = peo_halin(g2, cert)
    completion = chordal_completion(g2, result)
    try:
        width = treewidth_from_peo(completion, result.order)  # runs verify_peo
    except ValueError:
        width = None
    valid = width is not None
    chordal = (
        is_chordal_bruteforce(completion) if g2.n <= MAX_ORACLE_VERTICES else None
    )
    ok = valid and width == 3 and (chordal is None or chordal)
    _emit(
        {
            "mode": "peo",
            "peo_valid": valid,
            "treewidth": width,
            "fill_count": len(result.fill_edges),
            "chordal": chordal,
            "ok": ok,
        }
    )
    return 0 if ok else 1


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_bench(
    algorithm: str,
    variant: str = "halin",
    sizes: list[int] | None = None,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Median runtimes over a size schedule plus the fitted log-log slope."""
    points = []
    for n in sizes or []:
        g, outer = generate(GenSpec(n=n, variant=variant.replace("-", "_"), seed=seed))
        cert = certificate_from_outer(g, outer)
        if algorithm == "color":
            runs = [_time_once(lambda: color_halin(g, cert)) for _ in range(repeats)]
        else:
            runs = [_time_once(lambda: peo_halin(g, cert)) for _ in range(repeats)]
        points.append({"n": g.n, "median_s": statistics.median(runs)})
    return {
        "algorithm": algorithm,
        "variant": variant,
        "points": points,
        "slope": fit_loglog_slope(points),
    }


def fit_loglog_slope(points: list[dict]) -> float | None:
    """Least-squares slope of log(time) against log(n); None under 2 points
    or when every point has the same n."""
    if len(points) < 2:
        return None
    xs = [math.log(p["n"]) for p in points]
    ys = [math.log(max(p["median_s"], 1e-9)) for p in points]
    mx = statistics.fmean(xs)
    my = statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    report = run_bench(args.algorithm, args.variant, sizes, args.seed, args.repeats)
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
