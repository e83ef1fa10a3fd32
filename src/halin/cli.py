"""Command line surface: generate, recognize, color, peo, verify.

Every command prints structured JSON on stdout. Exit codes: 0 success,
1 negative decision (input is not Halin, a check failed), 2 usage or
I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    certify,
    check_certificate,
    recognize,
)

_VARIANTS = ("halin", "halin-cubic", "necklace", "wheel")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halin",
        description="Halin graph pipeline: generate, recognize, color, eliminate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph in the JSON graph format")
    p.add_argument("--variant", required=True, choices=_VARIANTS)
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
    return _cmd_verify(args)


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


def _certificate(
    g: Graph, outer: set[int] | None, cert_in: str | None
) -> tuple[HalinCertificate | None, str | None]:
    """A certificate for the loaded graph, recognizing when none was supplied.

    A supplied certificate file goes through ``check_certificate``: it is
    a MalformedCertificateError, a ValueError, when its outer set does not
    certify the graph or the document's other fields differ from the
    ones derived from it. ``outer``, the graph file's "outer" field, is
    used when it certifies, otherwise recognition runs from scratch.
    Returns (certificate, reason).
    """
    if cert_in:
        return check_certificate(g, gio.load_certificate(cert_in)), None
    if outer is not None:
        cert = certify(g, outer)
        if cert is not None:
            return cert, None
    result = recognize(g)
    return result.certificate, result.reason


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
    g, outer = gio.load_graph(args.infile)
    cert, reason = _certificate(g, outer, args.cert_in)
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
    g, outer = gio.load_graph(args.infile)
    cert, reason = _certificate(g, outer, args.cert_in)
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
    g, outer = gio.load_graph(args.infile)
    if args.mode == "chordal":
        ok = is_chordal_bruteforce(g)
        _emit({"mode": "chordal", "chordal": ok, "ok": ok})
        return 0 if ok else 1

    cert, reason = _certificate(g, outer, None)
    if cert is None:
        _emit({"mode": args.mode, "halin": False, "reason": reason, "ok": False})
        return 1
    if args.mode == "coloring":
        colors = color_halin(g, cert)
        used = len(set(colors.values()))
        expected = 4 if is_even_wheel(g, cert) else 3
        chromatic = (
            chromatic_number_bruteforce(g, 5) if g.n <= MAX_ORACLE_VERTICES else None
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
    result = peo_halin(g, cert)
    completion = chordal_completion(g, result)
    try:
        width = treewidth_from_peo(completion, result.order)  # runs verify_peo
    except ValueError:
        width = None
    valid = width is not None
    chordal = (
        is_chordal_bruteforce(completion) if g.n <= MAX_ORACLE_VERTICES else None
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


if __name__ == "__main__":
    sys.exit(main())
