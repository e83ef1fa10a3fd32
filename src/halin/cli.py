"""Command line surface: generate, recognize, color, peo, verify.

Every command prints structured JSON on stdout, in ``json.dumps``'
default layout. Exit codes: 0 success, 1 negative decision (input is
not Halin, a check failed), 2 usage or I/O error or out of memory. A
graph that is not Halin prints {"halin": false, "reason": ...}; verify
adds its "mode" first and "ok": false last.

Each command imports only the modules it runs: ``io``, ``graph`` and
``recognition`` load with this module, and the handlers import the rest.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as gio
from .graph import Graph
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
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("recognize", help="decide Halin-ness; exit 0 yes, 1 no")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--emit-certificate", dest="cert_out")
    p.set_defaults(run=_cmd_recognize)

    p = sub.add_parser("color", help="optimal vertex coloring")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--certificate", dest="cert_in")
    p.add_argument("--dot", dest="dot_out", help="also write a DOT rendering")
    p.set_defaults(run=_cmd_color)

    p = sub.add_parser("peo", help="perfect elimination ordering of a chordal completion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--certificate", dest="cert_in")
    p.add_argument("--emit-completion", dest="completion_out")
    p.set_defaults(run=_cmd_peo)

    p = sub.add_parser("verify", help="check a coloring, a PEO or chordality by witnesses; exit 0 yes, 1 no")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", required=True, choices=("coloring", "chordal", "peo"))
    p.set_defaults(run=_cmd_verify, cert_in=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError, MemoryError) as exc:  # a GraphFormatError is a ValueError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a MemoryError's message is empty
        return 2


def _emit(obj) -> None:
    print(json.dumps(obj))


def _not_halin(reason: str) -> dict:
    return {"halin": False, "reason": reason}


def _certified(
    args: argparse.Namespace, rejection=_not_halin
) -> tuple[Graph, HalinCertificate | None]:
    """The graph of ``args.infile`` and its certificate: from ``--certificate``
    through ``check_certificate`` (a mismatch raises a ValueError), else
    from the file's "outer" field if that certifies the graph, else from
    recognition. Prints ``rejection(reason)`` and gives None for a graph
    that is not Halin."""
    g, outer = gio.load_graph(args.infile)
    if args.cert_in:
        return g, check_certificate(g, gio.load_certificate(args.cert_in))
    cert = certify(g, outer) if outer is not None else None
    if cert is None:
        result = recognize(g)
        cert = result.certificate
        if cert is None:
            _emit(rejection(result.reason))
    return g, cert


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generators import GenSpec, generate

    spec = GenSpec(n=args.n, variant=args.variant.replace("-", "_"), seed=args.seed)
    g, outer = generate(spec)
    if args.out:
        gio.save_graph(args.out, g, outer)
        _emit({"written": args.out, "n": g.n, "m": g.num_edges()})
    else:
        sys.stdout.write(gio.dumps_graph(g, outer))
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    g, _outer = gio.load_graph(args.infile)
    result = recognize(g)
    if not result.is_halin:
        _emit(_not_halin(result.reason))
        return 1
    cert = result.certificate
    if args.cert_out:
        gio.save_certificate(args.cert_out, cert)
    _emit({"halin": True, "outer": sorted(cert.outer)})
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    from .coloring import color_halin

    g, cert = _certified(args)
    if cert is None:
        return 1
    colors = color_halin(g, cert)
    if args.dot_out:
        gio.write_dot(args.dot_out, g, colors, cert.outer)
    _emit(
        {
            "colors": {str(v): c for v, c in sorted(colors.items())},
            "num_colors": len(set(colors.values())),
        }
    )
    return 0


def _cmd_peo(args: argparse.Namespace) -> int:
    from .peo import chordal_completion, peo_halin

    g, cert = _certified(args)
    if cert is None:
        return 1
    result = peo_halin(g, cert)
    if args.completion_out:
        gio.save_graph(args.completion_out, chordal_completion(g, result))
    _emit(
        {
            "order": result.order,
            "fill_edges": sorted(result.fill_edges),
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.mode == "chordal":
        from .peo import _is_chordal

        g, _outer = gio.load_graph(args.infile)
        ok = _is_chordal(g)
        _emit({"mode": "chordal", "chordal": ok, "ok": ok})
        return 0 if ok else 1

    g, cert = _certified(args, lambda r: {"mode": args.mode, **_not_halin(r), "ok": False})
    if cert is None:
        return 1
    if args.mode == "coloring":
        from .coloring import _forced_colors, _is_even_wheel, color_halin

        colors = color_halin(g, cert)
        used = len(set(colors.values()))
        expected = 4 if _is_even_wheel(g, cert) else 3
        # color_halin proved `used` colors enough; a witness forcing as
        # many makes the count the chromatic number.
        chromatic = used if _forced_colors(g, cert) == used else None
        ok = used == expected and chromatic == used
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
    from .peo import _is_chordal, _peo_width, chordal_completion, peo_halin

    result = peo_halin(g, cert)
    completion = chordal_completion(g, result)
    width = _peo_width(completion, result.order)  # None unless the order is a PEO
    valid = width is not None
    # A graph with a PEO is chordal; only a failed walk needs the search.
    chordal = valid or _is_chordal(completion)
    ok = valid and width == 3
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
