"""Halin graph toolkit.

A Halin graph is a plane tree without degree-2 nodes plus a cycle
through its leaves. This package generates them (wheels, necklaces,
random general/cubic), recognizes them with an outer-cycle certificate,
colors them optimally (3 colors, 4 for even wheels), and produces a
perfect elimination ordering of a treewidth-3 chordal completion.

Importing the package loads none of its modules: each public name, and
each submodule (``halin.peo``, ...), loads its module on first use, so a
command imports only the code it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_SOURCE = {
    "ColoringTrace": "coloring",
    "GenSpec": "generators",
    "Graph": "graph",
    "GraphFormatError": "io",
    "HalinCertificate": "recognition",
    "MalformedCertificateError": "recognition",
    "RecognitionResult": "recognition",
    "certificate_from_outer": "recognition",
    "chordal_completion": "peo",
    "color_halin": "coloring",
    "dumps_graph": "io",
    "generate": "generators",
    "load_graph": "io",
    "make_necklace": "generators",
    "make_wheel": "generators",
    "peo_halin": "peo",
    "recognize": "recognition",
    "save_graph": "io",
    "verify_halin": "recognition",
    "verify_peo": "peo",
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if name in _SOURCE.values():
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
