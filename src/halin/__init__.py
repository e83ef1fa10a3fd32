"""Halin graph toolkit.

A Halin graph is a plane tree without degree-2 nodes plus a cycle
through its leaves. This package generates them (wheels, necklaces,
random general/cubic), recognizes them with an outer-cycle certificate,
colors them optimally (3 colors, 4 for even wheels), and produces a
perfect elimination ordering of a treewidth-3 chordal completion.
"""

from .coloring import (
    C1,
    C2,
    C3,
    C4,
    ColoringTrace,
    FanRun,
    color_halin,
    color_tree,
    cycle_runs,
    find_odd_run,
    is_even_wheel,
)
from .generators import (
    GenSpec,
    generate,
    make_halin,
    make_halin_cubic,
    make_necklace,
    make_wheel,
)
from .graph import Graph
from .io import GraphFormatError, dumps_graph, load_graph, save_graph
from .oracles import chromatic_number_bruteforce, is_chordal_bruteforce
from .peo import (
    PeoResult,
    TraceStep,
    chordal_completion,
    peo_halin,
    replay_trace,
    treewidth_from_peo,
    verify_peo,
)
from .recognition import (
    HalinCertificate,
    MalformedCertificateError,
    RecognitionResult,
    certificate_from_outer,
    recognize,
    verify_halin,
)

__version__ = "0.1.0"

__all__ = [
    "C1",
    "C2",
    "C3",
    "C4",
    "ColoringTrace",
    "FanRun",
    "GenSpec",
    "Graph",
    "GraphFormatError",
    "HalinCertificate",
    "MalformedCertificateError",
    "PeoResult",
    "RecognitionResult",
    "TraceStep",
    "certificate_from_outer",
    "chordal_completion",
    "chromatic_number_bruteforce",
    "color_halin",
    "color_tree",
    "cycle_runs",
    "dumps_graph",
    "find_odd_run",
    "generate",
    "is_chordal_bruteforce",
    "is_even_wheel",
    "load_graph",
    "make_halin",
    "make_halin_cubic",
    "make_necklace",
    "make_wheel",
    "peo_halin",
    "recognize",
    "replay_trace",
    "save_graph",
    "treewidth_from_peo",
    "verify_halin",
    "verify_peo",
]
