"""Acceptance suite: one test per release criterion, one line printed each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import random

import pytest

from halin import (
    ColoringTrace,
    GenSpec,
    certificate_from_outer,
    chordal_completion,
    chromatic_number_bruteforce,
    color_halin,
    cycle_runs,
    generate,
    is_chordal_bruteforce,
    is_even_wheel,
    make_necklace,
    make_wheel,
    peo_halin,
    recognize,
    treewidth_from_peo,
    verify_halin,
    verify_peo,
)
from halin.cli import run_bench
from halin.recognition import certify

PER_VARIANT = 1000
SIZE_RANGE = (4, 500)


def _corpus_specs():
    """2000 generator specs: 1000 general + 1000 cubic, n in [4, 500]."""
    rng = random.Random(20260811)
    specs = []
    for i in range(PER_VARIANT):
        specs.append(GenSpec(rng.randint(*SIZE_RANGE), "halin", seed=i))
    for i in range(PER_VARIANT):
        specs.append(
            GenSpec(2 * rng.randint(SIZE_RANGE[0] // 2, SIZE_RANGE[1] // 2),
                    "halin_cubic", seed=i)
        )
    return specs


def _small_specs():
    """At least 200 instances with n <= 12, all variants."""
    specs = []
    for n in range(4, 13):
        specs.extend(GenSpec(n, "halin", seed=s) for s in range(22))
    for n in range(4, 13, 2):
        specs.extend(GenSpec(n, "halin_cubic", seed=s) for s in range(10))
    specs.extend(GenSpec(n, "wheel") for n in range(4, 13))
    specs.extend(GenSpec(n, "necklace") for n in range(6, 13, 2))
    return specs


def _report(name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"\n[{status}] {name}{': ' + detail if detail else ''}")
    assert not failures, failures[:5]


def _proper(g, colors):
    return all(colors[u] != colors[v] for u, v in g.edges())


def test_criterion_1_three_colors_except_even_wheels():
    failures = []
    count = 0
    for spec in _corpus_specs():
        g, outer = generate(spec)
        cert = certificate_from_outer(g, outer)
        colors = color_halin(g, cert)
        expected = 4 if is_even_wheel(g, cert) else 3
        if not _proper(g, colors) or len(set(colors.values())) != expected:
            failures.append(spec)
        count += 1
    # even wheels beyond K4 come from the wheel generator
    for n in range(4, 64):
        g, outer = make_wheel(n)
        cert = certificate_from_outer(g, outer)
        colors = color_halin(g, cert)
        expected = 4 if n % 2 == 0 else 3
        if not _proper(g, colors) or len(set(colors.values())) != expected:
            failures.append(("wheel", n))
        count += 1
    _report(
        "criterion 1: coloring theorem",
        failures,
        f"{count} graphs, proper and exactly 3 colors (4 on even wheels)",
    )


def test_criterion_2_optimality_against_brute_force():
    failures = []
    specs = _small_specs()
    assert len(specs) >= 200
    for spec in specs:
        g, outer = generate(spec)
        cert = certificate_from_outer(g, outer)
        used = len(set(color_halin(g, cert).values()))
        if used != chromatic_number_bruteforce(g, 5):
            failures.append(spec)
    _report(
        "criterion 2: optimality oracle",
        failures,
        f"{len(specs)} graphs with n <= 12 match the brute-force chromatic number",
    )


def test_criterion_3_case_coverage(pseudo_fan_graph, odd_fan_graph, two_tone_odd_cycle):
    failures = []
    seen = set()

    def run(g, outer):
        trace = ColoringTrace()
        color_halin(g, certificate_from_outer(g, outer), trace)
        seen.add(trace.case)
        return trace

    for n in range(4, 14):
        run(*make_wheel(n))
    for k in range(2, 7):
        run(*make_necklace(k))
    for seed in range(60):
        run(*generate(GenSpec(4 + seed % 37, "halin", seed=seed)))
    run(*two_tone_odd_cycle)
    run(*odd_fan_graph)

    # The pseudo-fan instance: every true fan even, an odd pseudo-fan chosen.
    g, outer = pseudo_fan_graph
    cert = certificate_from_outer(g, outer)
    if not all(len(r.run) % 2 == 0 for r in cycle_runs(cert) if r.is_fan):
        failures.append("expected every true fan to be even")
    trace = run(g, outer)
    if trace.case != 4:
        failures.append(f"expected case 4, saw {trace.case}")
    if trace.odd_run is None or trace.odd_run.is_fan:
        failures.append("expected an odd pseudo-fan to be selected")

    missing = {1, 2, 3, 4} - seen
    if missing:
        failures.append(f"cases never triggered: {sorted(missing)}")
    _report(
        "criterion 3: case coverage",
        failures,
        f"cases seen {sorted(seen)}, pseudo-fan instance exercised",
    )


def test_criterion_4_peo_correctness():
    failures = []
    count = 0
    for spec in _corpus_specs():
        g, outer = generate(spec)
        cert = certificate_from_outer(g, outer)
        result = peo_halin(g, cert)
        comp = chordal_completion(g, result)
        if not verify_peo(comp, result.order):
            failures.append((spec, "peo"))
            continue
        if treewidth_from_peo(comp, result.order) != 3:
            failures.append((spec, "treewidth"))
        if g.n <= 12 and not is_chordal_bruteforce(comp):
            failures.append((spec, "chordal"))
        count += 1
    _report(
        "criterion 4: PEO correctness",
        failures,
        f"{count} completions verified, treewidth 3 throughout",
    )


def test_criterion_5_recognition_round_trip():
    failures = []
    accepted = 0
    for spec in _corpus_specs():
        g, outer = generate(spec)
        result = recognize(g)
        if not (result.is_halin and verify_halin(g, set(result.certificate.outer))):
            failures.append((spec, "accept"))
        accepted += 1

    rng = random.Random(998877)
    rejected = 0
    for i in range(180):
        n = rng.randint(6, 160)
        variant = "halin" if i % 2 == 0 else "halin_cubic"
        if variant == "halin_cubic" and n % 2:
            n += 1
        g, outer = generate(GenSpec(n, variant, seed=5000 + i))
        order = certify(g, outer).cycle_order

        cut = g.copy()  # cycle-edge deletion leaves a degree-2 vertex
        j = rng.randrange(len(order))
        cut.remove_edge(order[j], order[(j + 1) % len(order)])
        if recognize(cut).is_halin:
            failures.append((i, "cycle-deletion accepted"))
        rejected += 1

        dense = g.copy()  # K5 clique injection breaks planarity
        vs = rng.sample(range(dense.n), 5)
        for a in range(5):
            for b in range(a + 1, 5):
                if not dense.has_edge(vs[a], vs[b]):
                    dense.add_edge(vs[a], vs[b])
        if recognize(dense).is_halin:
            failures.append((i, "K5 injection accepted"))
        rejected += 1

        sub = g.copy()  # subdivision introduces a degree-2 vertex
        u, v = sorted(sub.edges())[rng.randrange(sub.num_edges())]
        w = sub.add_vertex()
        sub.remove_edge(u, v)
        sub.add_edge(u, w)
        sub.add_edge(w, v)
        if recognize(sub).is_halin:
            failures.append((i, "subdivision accepted"))
        rejected += 1
    assert rejected >= 500

    from halin import Graph

    for seed in range(50):  # explicit degree-2 and disconnected inputs
        rng2 = random.Random(seed)
        n = rng2.randint(3, 40)
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        if recognize(path).is_halin:
            failures.append((seed, "path accepted"))
        g1, _ = generate(GenSpec(rng2.randint(4, 30), "halin", seed=seed))
        g2, _ = generate(GenSpec(rng2.randint(4, 30), "halin", seed=seed + 1))
        both = Graph(g1.n + g2.n)
        for u, v in g1.edges():
            both.add_edge(u, v)
        for u, v in g2.edges():
            both.add_edge(g1.n + u, g1.n + v)
        if recognize(both).is_halin:
            failures.append((seed, "disconnected accepted"))
    _report(
        "criterion 5: recognition round trip",
        failures,
        f"{accepted} accepts verified, {rejected} mutations rejected",
    )


def test_criterion_6_linear_time_coloring():
    sizes = [2000, 4000, 8000, 16000, 32000, 64000]
    report = run_bench("color", "halin", sizes, seed=1, repeats=5)
    slope = report["slope"]
    failures = [] if 0.8 <= slope <= 1.3 else [f"slope {slope:.3f} outside [0.8, 1.3]"]
    _report(
        "criterion 6: linear-time coloring",
        failures,
        f"log-log slope {slope:.3f} over n in {sizes[0]}..{sizes[-1]}",
    )


def test_criterion_7_peo_scaling_report():
    sizes = [2000, 4000, 8000, 16000, 32000]
    random_report = run_bench("peo", "halin", sizes, seed=1, repeats=5)
    necklace_report = run_bench("peo", "necklace", sizes, seed=1, repeats=5)
    failures = []
    for name, rep in (("random", random_report), ("necklace", necklace_report)):
        if rep["slope"] > 2.2:
            failures.append(f"{name} slope {rep['slope']:.3f} exceeds 2.2")
    _report(
        "criterion 7: PEO scaling",
        failures,
        "slopes random={:.3f} necklace={:.3f} (quadratic bound 2.2; observed-linear "
        "behavior reported, not gated)".format(
            random_report["slope"], necklace_report["slope"]
        ),
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
