"""Acceptance gate: the nine primary criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the summary
lines); each test prints exactly one `PASS [n] ...` line once its criterion
holds, and fails loudly otherwise.  Every numeric comparison here is exact;
the only tolerances are the stated time budgets.
"""

from __future__ import annotations

import random
import time

from _fixtures import dependent_corpus, graph_corpus, random_subgroups, unit_rose
from _oracles import brute_omega, class_rep, net_translation_length
from grouptrees.core import Scalar, Word, parse_word
from grouptrees.corpus import (balanced_corpus, golden_grow_seed, golden_system,
                               grow_corpus, index_two_cover_graph,
                               lopsided_rose, random_hall_instances,
                               random_words, rotation_pair, theta_graph)
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.isometry_systems import (PartialIsometry, SoISystem,
                                         balance_report, domain_sum,
                                         discreteness_report, grow_forest,
                                         independence_check,
                                         indecomposability_search,
                                         total_measure)
from grouptrees.laminations import carrier_scan
from grouptrees.marked_graphs import CoverCore
from grouptrees.report import to_jsonable
from grouptrees.stallings import (build_core, fiber_product, hall_completion,
                                  index, membership)

S = Scalar.of
SEED = 42


def W(text, rank=2):
    return parse_word(text, rank)


def test_criterion_01_balance_identity_on_corpus():
    started = time.monotonic()
    systems = balanced_corpus()
    assert len(systems) >= 10
    worked_seen = False
    for name, system, expected_e in systems:
        indep = independence_check(system, 8)
        assert indep["status"] == "ok-up-to-budget", name
        report = balance_report(system, max_len=8, budget=500)
        assert report["verdict"] == "identity-verified", (name, report)
        assert report["families_status"] == "complete", name
        assert report["residual"] == S(0), name
        assert report["e"] == expected_e, name
        if (report["m"] == S(1) and report["d"] == S("3/4")
                and report["e"] == S("1/4")):
            worked_seen = True
    assert worked_seen, "the worked single-map example must be in the corpus"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"balance sweep took {elapsed:.1f}s"
    print(f"\nPASS [1] m - d - e = 0 exactly on {len(systems)} independent "
          f"systems incl. the worked m=1,d=3/4,e=1/4 map ({elapsed:.2f}s < 10s)")


def test_criterion_02_dependent_systems_certified():
    systems = dependent_corpus()
    assert len(systems) >= 5
    for name, system in systems:
        assert (domain_sum(system) - total_measure(system)).sign() > 0, name
        report = balance_report(system, max_len=8, budget=500)
        assert report["verdict"] == "dependent-certified", (name, report)
    rotation = rotation_pair()
    indep = independence_check(rotation, 2)
    assert indep["status"] == "violation"
    assert indep["word_length"] == 2
    assert indep["arc"].length == S(1) - S("1/2")
    print(f"\nPASS [2] {len(systems)} over-full systems dependent-certified; "
          f"rotation violation found at word length 2")


def test_criterion_03_hall_witnesses_verify():
    started = time.monotonic()
    instances = random_hall_instances(SEED, 200)
    assert len(instances) == 200
    for i, (graph, g, rank) in enumerate(instances):
        assert 1 <= rank <= 3
        assert not membership(graph, g)
        witness = hall_completion(graph, g)
        checks = witness.verify()
        bad = [k for k, v in checks.items() if v is not True]
        assert not bad, (i, rank, str(g), bad)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"hall sweep took {elapsed:.1f}s"
    print(f"\nPASS [3] 200/200 finite-index extension witnesses verified, "
          f"zero failures ({elapsed:.2f}s < 30s)")


def test_criterion_04_covering_iff_finite_index():
    subgroups = list(random_subgroups(SEED, 70))
    for graph in random_subgroups(SEED + 1, 30):
        subgroups.append(hall_completion(graph).cover)
    assert len(subgroups) == 100
    graphs = [unit_rose(), lopsided_rose(), theta_graph()]
    finite_cases = 0
    mismatches = []
    for subgroup in subgroups:
        idx = index(subgroup)
        if idx is not None:
            finite_cases += 1
        for graph in graphs:
            cover = CoverCore(graph, subgroup)
            if cover.is_covering != (idx is not None):
                mismatches.append((idx, cover.is_covering))
            elif cover.is_covering and cover.degree != idx:
                mismatches.append((idx, cover.degree))
    assert finite_cases >= 30
    assert len(subgroups) - finite_cases >= 30
    assert not mismatches, mismatches[:5]
    print(f"\nPASS [4] minimal subtree covers the graph iff the subgroup has "
          f"finite index, degree == index, on 100 subgroups x 3 graphs "
          f"({finite_cases} finite-index cases), zero mismatches")


def test_criterion_05_support_iteration_monotone():
    pairs = grow_corpus()
    assert len(pairs) >= 10
    for name, system, start in pairs:
        stages = grow_forest(system, start, 8)
        assert len(stages) == 9, name
        for a, b in zip(stages, stages[1:]):
            assert (b["residual"] - a["residual"]).sign() <= 0, name
    golden_stages = grow_forest(golden_system(), golden_grow_seed(), 8)
    for i in range(4):
        drop = golden_stages[i + 1]["residual"] - golden_stages[i]["residual"]
        assert drop.sign() < 0, (i, str(drop))
    print(f"\nPASS [5] residuals non-increasing over 8 steps on "
          f"{len(pairs)} system/seed pairs; golden seed strictly decreases "
          f"for 4 steps")


def test_criterion_06_discreteness_heuristics():
    system = golden_system()
    whole = build_core([W("a"), W("b")], 2)
    cyclic = build_core([W("a")], 2)
    cover = index_two_cover_graph()
    assert index(cover) == 2

    reports = {}
    for name, subgroup in (("whole", whole), ("cyclic", cyclic),
                           ("cover", cover)):
        one = discreteness_report(system, subgroup, [S(0)], 400)
        two = discreteness_report(system, subgroup, [S(0)], 400)
        assert to_jsonable(one) == to_jsonable(two), f"{name} not deterministic"
        assert one["heuristic"] is True
        reports[name] = one

    assert reports["whole"]["verdict"] == "suggests-dense"
    assert reports["cover"]["verdict"] == "suggests-dense"
    assert reports["cyclic"]["verdict"] == "suggests-discrete"
    gap = reports["cyclic"]["min_gap"]
    assert gap == S("3/2-1/2*sqrt5") and gap.sign() > 0
    print(f"\nPASS [6] golden system: whole group and index-2 extension "
          f"suggest dense orbits, cyclic subgroup suggests discrete with "
          f"exact gap {gap}; heuristic-labelled and deterministic")


def test_criterion_07_carrier_scans():
    rose = lopsided_rose()
    # epsilon strictly below the second-shortest loop length (1/10 < 1/2 < 1)
    eps = S("1/2")

    finite = carrier_scan(rose, index_two_cover_graph(), eps, 4, 2)
    assert finite["status"] == "carried-leaves-found"
    assert len(finite["carried"]) == len(finite["short_classes"])
    assert finite["subgroup_index"] == 2

    conjugated = carrier_scan(rose, build_core([W("baB")], 2), eps, 4, 2)
    assert conjugated["status"] == "none-up-to-budget"
    assert conjugated["carried"] == []
    assert any(hit["word"] == "b" for hit in conjugated["translate_hits"])

    control = carrier_scan(rose, build_core([W("a")], 2), eps, 4, 2)
    assert control["status"] == "carried-leaves-found"
    assert control["subgroup_index"] is None
    assert "simplicial" in control["note"]
    print(f"\nPASS [7] carrier scans at eps=1/2, word budget 4, translate "
          f"budget 2: finite index carries all leaves, conjugated cyclic "
          f"needs a translate, infinite-index control carries and is "
          f"annotated")


def test_criterion_08_engine_matches_oracles():
    # (a) short-class enumeration against brute rotation/inversion exhaustion
    omega_cases = [
        ("unit-rose", unit_rose(), S("5/2"), 10),
        ("lopsided-rose", lopsided_rose(), S("6/5"), 10),
        ("unit-rose-3", unit_rose(3), S(2), 6),
    ]
    for name, graph, eps, max_len in omega_cases:
        engine = graph.omega_epsilon(eps, max_len)
        engine_reps = {class_rep(w.letters) for w in engine}
        assert len(engine_reps) == len(engine), name
        assert engine_reps == brute_omega(graph, eps, max_len), name

    # (b) intersection membership == conjunction, 500 random words
    rng = random.Random(SEED)
    pairs = list(zip(random_subgroups(SEED + 2, 5),
                     random_subgroups(SEED + 3, 5)))
    words_checked = 0
    for g1, g2 in pairs:
        meet = fiber_product(g1, g2)
        for w in random_words(rng, 2, 100, 8):
            both = membership(g1, w) and membership(g2, w)
            assert membership(meet, w) == both, str(w)
            words_checked += 1
    assert words_checked == 500

    # (c) translation length == net displacement minimum, 20 short pairs
    tl_checked = 0
    graphs = [graph for _, graph in graph_corpus()]
    while tl_checked < 20:
        graph = graphs[tl_checked % len(graphs)]
        for w in random_words(rng, graph.rank, 1, 4):
            assert graph.translation_length(w) == net_translation_length(
                graph, w), (str(w), tl_checked)
            tl_checked += 1
    print(f"\nPASS [8] engine == independent oracles: short classes on 3 "
          f"graphs by exhaustion, 500 intersection membership words, "
          f"{tl_checked} translation lengths by net minimization, all exact")


def test_criterion_09_indecomposability_chain():
    started = time.monotonic()
    result = indecomposability_search(
        golden_system(), Interval(S(0), S("1/10")),
        Interval(S("1/2"), S("3/5")), r_max=8, max_len=10)
    assert result["status"] == "chain-found"
    assert result["r"] <= 8
    # the returned chain really covers the target with overlapping images
    chain = result["chain"]
    target = Interval(S("1/2"), S("3/5"))
    covered = MultiInterval([row["interval"] for row in chain])
    assert covered.contains_interval(target)
    for a, b in zip(chain, chain[1:]):
        meet = a["interval"].intersect(b["interval"])
        assert meet is not None and not meet.is_point
    elapsed = time.monotonic() - started

    # obstruction: a two-component system whose generators stay per-component
    split = SoISystem(
        MultiInterval([Interval(S(0), S(1)), Interval(S(2), S(3))]),
        [PartialIsometry(Interval(S(0), S("1/2")), 1, S("1/4")),
         PartialIsometry(Interval(S(2), S("5/2")), 1, S("1/4"))])
    blocked = indecomposability_search(
        split, Interval(S(0), S("1/10")), Interval(S("5/2"), S("27/10")),
        r_max=8, max_len=10)
    assert blocked["status"] == "exhausted"
    assert elapsed < 60.0, f"chain search took {elapsed:.1f}s"
    print(f"\nPASS [9] golden chain from [0,1/10] to [1/2,3/5] found with "
          f"r={result['r']} within budgets ({elapsed:.2f}s < 60s); "
          f"two-component obstruction reports exhausted")
