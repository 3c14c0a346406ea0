"""Fixtures only the tests use, built from the bundled corpus."""

from __future__ import annotations

import random

from grouptrees.core import Scalar
from grouptrees.corpus import (ALPHA, _interval, _system, lopsided_rose,
                               random_words, rose_graph, theta_graph)
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.isometry_systems import PartialIsometry, SoISystem
from grouptrees.marked_graphs import MarkedMetricGraph
from grouptrees.measures import LengthMeasure
from grouptrees.stallings import StallingsGraph, build_core

_S = Scalar.of


def lebesgue(support: MultiInterval) -> LengthMeasure:
    """Density 1 on every component."""
    return LengthMeasure([(iv, _S(1)) for iv in support.components])


def unit_rose(rank: int = 2) -> MarkedMetricGraph:
    return rose_graph(*([1] * rank))


def graph_corpus() -> list[tuple[str, MarkedMetricGraph]]:
    return [
        ("unit-rose", unit_rose()),
        ("lopsided-rose", lopsided_rose()),
        ("theta", theta_graph()),
        ("stretched-rose", rose_graph(1, 2)),
        ("unit-rose-3", unit_rose(3)),
    ]


def dependent_corpus() -> list[tuple[str, SoISystem]]:
    """Systems whose generators provably satisfy a relation (d > m throughout)."""
    return [
        ("flip-and-half",
         _system([(0, 1)], [(0, 1, -1, 1), (0, "1/2", 1, "1/2")])),
        ("double-flip",
         _system([(0, 1)], [(0, 1, -1, 1), (0, 1, -1, 1)])),
        ("rotation-pair-plus-flip",
         _system([(0, 1)], [(0, "1/2", 1, "1/2"), ("1/2", 1, 1, "-1/2"),
                            (0, 1, -1, 1)])),
        ("golden-with-doubled-generator",
         SoISystem(MultiInterval([_interval(0, 1)]),
                   [PartialIsometry(Interval(_S(0), _S(1) - ALPHA), 1, ALPHA),
                    PartialIsometry(Interval(_S(0), ALPHA), 1, _S(1) - ALPHA),
                    PartialIsometry(Interval(_S(0), _S(1) - ALPHA), 1, ALPHA)])),
        ("sweep-plus-flip",
         _system([(0, 1)], [(0, "3/4", 1, "1/4"), (0, 1, -1, 1)])),
        ("overfull-thirds",
         _system([(0, 1)], [(0, "2/3", 1, "1/3"), ("1/3", 1, 1, "-1/3"),
                            (0, "1/2", 1, "1/2")])),
    ]


def random_subgroups(seed: int, count: int, rank: int = 2,
                     max_gens: int = 3, max_len: int = 6) -> list[StallingsGraph]:
    """Deterministic stream of nontrivial core graphs."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        gens = random_words(rng, rank, rng.randint(1, max_gens), max_len)
        graph = build_core(gens, rank)
        if graph.edges:
            graphs.append(graph)
    return graphs


def scaled_system(sy: SoISystem, q: Scalar) -> SoISystem:
    """The system with every point x moved to q*x, for q > 0."""
    return SoISystem(scaled(sy.forest, q),
                     [PartialIsometry(scaled(g.dom, q), g.orient, g.offset * q)
                      for g in sy.generators], sy.labels)


def scaled(value, q: Scalar):
    if isinstance(value, MultiInterval):
        return MultiInterval(scaled(c, q) for c in value.components)
    if isinstance(value, Interval):
        return Interval(value.lo * q, value.hi * q)
    return value * q
