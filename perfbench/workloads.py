"""Seeded request lists for the four benchmark workloads.

A request is a JSON-style dict: ``op`` and ``args`` for the in-process
workloads (the arguments of ``scenarios.run_op``), or ``argv`` and ``files``
for ``cli-cold``.  Each request also carries ``expect``: a substructure that
the canonical report's ``result`` must contain.  Expectations hold by
construction (a closed p/q rotation orbit has q points, a Hall witness
verifies, ...), so they apply on every seed.

Every run of a workload executes the same fixed list for its seed.  The list
is built from rounds of identical shape: the operation in each slot and its
size class depend only on the round index, and the seed only chooses the
letters, lengths and points.  That keeps the cost of a run nearly the same
on every seed, so seeds can be compared.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import gcd

from grouptrees import corpus
from grouptrees import documents as docs
from grouptrees.core import Scalar, Word
from grouptrees.report import to_jsonable
from grouptrees.stallings import basis_of

WORKLOADS = ("dynamics", "folding", "census", "cli-cold")

#: Rounds in the timed list: whole cycles of each workload's sizes (20 for
#: dynamics, 24 for folding, 30 for census).  Each workload has >= 100
#: requests; on the 2-CPU Xeon the benchmark was defined on, the timed loop
#: takes about 28 s for dynamics, whose timings spread most from run to run,
#: 13 s for folding and census, and 25 s for cli-cold.
ROUNDS = {"dynamics": 40, "folding": 24, "census": 60, "cli-cold": 26}

# Rotation numbers in Q(sqrt2), Q(sqrt3) and Q(sqrt5), all in (0, 1).
_QUADRATIC = ("-1+sqrt2", "2-sqrt2", "1/2*sqrt2",
              "2-sqrt3", "-1+sqrt3", "1/2*sqrt3",
              "3/2-1/2*sqrt5", "-1/2+1/2*sqrt5", "-2+sqrt5")


def _letters(rng: random.Random, rank: int, length: int) -> Word:
    """A uniformly drawn reduced word of exactly `length` letters."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out: list[int] = []
    while len(out) < length:
        letter = rng.choice(alphabet)
        if out and out[-1] == -letter:
            continue
        out.append(letter)
    return Word(tuple(out), rank)


def _cyclic(rng: random.Random, rank: int, length: int) -> Word:
    """A cyclically reduced word of exactly `length` letters."""
    while True:
        w = _letters(rng, rank, length)
        if w.is_cyclically_reduced():
            return w


def _rational(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """A rational strictly between lo and hi with denominator at most `den`."""
    while True:
        q = rng.randint(2, den)
        p = rng.randint(1, q - 1)
        x = Fraction(p, q)
        if lo < x < hi:
            return x


# ------------------------------------------------------------------ dynamics


def _rotation(alpha: Scalar) -> dict:
    """Two-piece rotation of [0, 1] by alpha, labelled a and b, as a document.

    a: [0, 1-alpha] -> [alpha, 1] and b: [0, alpha] -> [1-alpha, 1] generate
    the rotation group, so an irrational alpha has only infinite orbits and
    alpha = p/q closes every orbit off (1/q)Z in exactly q points.
    """
    one = Scalar.of(1)
    return {"D": alpha.d, "forest": [["0", "1"]], "generators": [
        {"dom": ["0", str(one - alpha)], "orient": 1, "offset": str(alpha),
         "label": "a"},
        {"dom": ["0", str(alpha)], "orient": 1, "offset": str(one - alpha),
         "label": "b"}]}


def _rational_rotation(rng: random.Random, q: int) -> tuple[dict, int]:
    while True:
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            return _rotation(Scalar.of(Fraction(p, q))), p


@functools.cache
def _balanced_docs() -> list[tuple[dict, str]]:
    return [(docs.dump_system(system), str(e))
            for _, system, e in corpus.balanced_corpus()]


@functools.cache
def _grow_docs() -> list[tuple[dict, list]]:
    return [(docs.dump_system(system), to_jsonable(start))
            for _, system, start in corpus.grow_corpus()]


def _dynamics_round(rng: random.Random, r: int) -> list[dict]:
    # Sizes step with the round index instead of taking four values, so the
    # latency distribution has no gaps in which a percentile could jump.
    s = r % 4
    irr = _rotation(Scalar.of(rng.choice(_QUADRATIC)))
    reqs = []

    budget = 200 + 15 * (r % 20)
    reqs.append({"op": "soi.orbit",
                 "args": {"system": irr, "budget": budget,
                          "point": str(_rational(rng, Fraction(0), Fraction(1), 12))},
                 "expect": {"status": "truncated", "budget": budget}})

    q = 17 + 4 * (r % 20)
    system, _ = _rational_rotation(rng, q)
    k = rng.randint(0, q - 1)
    reqs.append({"op": "soi.orbit",
                 "args": {"system": system, "budget": 500,
                          "point": str(Fraction(2 * k + 1, 2 * q))},
                 "expect": {"status": "closed", "count": q}})

    q = 11 + 2 * (r % 20)
    system, _ = _rational_rotation(rng, q)
    reqs.append({"op": "soi.families", "args": {"system": system, "budget": 500},
                 "expect": {"status": "complete", "e": f"1/{q}"}})

    # The corpus entries differ in cost, so the round index picks them: a
    # seed-drawn choice would make the run's cost depend on the seed.
    system, e = _balanced_docs()[r % 12]
    reqs.append({"op": "soi.glp",
                 "args": {"system": system, "max_word": 8, "budget": 500},
                 "expect": {"verdict": "identity-verified", "residual": "0",
                            "e": e}})

    system, start = _grow_docs()[r % 12]
    reqs.append({"op": "soi.grow",
                 "args": {"system": system, "start": start, "steps": 8},
                 "expect": {"non_increasing": True, "steps": 8}})

    generators = (["a", "b"], ["aa", "b", "abA"], ["a"], ["ab", "ba"])[s]
    reqs.append({"op": "soi.discrete",
                 "args": {"system": irr,
                          "subgroup": {"rank": 2, "generators": generators},
                          "samples": [str(_rational(rng, Fraction(0), Fraction(1), 10))],
                          "budget": 200 + 5 * (r % 20)},
                 "expect": {"heuristic": True}})

    lo = _rational(rng, Fraction(0), Fraction(1, 2), 10)
    target_lo = _rational(rng, Fraction(1, 2), Fraction(9, 10), 10)
    reqs.append({"op": "soi.indecomp",
                 "args": {"system": irr, "piece": [str(lo), str(lo + Fraction(1, 10))],
                          "target": [str(target_lo), str(target_lo + Fraction(1, 20))],
                          "chain_max": 8, "max_word": 4 + s},
                 "expect": {"max_len": 4 + s}})

    reqs.append({"op": "soi.cover",
                 "args": {"system": irr,
                          "seed_set": [["0", "1/5"]],
                          "target": ["0", "1"], "delta": "1/100",
                          "max_word": (4, 5, 6, 6)[s]},
                 "expect": {"delta": "1/100"}})

    reqs.append({"op": "measure.check",
                 "args": {"system": irr, "measure": {"pieces": [
                     {"from": "0", "to": "1", "density": str(rng.randint(1, 9))}]}},
                 "expect": {"status": "invariant", "generators_checked": 2}})
    return reqs


# ------------------------------------------------------------------- folding


def _subgroup(rank: int, words) -> dict:
    return {"rank": rank, "generators": [str(w) for w in words]}


def _family(rng: random.Random, prefix: int) -> list[Word]:
    """Conjugates u w_i u^-1 and a power of u: long shared prefixes to fold."""
    u = _cyclic(rng, 2, prefix)
    ui = u.inverse()
    return [u * _cyclic(rng, 2, 5) * ui, u * _cyclic(rng, 2, 6) * ui, u * u]


def _nielsen_basis(rank: int, total: int) -> list[Word]:
    """A free basis of total length >= `total`, grown by Nielsen moves.

    The moves x_i <- x_i x_j (j = i + 1, cycling) keep every word positive,
    so nothing cancels and the lengths follow a fixed Fibonacci-like
    sequence.  The basis does not depend on the seed: even a relabelling of
    its letters changes the cost of inverting it.
    """
    basis = [Word((i + 1,), rank) for i in range(rank)]
    i = 0
    while sum(len(w) for w in basis) < total:
        j = (i + 1) % rank
        basis[i] = basis[i] * basis[j]
        i = j
    return basis


def _nielsen_rose(rng: random.Random, rank: int, total: int) -> dict:
    """A rose document whose marking is a long Nielsen basis.

    Written directly in the document format: building the graph object here
    would run ``invert_basis`` during set-up instead of inside the request.
    """
    marking = _nielsen_basis(rank, total)
    return {"rank": rank, "vertices": 1,
            "edges": [{"id": i, "ends": [0, 0],
                       "len": str(Fraction(rng.randint(1, 9), rng.randint(1, 9)))}
                      for i in range(rank)],
            "spanning_tree": [],
            "marking": {str(i): str(w) for i, w in enumerate(marking)},
            "base": 0}


def _folding_round(rng: random.Random, r: int) -> list[dict]:
    # v runs through 0..23 in a fixed shuffled order; sizes step with it, so
    # the latency distribution has no gaps in which a percentile could jump.
    s, v = r % 4, (7 * r) % 24
    reqs = []

    prefix = 50 + 11 * v
    reqs.append({"op": "stallings.core",
                 "args": {"subgroup": _subgroup(2, _family(rng, prefix))},
                 "expect": {"graph": {"rank": 2}}})

    reqs.append({"op": "stallings.core",
                 "args": {"subgroup": _subgroup(2, [_letters(rng, 2, prefix)
                                                    for _ in range(3)])},
                 "expect": {"graph": {"rank": 2}}})

    family = _family(rng, 25 + 3 * v)
    product = family[0] * family[2] * family[1].inverse()
    reqs.append({"op": "stallings.member",
                 "args": {"subgroup": _subgroup(2, family), "word": str(product)},
                 "expect": {"member": True}})

    reqs.append({"op": "stallings.member",
                 "args": {"subgroup": _subgroup(2, _family(rng, 20)),
                          "word": str(_letters(rng, 2, 60))},
                 "expect": {}})

    reqs.append({"op": "stallings.conj",
                 "args": {"subgroup": _subgroup(2, [_cyclic(rng, 2, 6),
                                                    _cyclic(rng, 2, 7)]),
                          "word": str(_letters(rng, 2, 50 + 7 * v))},
                 "expect": {"graph": {"rank": 2}}})

    u = _cyclic(rng, 2, 25 + 3 * v)
    shared = u * _cyclic(rng, 2, 5) * u.inverse()
    reqs.append({"op": "stallings.meet",
                 "args": {"subgroup": _subgroup(2, [shared, u * u]),
                          "other": _subgroup(2, [shared, _cyclic(rng, 2, 9)])},
                 "expect": {"graph": {"rank": 2}}})

    hall = _family(rng, 8 + v // 2)
    reqs.append({"op": "stallings.hall",
                 "args": {"subgroup": _subgroup(2, hall)},
                 "expect": {"checks": {"ok": True}}})

    rank = 2 + (r // 4) % 2
    total = (100, 150, 200, 300)[s]
    reqs.append({"op": "cvn.len",
                 "args": {"graph": _nielsen_rose(rng, rank, total),
                          "word": str(_cyclic(rng, rank, 8))},
                 "expect": {}})
    reqs.append({"op": "cvn.vol",
                 "args": {"graph": _nielsen_rose(rng, rank, total)},
                 "expect": {}})
    return reqs


# -------------------------------------------------------------------- census


def _random_rose(rng: random.Random, rank: int) -> dict:
    lengths = [str(Fraction(rng.randint(1, 12), rng.randint(1, 6)))
               for _ in range(rank)]
    return docs.dump_marked_graph(corpus.rose_graph(*lengths))


def _random_theta(rng: random.Random) -> dict:
    doc = docs.dump_marked_graph(corpus.theta_graph())
    for edge in doc["edges"]:
        edge["len"] = str(Fraction(rng.randint(1, 9), rng.randint(2, 9)))
    return doc


def _census_graph(rng: random.Random, k: int) -> tuple[dict, int]:
    """(graph document, max_word) for the k-th fresh graph of a round."""
    kind = k % 5
    if kind == 0:
        return _random_rose(rng, 2), 6
    if kind == 1:
        return _random_theta(rng), 6
    if kind == 2:
        return docs.dump_marked_graph(corpus.lopsided_rose()), 5
    if kind == 3:
        return _random_rose(rng, 3), 4
    return _random_theta(rng), 5


def _epsilon(graph: dict, factor: Fraction) -> str:
    return str(factor * sum(Fraction(e["len"]) for e in graph["edges"]))


# Subgroups for cvn.transverse, whose cost depends mostly on the subgroup.
_TRANSVERSE = (["a", "bab"], ["aB", "bba"], ["ab", "ba"])


def _census_round(rng: random.Random, r: int, hall_instance) -> list[dict]:
    reqs = []
    pairs = [_census_graph(rng, 2 * r + i) for i in range(2)]
    # Two fresh (graph, max_word) pairs, then six requests that reuse one of
    # them with a new epsilon: a cross-request cache would help exactly these.
    for i in range(8):
        graph, max_word = pairs[i % 2]
        reqs.append({"op": "cvn.omega",
                     "args": {"graph": graph, "max_word": max_word,
                              "epsilon": _epsilon(graph, Fraction(rng.randint(4, 12), 6))},
                     "expect": {"max_word": max_word}})

    graph = _random_rose(rng, 2) if r % 2 else _random_theta(rng)
    sub = _subgroup(2, [_cyclic(rng, 2, 1), _cyclic(rng, 2, 3)])
    # lam.scan's cost grows with the number of short classes, so its two
    # thresholds are fixed shares of the volume rather than seed-drawn.
    for factor in (Fraction(1), Fraction(3, 2)):
        reqs.append({"op": "lam.scan",
                     "args": {"graph": graph, "subgroup": sub,
                              "epsilon": _epsilon(graph, factor),
                              "max_word": 4, "max_translate": 2},
                     "expect": {"max_word": 4, "max_translate": 2}})

    graph = _random_rose(rng, 2) if r % 2 else _random_theta(rng)
    sub = {"rank": 2, "generators": _TRANSVERSE[(r // 2) % 3]}
    reqs.append({"op": "cvn.transverse",
                 "args": {"graph": graph, "subgroup": sub,
                          "max_word": 2 + r % 2, "radius": 3 + r % 2},
                 "expect": {"max_len": 2 + r % 2, "radius": 3 + r % 2}})
    reqs.append({"op": "cvn.minsub", "args": {"graph": graph, "subgroup": sub},
                 "expect": {}})
    reqs.append({"op": "cvn.len",
                 "args": {"graph": graph, "word": str(_letters(rng, 2, 6))},
                 "expect": {}})

    g = _cyclic(rng, 2, rng.randint(2, 5))
    power = g * g
    reqs.append({"op": "lam.carries",
                 "args": {"subgroup": _subgroup(2, [power, _cyclic(rng, 2, 3)]),
                          "word": str(g)},
                 "expect": {}})

    graph, excluded, rank = hall_instance
    sub = _subgroup(rank, basis_of(graph))
    reqs.append({"op": "stallings.hall",
                 "args": {"subgroup": sub, "word": str(excluded)},
                 "expect": {"checks": {"ok": True, "excluded_stays_out": True}}})
    reqs.append({"op": "stallings.member",
                 "args": {"subgroup": sub, "word": str(excluded)},
                 "expect": {"member": False}})
    return reqs


# ------------------------------------------------------------------ cli-cold


def _cli_round(rng: random.Random, r: int) -> list[dict]:
    """Four small CLI commands; document paths are relative to a work dir."""
    sub = _subgroup(2, _family(rng, rng.randint(8, 16)))
    system = _rotation(Scalar.of(rng.choice(_QUADRATIC)))
    rank = 2 + r % 2
    graph = _nielsen_rose(rng, rank, 60)
    point = str(_rational(rng, Fraction(0), Fraction(1), 12))
    word = str(_cyclic(rng, rank, 6))
    return [
        {"argv": ["stallings", "index", "--in", f"sub-{r}.json", "--json"],
         "files": {f"sub-{r}.json": sub},
         "expect": {"status": "proven", "result": {}}},
        {"argv": ["soi", "orbit", "--in", f"system-{r}.json", "--point", point,
                  "--budget", "40", "--json"],
         "files": {f"system-{r}.json": system},
         "expect": {"status": "budget", "result": {"status": "truncated"}}},
        {"argv": ["cvn", "len", "--in", f"graph-{r}.json", "--word", word,
                  "--json"],
         "files": {f"graph-{r}.json": graph},
         "expect": {"status": "proven", "result": {"word": word}}},
        {"argv": ["scenario", "list", "--json"], "files": {},
         "expect": {"command": "scenario list"}},
    ]


# --------------------------------------------------------------------- lists

# Index of the warm-up round: in the smallest size class (index % 4 == 0),
# and far from the timed rounds so that cli-cold file names never collide.
_WARM_UP_ROUND = 1000


def _rounds(workload: str, rng: random.Random, count: int, first: int):
    if workload == "census":
        hall = corpus.random_hall_instances(rng.randrange(2 ** 32), count)
        return [req for r in range(count)
                for req in _census_round(rng, first + r, hall[r])]
    make = {"dynamics": _dynamics_round, "folding": _folding_round,
            "cli-cold": _cli_round}[workload]
    return [req for r in range(count) for req in make(rng, first + r)]


def build(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(warm-up requests, timed requests) for a workload and seed.

    The warm-up requests come from a separate random stream and use the
    smallest size class, so they prime the interpreter without repeating any
    timed input.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    warm = _rounds(workload, random.Random(f"{workload}:{seed}:warm-up"), 1,
                   _WARM_UP_ROUND)
    timed = _rounds(workload, random.Random(f"{workload}:{seed}"),
                    ROUNDS[workload], 0)
    return warm[:3], timed
