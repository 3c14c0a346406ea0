"""Named operation registry and the deterministic scenario runner.

Every CLI subcommand maps to one operation here, so scripted scenarios and
the command line exercise the same code path.  An operation takes a plain
JSON-style argument dict (documents inline, exact values as strings) and
returns ``(result, kind)`` where kind is "proven" (exit 0), "budget"
(exit 2: a budget-limited outcome is being reported) or "failed" (exit 1:
an internal consistency check did not hold).

A scenario is a named list of steps; each step names an operation, its
arguments, and an expected substructure of the result.  Expectations match
by subset: every expected key must be present with a matching value, lists
must match elementwise, and exact values are compared through their
canonical strings.  Mismatches are reported as path-labelled diffs and make
the whole run exit 1.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import documents as docs
from .core import Scalar, Word, parse_word
from .errors import ParseError
from .isometry_systems import (ae_support_check, balance_report,
                               discreteness_report, finite_orbit_families,
                               grow_forest, indecomposability_search, orbit,
                               subgroup_constrained_orbit, subgroup_saturation)
from .laminations import carries, carrier_scan, periodic_leaf
from .marked_graphs import minimal_subtree, transverse_family_report
from .measures import combine, invariance_check
from .report import to_jsonable
from .stallings import (basis_of, conjugate, fiber_product, hall_completion,
                        index, membership, rank_of)

PROVEN = "proven"
BUDGET = "budget"
FAILED = "failed"


def _require(args: dict, key: str):
    if key not in args or args[key] is None:
        raise ParseError(f"missing required argument '{key}'")
    return args[key]


def _int_arg(args: dict, key: str, default: int | None = None) -> int:
    value = args.get(key, default)
    if value is None:
        raise ParseError(f"missing required argument '{key}'")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"argument '{key}' must be an integer")
    return value


def _word_arg(args: dict, key: str, rank: int) -> Word:
    text = _require(args, key)
    if not isinstance(text, str):
        raise ParseError(f"argument '{key}' must be a word string")
    return parse_word(text, rank)


def _scalar_arg(args: dict, key: str, default=None) -> Scalar:
    value = args.get(key, default)
    if value is None:
        raise ParseError(f"missing required argument '{key}'")
    return docs.scalar_field(value, f"argument '{key}'")


# ------------------------------------------------------------- stallings ops

def op_stallings_core(args: dict):
    graph = docs.load_subgroup(_require(args, "subgroup"))
    return {"graph": graph, "subgroup_rank": rank_of(graph)}, PROVEN


def op_stallings_member(args: dict):
    graph = docs.load_subgroup(_require(args, "subgroup"))
    w = _word_arg(args, "word", graph.rank)
    return {"word": w, "member": membership(graph, w)}, PROVEN


def op_stallings_index(args: dict):
    graph = docs.load_subgroup(_require(args, "subgroup"))
    return {"index": index(graph), "vertices": graph.nv}, PROVEN


def op_stallings_meet(args: dict):
    g1 = docs.load_subgroup(_require(args, "subgroup"))
    g2 = docs.load_subgroup(_require(args, "other"))
    if g1.rank != g2.rank:
        raise ParseError("the two subgroups live in free groups of "
                         "different ranks")
    meet = fiber_product(g1, g2)
    return {"graph": meet, "subgroup_rank": rank_of(meet)}, PROVEN


def op_stallings_conj(args: dict):
    graph = docs.load_subgroup(_require(args, "subgroup"))
    g = _word_arg(args, "word", graph.rank)
    conj = conjugate(graph, g)
    return {"graph": conj, "conjugator": g}, PROVEN


def _witness_report(witness) -> dict:
    checks = witness.verify()
    return {
        "cover": witness.cover,
        "cover_index": witness.cover_index,
        "h_basis": [str(w) for w in witness.h_basis],
        "complement_basis": [str(w) for w in witness.complement_basis],
        "excluded": None if witness.excluded is None else str(witness.excluded),
        "checks": checks,
    }


def op_stallings_hall(args: dict):
    graph = docs.load_subgroup(_require(args, "subgroup"))
    g = None
    if args.get("word") is not None:
        g = _word_arg(args, "word", graph.rank)
    witness = hall_completion(graph, g)
    result = _witness_report(witness)
    return result, (PROVEN if result["checks"]["ok"] else FAILED)


def op_stallings_hall_random_batch(args: dict):
    from .corpus import random_hall_instances
    count = _int_arg(args, "count", 200)
    seed = _int_arg(args, "seed", 0)
    failures = []
    for i, (graph, g, rank) in enumerate(random_hall_instances(seed, count)):
        witness = hall_completion(graph, g)
        checks = witness.verify()
        if not checks["ok"]:
            failures.append({"instance": i, "rank": rank,
                             "generators": [str(w) for w in basis_of(graph)],
                             "excluded": str(g), "checks": checks})
    result = {"count": count, "seed": seed,
              "verified": count - len(failures), "failures": failures}
    return result, (PROVEN if not failures else FAILED)


# ------------------------------------------------------------------- cvn ops

def op_cvn_len(args: dict):
    graph = docs.load_marked_graph(_require(args, "graph"))
    w = _word_arg(args, "word", graph.rank)
    return {"word": w, "translation_length": graph.translation_length(w)}, PROVEN


def op_cvn_vol(args: dict):
    graph = docs.load_marked_graph(_require(args, "graph"))
    return {"volume": graph.volume(),
            "bounded_backtracking": graph.bounded_backtracking_constant()}, PROVEN


def op_cvn_minsub(args: dict):
    graph = docs.load_marked_graph(_require(args, "graph"))
    subgroup = docs.load_subgroup(_require(args, "subgroup"))
    if subgroup.rank != graph.rank:
        raise ParseError("subgroup rank does not match the graph's rank")
    return minimal_subtree(graph, subgroup).core_summary(), PROVEN


def op_cvn_omega(args: dict):
    graph = docs.load_marked_graph(_require(args, "graph"))
    epsilon = _scalar_arg(args, "epsilon")
    max_word = _int_arg(args, "max_word", 8)
    classes = graph.omega_epsilon(epsilon, max_word)
    return {"epsilon": epsilon, "max_word": max_word,
            "classes": [str(w) for w in classes]}, PROVEN


def op_cvn_transverse(args: dict):
    graph = docs.load_marked_graph(_require(args, "graph"))
    subgroup = docs.load_subgroup(_require(args, "subgroup"))
    if subgroup.rank != graph.rank:
        raise ParseError("subgroup rank does not match the graph's rank")
    max_word = _int_arg(args, "max_word", 8)
    radius = _int_arg(args, "radius", 6)
    rep = transverse_family_report(graph, subgroup, max_word, radius)
    kind = BUDGET if rep["verdict"] == "transverse-up-to-budget" else PROVEN
    return rep, kind


# ------------------------------------------------------------------- soi ops

def op_soi_orbit(args: dict):
    system = docs.load_system(_require(args, "system"))
    x = _scalar_arg(args, "point")
    budget = _int_arg(args, "budget", 500)
    status, points = orbit(system, x, budget)
    return {"status": status, "point": x, "count": len(points),
            "points": points, "budget": budget}, \
        (PROVEN if status == "closed" else BUDGET)


def op_soi_families(args: dict):
    system = docs.load_system(_require(args, "system"))
    budget = _int_arg(args, "budget", 500)
    rep = finite_orbit_families(system, budget)
    return rep, (PROVEN if rep["status"] == "complete" else BUDGET)


def op_soi_glp(args: dict):
    system = docs.load_system(_require(args, "system"))
    max_word = _int_arg(args, "max_word", 8)
    budget = _int_arg(args, "budget", 500)
    rep = balance_report(system, max_word, budget)
    kind = PROVEN if rep["verdict"] in ("identity-verified",
                                        "dependent-certified") else BUDGET
    return rep, kind


def op_soi_grow(args: dict):
    system = docs.load_system(_require(args, "system"))
    start = docs.load_multi(_require(args, "start"), "start")
    steps = _int_arg(args, "steps", 8)
    stages = grow_forest(system, start, steps)
    non_increasing = all(
        stages[i + 1]["residual"] <= stages[i]["residual"]
        for i in range(len(stages) - 1))
    drops = 0
    while (drops + 1 < len(stages)
           and stages[drops + 1]["residual"] < stages[drops]["residual"]):
        drops += 1
    return {"stages": stages, "steps": steps,
            "non_increasing": non_increasing,
            "leading_strict_drops": drops}, PROVEN


def op_soi_cover(args: dict):
    system = docs.load_system(_require(args, "system"))
    f_eps = docs.load_multi(_require(args, "seed_set"), "seed_set")
    target = docs.load_interval(_require(args, "target"), "target")
    delta = _scalar_arg(args, "delta")
    max_word = _int_arg(args, "max_word", 8)
    rep = ae_support_check(system, f_eps, target, delta, max_word)
    return rep, (PROVEN if rep["status"] == "covered" else BUDGET)


def op_soi_indecomp(args: dict):
    system = docs.load_system(_require(args, "system"))
    piece = docs.load_interval(_require(args, "piece"), "piece")
    target = docs.load_interval(_require(args, "target"), "target")
    r_max = _int_arg(args, "chain_max", 8)
    max_word = _int_arg(args, "max_word", 8)
    rep = indecomposability_search(system, piece, target, r_max, max_word)
    return rep, (PROVEN if rep["status"] == "chain-found" else BUDGET)


def op_soi_sub_orbit(args: dict):
    system = docs.load_system(_require(args, "system"))
    subgroup = docs.load_subgroup(_require(args, "subgroup"))
    x = _scalar_arg(args, "point")
    budget = _int_arg(args, "budget", 500)
    status, points = subgroup_constrained_orbit(system, subgroup, x, budget)
    return {"status": status, "point": x, "count": len(points),
            "points": points, "budget": budget}, \
        (PROVEN if status == "closed" else BUDGET)


def op_soi_saturate(args: dict):
    system = docs.load_system(_require(args, "system"))
    subgroup = docs.load_subgroup(_require(args, "subgroup"))
    piece = docs.load_interval(_require(args, "piece"), "piece")
    max_word = _int_arg(args, "max_word", 8)
    steps = _int_arg(args, "steps", 10)
    rep = subgroup_saturation(system, subgroup, piece, max_word, steps)
    return rep, (PROVEN if rep["saturated"] else BUDGET)


def op_soi_discrete(args: dict):
    system = docs.load_system(_require(args, "system"))
    subgroup = docs.load_subgroup(_require(args, "subgroup"))
    samples = [docs.scalar_field(s, "sample point")
               for s in _require(args, "samples")]
    budget = _int_arg(args, "budget", 500)
    rep = discreteness_report(system, subgroup, samples, budget)
    all_closed = all(row["status"] == "closed" for row in rep["samples"])
    return rep, (PROVEN if all_closed else BUDGET)


# --------------------------------------------------------------- measure ops

def op_measure_check(args: dict):
    system = docs.load_system(_require(args, "system"))
    mu = docs.load_measure(_require(args, "measure"))
    rep = invariance_check(system, mu)
    rep["total"] = mu.total
    return rep, PROVEN


def op_measure_combine(args: dict):
    mu1 = docs.load_measure(_require(args, "measure"))
    mu2 = docs.load_measure(_require(args, "other"))
    c1 = _scalar_arg(args, "c1", "1")
    c2 = _scalar_arg(args, "c2", "1")
    out = combine(c1, mu1, c2, mu2)
    return {"measure": docs.dump_measure(out), "total": out.total}, PROVEN


# ------------------------------------------------------------------- lam ops

def op_lam_carries(args: dict):
    subgroup = docs.load_subgroup(_require(args, "subgroup"))
    if args.get("leaf") is not None:
        leaf = docs.load_leaf(args["leaf"], subgroup.rank)
    else:
        g = _word_arg(args, "word", subgroup.rank)
        leaf = periodic_leaf(g)
    return {"leaf": str(leaf), "carries": carries(subgroup, leaf),
            "subgroup_index": index(subgroup)}, PROVEN


def op_lam_scan(args: dict):
    graph = docs.load_marked_graph(_require(args, "graph"))
    subgroup = docs.load_subgroup(_require(args, "subgroup"))
    if subgroup.rank != graph.rank:
        raise ParseError("subgroup rank does not match the graph's rank")
    epsilon = _scalar_arg(args, "epsilon")
    max_word = _int_arg(args, "max_word", 4)
    max_translate = _int_arg(args, "max_translate", 2)
    rep = carrier_scan(graph, subgroup, epsilon, max_word, max_translate)
    kind = PROVEN if rep["status"] == "carried-leaves-found" else BUDGET
    return rep, kind


OPERATIONS = {
    "stallings.core": op_stallings_core,
    "stallings.member": op_stallings_member,
    "stallings.index": op_stallings_index,
    "stallings.meet": op_stallings_meet,
    "stallings.conj": op_stallings_conj,
    "stallings.hall": op_stallings_hall,
    "stallings.hall_random_batch": op_stallings_hall_random_batch,
    "cvn.len": op_cvn_len,
    "cvn.vol": op_cvn_vol,
    "cvn.minsub": op_cvn_minsub,
    "cvn.omega": op_cvn_omega,
    "cvn.transverse": op_cvn_transverse,
    "soi.orbit": op_soi_orbit,
    "soi.families": op_soi_families,
    "soi.glp": op_soi_glp,
    "soi.grow": op_soi_grow,
    "soi.cover": op_soi_cover,
    "soi.indecomp": op_soi_indecomp,
    "soi.sub_orbit": op_soi_sub_orbit,
    "soi.saturate": op_soi_saturate,
    "soi.discrete": op_soi_discrete,
    "measure.check": op_measure_check,
    "measure.combine": op_measure_combine,
    "lam.carries": op_lam_carries,
    "lam.scan": op_lam_scan,
}

_SEEDED_OPS = {"stallings.hall_random_batch"}


def run_op(op: str, args: dict):
    if op not in OPERATIONS:
        raise ParseError(f"unknown operation {op!r}")
    return OPERATIONS[op](args)


# --------------------------------------------------------------- expectation

def subset_match(expected, actual, path: str = "result") -> list[str]:
    """Path-labelled diffs where `actual` fails to contain `expected`."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {_show(actual)}"]
        out = []
        for key, want in expected.items():
            if key not in actual:
                out.append(f"{path}.{key}: expected {_show(want)}, "
                           f"but the key is absent")
            else:
                out.extend(subset_match(want, actual[key], f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list):
            return [f"{path}: expected a list, got {_show(actual)}"]
        if len(expected) != len(actual):
            return [f"{path}: expected {len(expected)} entries, "
                    f"got {len(actual)}"]
        out = []
        for i, (want, got) in enumerate(zip(expected, actual)):
            out.extend(subset_match(want, got, f"{path}[{i}]"))
        return out
    if expected != actual:
        return [f"{path}: expected {_show(expected)}, got {_show(actual)}"]
    return []


def _show(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (dict, list)):
        text = repr(value)
        return text if len(text) <= 120 else text[:117] + "..."
    return str(value)


# ------------------------------------------------------------------ scenarios

@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    steps: tuple = ()
    seed: int | None = None


def scenario_from_doc(doc: dict) -> Scenario:
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("scenario: field 'name' must be a non-empty string")
    steps = doc.get("steps")
    if not isinstance(steps, list) or not steps:
        raise ParseError("scenario: field 'steps' must be a non-empty list")
    for i, step in enumerate(steps):
        if not isinstance(step, dict) or not isinstance(step.get("op"), str):
            raise ParseError(f"scenario step {i}: expected an object with "
                             f"an 'op' name")
        if not isinstance(step.get("args", {}), dict):
            raise ParseError(f"scenario step {i}: 'args' must be an object")
        if not isinstance(step.get("expect", {}), dict):
            raise ParseError(f"scenario step {i}: 'expect' must be an object")
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)):
        raise ParseError("scenario: field 'seed' must be an integer")
    return Scenario(name=name, description=doc.get("description", ""),
                    steps=tuple(steps), seed=seed)


def run_scenario(scenario: Scenario, seed_override: int | None = None) -> dict:
    seed = scenario.seed if seed_override is None else seed_override
    step_reports = []
    worst_kind = PROVEN
    failures = 0
    for i, step in enumerate(scenario.steps):
        op = step["op"]
        args = dict(step.get("args", {}))
        if seed is not None and op in _SEEDED_OPS and "seed" not in args:
            args["seed"] = seed
        expect = step.get("expect", {})
        row = {"index": i, "op": op}
        if step.get("label"):
            row["label"] = step["label"]
        try:
            result, kind = run_op(op, args)
        except Exception as exc:
            row["status"] = "error"
            row["ok"] = False
            row["error"] = f"{type(exc).__name__}: {exc}"
            failures += 1
            step_reports.append(row)
            continue
        actual = to_jsonable(result)
        mismatches = subset_match(expect, actual)
        step_failed = bool(mismatches) or kind == FAILED
        row["status"] = kind
        row["ok"] = not step_failed
        if mismatches:
            row["mismatches"] = mismatches
        if step_failed:
            failures += 1
        elif kind == BUDGET and worst_kind == PROVEN:
            worst_kind = BUDGET
        step_reports.append(row)
    exit_code = 1 if failures else (2 if worst_kind == BUDGET else 0)
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "seed": seed,
        "steps": step_reports,
        "passed": len(step_reports) - failures,
        "failed": failures,
        "exit_code": exit_code,
    }


# -------------------------------------------------------- bundled scenarios

def _balanced_glp_steps() -> list[dict]:
    from .corpus import balanced_corpus
    steps = []
    for name, system, expected_e in balanced_corpus():
        steps.append({
            "op": "soi.glp",
            "args": {"system": docs.dump_system(system),
                     "max_word": 8, "budget": 500},
            "expect": {"verdict": "identity-verified", "residual": "0",
                       "e": str(expected_e)},
            "label": name,
        })
    return steps


def _grow_steps() -> list[dict]:
    from .corpus import grow_corpus
    steps = []
    for name, system, start in grow_corpus():
        expect = {"non_increasing": True}
        if name == "golden-strict":
            expect["leading_strict_drops"] = 4
        steps.append({
            "op": "soi.grow",
            "args": {"system": docs.dump_system(system),
                     "start": to_jsonable(start), "steps": 8},
            "expect": expect,
            "label": name,
        })
    return steps


def _main_theorem_steps() -> list[dict]:
    from .corpus import golden_system, index_two_cover_graph
    system_doc = docs.dump_system(golden_system())
    cover_basis = [str(w) for w in basis_of(index_two_cover_graph())]
    rows = [
        ("whole-group", ["a", "b"], "suggests-dense", None),
        ("cyclic-a", ["a"], "suggests-discrete", "3/2-1/2*sqrt5"),
        ("index-two-cover", cover_basis, "suggests-dense", None),
    ]
    steps = []
    for label, gens, verdict, gap in rows:
        expect = {"verdict": verdict, "heuristic": True}
        if gap is not None:
            expect["min_gap"] = gap
        steps.append({
            "op": "soi.discrete",
            "args": {"system": system_doc,
                     "subgroup": {"rank": 2, "generators": gens},
                     "samples": ["0"], "budget": 400},
            "expect": expect,
            "label": label,
        })
    return steps


def _carrier_steps() -> list[dict]:
    from .corpus import index_two_cover_graph, lopsided_rose
    graph_doc = docs.dump_marked_graph(lopsided_rose())
    cover_basis = [str(w) for w in basis_of(index_two_cover_graph())]
    common = {"graph": graph_doc, "epsilon": "1/2",
              "max_word": 4, "max_translate": 2}
    return [
        {"op": "lam.scan",
         "args": {**common, "subgroup": {"rank": 2, "generators": cover_basis}},
         "expect": {"status": "carried-leaves-found", "subgroup_index": 2},
         "label": "finite-index-cover"},
        {"op": "lam.scan",
         "args": {**common, "subgroup": {"rank": 2, "generators": ["baB"]}},
         "expect": {"status": "none-up-to-budget", "carried": []},
         "label": "conjugated-cyclic"},
        {"op": "lam.scan",
         "args": {**common, "subgroup": {"rank": 2, "generators": ["a"]}},
         "expect": {"status": "carried-leaves-found", "subgroup_index": None},
         "label": "cyclic-negative-control"},
    ]


def _hall_steps() -> list[dict]:
    return [
        {"op": "stallings.hall",
         "args": {"subgroup": {"rank": 2, "generators": ["aa", "b"]},
                  "word": "a"},
         "expect": {"cover_index": 2, "checks": {"ok": True}},
         "label": "worked-extension"},
        {"op": "stallings.hall_random_batch",
         "args": {"count": 200},
         "expect": {"count": 200, "verified": 200, "failures": []},
         "label": "random-batch"},
    ]


def bundled_scenarios() -> dict[str, Scenario]:
    return {
        "hall": Scenario(
            name="hall",
            description="finite-index extensions: a worked example plus 200 "
                        "random instances, every witness re-verified",
            steps=tuple(_hall_steps()),
            seed=42),
        "glp": Scenario(
            name="glp",
            description="balance identity m - d - e = 0 across the balanced "
                        "corpus of interval-isometry systems",
            steps=tuple(_balanced_glp_steps())),
        "grow": Scenario(
            name="grow",
            description="support iteration: residuals are non-increasing on "
                        "every corpus pair; the golden seed drops strictly "
                        "four times",
            steps=tuple(_grow_steps())),
        "main-theorem": Scenario(
            name="main-theorem",
            description="orbit-spacing heuristics for the golden system: the "
                        "whole group and an index-two subgroup look dense, a "
                        "cyclic subgroup looks discrete",
            steps=tuple(_main_theorem_steps())),
        "carrier": Scenario(
            name="carrier",
            description="leaf carrier scans on the lopsided rose: finite "
                        "index carries everything, a conjugated cyclic group "
                        "needs a translate, and the cyclic negative control "
                        "is annotated",
            steps=tuple(_carrier_steps())),
    }
