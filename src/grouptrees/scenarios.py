"""Named operation registry and the deterministic scenario runner.

Every CLI subcommand maps to one operation here, so scripted scenarios and
the command line exercise the same code path.  `run_op` takes a plain
JSON-style argument dict (documents inline, exact values as strings), loads
it by the operation's spec, and returns ``(result, kind)`` where kind is
"proven" (exit 0), "budget" (exit 2: a budget-limited outcome is being
reported) or "failed" (exit 1: an internal consistency check did not hold).
An operation imports its engine when it runs, so a command loads only the
engines it uses.

A scenario is a named list of steps; each step names an operation, its
arguments, and an expected substructure of the result.  Expectations match
by subset: every expected key must be present with a matching value, lists
must match elementwise, and exact values are compared through their
canonical strings.  Mismatches are reported as path-labelled diffs and make
the whole run exit 1.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from . import documents as docs
from .core import Scalar, Word, _Frozen, _letters_text, parse_word
from .errors import ParseError, PreconditionError
from .report import to_jsonable

PROVEN = "proven"
BUDGET = "budget"
FAILED = "failed"


# ------------------------------------------------------------ argument specs

#: The default of an argument that has none: the caller must give it.
REQUIRED = object()


class Arg(NamedTuple):
    """One argument of an operation, and the command-line flag that gives it.

    `run_op` fills in `default`, checks presence and `integer`, converts the
    value by its `kind` (see `KINDS`) and hands the operation a dict with
    exactly the keys of its spec.  A None value counts as absent unless the
    default is None, and is not converted.  Of an argument with `either` and
    that other argument, exactly one must be given.  `budget` arguments are
    echoed in the envelope of a command-line report; an `integer` budget
    must be nonnegative.

    The rest is the command-line surface, whose parsed value is stored under
    `key`: `flag` (by default ``--`` and the key with "-" for "_") and
    `help`.  The flag of an argument whose kind is one of `DOCUMENTS` takes a
    ``FILE``, which names a JSON file holding the document.
    """

    key: str
    default: object = REQUIRED
    integer: bool = False
    budget: bool = False
    either: str | None = None
    flag: str | None = None
    help: str | None = None
    kind: str | None = None


class Op(NamedTuple):
    """A registry entry: its body, its subcommand help and its arguments.

    An entry whose help is None is for scenarios only and has no subcommand.
    """

    fn: Callable[[dict], tuple]
    help: str | None
    args: tuple[Arg, ...] = ()


def _document_in(kind: str, help: str | None = None) -> Arg:
    """The `--in FILE` document of a subcommand."""
    return Arg(kind, flag="--in", kind=kind, help=help)


# Budgets several operations declare: one spec each, so a flag has the same
# help and default on every subcommand that takes it.
POINT_BUDGET = Arg("budget", 500, integer=True, budget=True,
                   help="orbit/search point budget (default 500)")
MAX_WORD = Arg("max_word", 8, integer=True, budget=True,
               help="word-length budget (default 8)")
RADIUS = Arg("radius", 6, integer=True, budget=True,
             help="ball radius for tree comparisons (default 6)")
EPSILON = Arg("epsilon", budget=True, kind="scalar",
              help="exact length threshold, e.g. \"1/2\"")
MAX_TRANSLATE = Arg("max_translate", 2, integer=True, budget=True,
                    help="translate word-length budget (default 2)")

_WORD = Arg("word", kind="word")
_POINT = Arg("point", kind="scalar")
_SUBGROUP = Arg("subgroup", flag="--sub", kind="subgroup")


def _word(value, key: str, rank: int) -> Word:
    if not isinstance(value, str):
        raise ParseError(f"argument '{key}' must be a word string")
    return parse_word(value, rank)


def _samples(value, key: str, rank: int) -> list[Scalar]:
    if not isinstance(value, list):
        value = [value]
    if not value:
        raise ParseError(f"argument '{key}' must list at least one point")
    return [docs.scalar_field(s, "sample point") for s in value]


#: How an argument of each kind becomes an engine value:
#: ``loader(value, key, rank)``, where rank is that of the first subgroup
#: or graph document of the spec.  Each call looks its loader up in `documents`, so a wrapper
#: installed there (as `perfbench/tracer.py` does) sees it.
KINDS = {
    "subgroup": lambda v, key, rank: docs.load_subgroup(v),
    "graph": lambda v, key, rank: docs.load_marked_graph(v),
    "system": lambda v, key, rank: docs.load_system(v),
    "measure": lambda v, key, rank: docs.load_measure(v),
    "leaf": lambda v, key, rank: docs.load_leaf(v, rank),
    "word": _word,
    "scalar": lambda v, key, rank: docs.scalar_field(v, f"argument '{key}'"),
    "intervals": lambda v, key, rank: docs.load_multi(v, key),
    "interval": lambda v, key, rank: docs.load_interval(v, key),
    "samples": _samples,
}

# The kinds given as JSON objects, and those of them that carry a rank.
DOCUMENTS = ("subgroup", "graph", "system", "measure", "leaf")
_RANKED = ("subgroup", "graph")


def _bind(spec: Op, args: dict) -> dict:
    """The spec's arguments from `args`: defaults filled in, checked, and
    converted by kind in spec order."""
    bound = {}
    for arg in spec.args:
        value = args.get(arg.key, arg.default)
        if (arg.either is not None
                and (value is None) == (args.get(arg.either) is None)):
            if value is not None:
                raise ParseError(f"give exactly one of '{arg.key}' or '{arg.either}'")
            value = REQUIRED
        if value is REQUIRED or (value is None and arg.default is not None):
            raise ParseError(f"missing required argument '{arg.key}'")
        if arg.integer and (isinstance(value, bool)
                            or not isinstance(value, int)):
            raise ParseError(f"argument '{arg.key}' must be an integer")
        if arg.integer and arg.budget and value < 0:
            raise PreconditionError(
                f"{arg.key} must be nonnegative, not {value}")
        bound[arg.key] = value
    first = rank = None  # the first document with a rank, and its rank
    for arg in spec.args:
        value = bound[arg.key]
        if arg.kind is None or value is None:
            continue
        if arg.kind in DOCUMENTS and not isinstance(value, dict):
            raise ParseError(f"argument '{arg.key}' must be a JSON object")
        value = bound[arg.key] = KINDS[arg.kind](value, arg.key, rank)
        if arg.kind in _RANKED and rank is None:
            first, rank = arg.key, value.rank
        elif arg.kind in _RANKED and value.rank != rank:
            raise ParseError(f"argument '{arg.key}' has rank {value.rank}, "
                             f"but argument '{first}' has rank {rank}")
    return bound


# ------------------------------------------------------------- stallings ops

def op_stallings_core(args: dict):
    from .stallings import rank_of
    graph = args["subgroup"]
    return {"graph": graph, "subgroup_rank": rank_of(graph)}, PROVEN


def op_stallings_member(args: dict):
    from .stallings import membership
    w = args["word"]
    return {"word": w, "member": membership(args["subgroup"], w.letters)}, PROVEN


def op_stallings_index(args: dict):
    from .stallings import index
    graph = args["subgroup"]
    return {"index": index(graph), "vertices": graph.nv}, PROVEN


def op_stallings_meet(args: dict):
    from .stallings import fiber_product, rank_of
    meet = fiber_product(args["subgroup"], args["other"])
    return {"graph": meet, "subgroup_rank": rank_of(meet)}, PROVEN


def op_stallings_conj(args: dict):
    from .stallings import conjugate
    g = args["word"]
    return {"graph": conjugate(args["subgroup"], g), "conjugator": g}, PROVEN


def op_stallings_hall(args: dict):
    from .stallings import hall_completion
    witness = hall_completion(args["subgroup"], args["word"])
    checks = witness.verify()
    return {
        "cover": witness.cover,
        "cover_index": witness.cover_index,
        "h_basis": [str(w) for w in witness.h_basis],
        "complement_basis": [str(w) for w in witness.complement_basis],
        "excluded": None if witness.excluded is None else str(witness.excluded),
        "checks": checks,
    }, (PROVEN if checks["ok"] else FAILED)


def op_stallings_hall_random_batch(args: dict):
    from .corpus import random_hall_instances
    from .stallings import basis_of, hall_completion
    count, seed = args["count"], args["seed"]
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
    w = args["word"]
    return {"word": w,
            "translation_length": args["graph"].translation_length(w)}, PROVEN


def op_cvn_vol(args: dict):
    volume = args["graph"].volume()
    # the volume bounds backtracking of broken geodesics in the cover
    return {"volume": volume, "bounded_backtracking": volume}, PROVEN


def op_cvn_minsub(args: dict):
    from .marked_graphs import CoverCore
    return CoverCore(args["graph"], args["subgroup"]).core_summary(), PROVEN


def op_cvn_omega(args: dict):
    epsilon, max_word = args["epsilon"], args["max_word"]
    classes = args["graph"].omega_epsilon(epsilon, max_word)
    return {"epsilon": epsilon, "max_word": max_word,
            "classes": [_letters_text(w) for w in classes]}, PROVEN


def op_cvn_transverse(args: dict):
    from .marked_graphs import transverse_family_report
    rep = transverse_family_report(args["graph"], args["subgroup"],
                                   args["max_word"], args["radius"])
    kind = BUDGET if rep["verdict"] == "transverse-up-to-budget" else PROVEN
    return rep, kind


# ------------------------------------------------------------------- soi ops

def _orbit_result(args: dict, found: tuple):
    status, points = found
    return {"status": status, "point": args["point"], "count": len(points),
            "points": points, "budget": args["budget"]}, \
        (PROVEN if status == "closed" else BUDGET)


def op_soi_orbit(args: dict):
    from .isometry_systems import orbit
    return _orbit_result(args, orbit(args["system"], args["point"],
                                     args["budget"]))


def op_soi_families(args: dict):
    from .isometry_systems import finite_orbit_families
    rep = finite_orbit_families(args["system"], args["budget"])
    return rep, (PROVEN if rep["status"] == "complete" else BUDGET)


def op_soi_glp(args: dict):
    from .isometry_systems import balance_report
    rep = balance_report(args["system"], args["max_word"], args["budget"])
    kind = PROVEN if rep["verdict"] in ("identity-verified",
                                        "dependent-certified") else BUDGET
    return rep, kind


def op_soi_grow(args: dict):
    from .isometry_systems import grow_forest
    steps = args["steps"]
    stages = grow_forest(args["system"], args["start"], steps)
    non_increasing = all(b["residual"] <= a["residual"]
                         for a, b in zip(stages, stages[1:]))
    drops = 0
    while (drops + 1 < len(stages)
           and stages[drops + 1]["residual"] < stages[drops]["residual"]):
        drops += 1
    return {"stages": stages, "steps": steps,
            "non_increasing": non_increasing,
            "leading_strict_drops": drops}, PROVEN


def op_soi_cover(args: dict):
    from .isometry_systems import ae_support_check
    rep = ae_support_check(args["system"], args["seed_set"], args["target"],
                           args["delta"], args["max_word"])
    return rep, (PROVEN if rep["status"] == "covered" else BUDGET)


def op_soi_indecomp(args: dict):
    from .isometry_systems import indecomposability_search
    rep = indecomposability_search(args["system"], args["piece"],
                                   args["target"], args["chain_max"],
                                   args["max_word"])
    return rep, (PROVEN if rep["status"] == "chain-found" else BUDGET)


def op_soi_sub_orbit(args: dict):
    from .isometry_systems import subgroup_constrained_orbit
    return _orbit_result(args, subgroup_constrained_orbit(
        args["system"], args["subgroup"], args["point"], args["budget"]))


def op_soi_saturate(args: dict):
    from .isometry_systems import subgroup_saturation
    rep = subgroup_saturation(args["system"], args["subgroup"], args["piece"],
                              args["max_word"], args["steps"])
    return rep, (PROVEN if rep["saturated"] else BUDGET)


def op_soi_discrete(args: dict):
    from .isometry_systems import discreteness_report
    rep = discreteness_report(args["system"], args["subgroup"],
                              args["samples"], args["budget"])
    all_closed = all(row["status"] == "closed" for row in rep["samples"])
    return rep, (PROVEN if all_closed else BUDGET)


# --------------------------------------------------------------- measure ops

def op_measure_check(args: dict):
    from .measures import invariance_check
    mu = args["measure"]
    rep = invariance_check(args["system"], mu)
    rep["total"] = mu.total
    return rep, PROVEN


def op_measure_combine(args: dict):
    from .measures import combine
    out = combine(args["c1"], args["measure"], args["c2"], args["other"])
    return {"measure": out, "total": out.total}, PROVEN


# ------------------------------------------------------------------- lam ops

def op_lam_carries(args: dict):
    from .laminations import _leaf_text, carries, periodic_leaf
    from .stallings import index
    subgroup, leaf = args["subgroup"], args["leaf"]
    if leaf is None:
        leaf = periodic_leaf(args["word"].letters)
    return {"leaf": _leaf_text(leaf), "carries": carries(subgroup, leaf),
            "subgroup_index": index(subgroup)}, PROVEN


def op_lam_scan(args: dict):
    from .laminations import carrier_scan
    rep = carrier_scan(args["graph"], args["subgroup"], args["epsilon"],
                       args["max_word"], args["max_translate"])
    kind = PROVEN if rep["status"] == "carried-leaves-found" else BUDGET
    return rep, kind


# The arguments of each entry are listed with the budgets in the order a
# command-line report echoes them.
OPERATIONS = {
    "stallings.core": Op(op_stallings_core,
                         "fold a generating set into its core graph",
                         (_document_in("subgroup"),)),
    "stallings.member": Op(op_stallings_member,
                           "test whether a word lies in the subgroup",
                           (_document_in("subgroup"), _WORD)),
    "stallings.index": Op(op_stallings_index,
                          "index of the subgroup (null if infinite)",
                          (_document_in("subgroup"),)),
    "stallings.meet": Op(op_stallings_meet, "intersection of two subgroups",
                         (_document_in("subgroup"),
                          Arg("other", kind="subgroup"))),
    "stallings.conj": Op(op_stallings_conj, "conjugate the subgroup by a word",
                         (_document_in("subgroup"), _WORD)),
    "stallings.hall": Op(op_stallings_hall,
                         "finite-index extension with verified witness",
                         (_document_in("subgroup"),
                          Arg("word", None, kind="word",
                              help="word to keep outside the extension"))),
    "stallings.hall_random_batch": Op(op_stallings_hall_random_batch, None,
                                      (Arg("count", 200, integer=True, budget=True),
                                       Arg("seed", 0, integer=True))),
    "cvn.len": Op(op_cvn_len, "translation length of a word",
                  (_document_in("graph"), _WORD)),
    "cvn.vol": Op(op_cvn_vol, "total edge volume", (_document_in("graph"),)),
    "cvn.minsub": Op(op_cvn_minsub, "minimal subtree data for a subgroup",
                     (_document_in("graph"), _SUBGROUP)),
    "cvn.omega": Op(op_cvn_omega, "conjugacy classes shorter than epsilon",
                    (_document_in("graph"), MAX_WORD, EPSILON)),
    "cvn.transverse": Op(op_cvn_transverse,
                         "transverse-family check for translates",
                         (_document_in("graph"), _SUBGROUP, MAX_WORD, RADIUS)),
    "soi.orbit": Op(op_soi_orbit, "orbit of a point under the system",
                    (_document_in("system"), _POINT, POINT_BUDGET)),
    "soi.families": Op(op_soi_families,
                       "finite-orbit families and their total length",
                       (_document_in("system"), POINT_BUDGET)),
    "soi.glp": Op(op_soi_glp, "balance identity m - d - e = 0 with verdict",
                  (_document_in("system"), POINT_BUDGET, MAX_WORD)),
    "soi.grow": Op(op_soi_grow, "support iteration with residual sequence",
                   (_document_in("system"),
                    Arg("start", kind="intervals",
                        help="starting interval set, "
                             "e.g. '[[\"0\",\"1/8\"]]'"),
                    Arg("steps", 8, integer=True, budget=True))),
    "soi.cover": Op(op_soi_cover,
                    "almost-everywhere support cover from a seed set",
                    (_document_in("system"),
                     Arg("seed_set", kind="intervals",
                         help="seed interval set, e.g. '[[\"0\",\"1/5\"]]'"),
                     Arg("target", kind="interval",
                         help="target interval, e.g. '[\"0\",\"1\"]'"),
                     MAX_WORD,
                     Arg("delta", budget=True, kind="scalar",
                         help="allowed uncovered length, e.g. \"1/100\""))),
    "soi.indecomp": Op(op_soi_indecomp,
                       "chain of overlapping images joining two pieces",
                       (_document_in("system"),
                        Arg("piece", kind="interval",
                            help="source interval, e.g. '[\"0\",\"1/10\"]'"),
                        Arg("target", kind="interval",
                            help="target interval, e.g. '[\"1/2\",\"3/5\"]'"),
                        MAX_WORD,
                        Arg("chain_max", 8, integer=True, budget=True,
                            help="longest chain to attempt (default 8)"))),
    "soi.sub_orbit": Op(op_soi_sub_orbit,
                        "orbit restricted to subgroup-labelled words",
                        (_document_in("system"), _SUBGROUP, _POINT,
                         POINT_BUDGET)),
    "soi.saturate": Op(op_soi_saturate,
                       "saturate a piece under subgroup translates",
                       (_document_in("system"), _SUBGROUP,
                        Arg("piece", kind="interval"),
                        MAX_WORD, Arg("steps", 10, integer=True, budget=True))),
    "soi.discrete": Op(op_soi_discrete,
                       "orbit-spacing heuristic for a subgroup action",
                       (_document_in("system"), _SUBGROUP,
                        Arg("samples", "0", kind="samples",
                            help="sample point or JSON list, "
                                 "e.g. '[\"0\",\"1/2\"]'"),
                        POINT_BUDGET)),
    "measure.check": Op(op_measure_check,
                        "invariance of a measure under a system",
                        (_document_in("system", "system document"),
                         Arg("measure", kind="measure"))),
    "measure.combine": Op(op_measure_combine,
                          "non-negative combination of two measures",
                          (Arg("measure", kind="measure"),
                           Arg("other", kind="measure"),
                           Arg("c1", "1", kind="scalar",
                               help="coefficient for the first "
                                    "measure (default 1)"),
                           Arg("c2", "1", kind="scalar",
                               help="coefficient for the second "
                                    "measure (default 1)"))),
    "lam.carries": Op(op_lam_carries, "does the subgroup graph carry a leaf?",
                      (_document_in("subgroup", "subgroup document"),
                       Arg("word", None, either="leaf", kind="word",
                           help="build the leaf of this word's axis"),
                       Arg("leaf", None, kind="leaf",
                           help="leaf document with two rays"))),
    "lam.scan": Op(op_lam_scan,
                   "scan short leaves for carriers up to translates",
                   (_document_in("graph", "marked graph document"), _SUBGROUP,
                    MAX_WORD, EPSILON, MAX_TRANSLATE)),
}


def run_op(op: str, args: dict):
    spec = OPERATIONS.get(op)
    if spec is None:
        raise ParseError(f"unknown operation {op!r}")
    return spec.fn(_bind(spec, args))


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

class Scenario(_Frozen):
    __slots__ = ("name", "description", "steps", "seed")

    def __init__(self, name: str, description: str, steps: tuple = (),
                 seed: int | None = None):
        for key, value in zip(self.__slots__, (name, description, steps, seed)):
            object.__setattr__(self, key, value)


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
        spec = OPERATIONS.get(op)
        if (seed is not None and "seed" not in args and spec is not None
                and any(arg.key == "seed" for arg in spec.args)):
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
    from .stallings import basis_of
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
    from .stallings import basis_of
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
