"""JSON document schemas for every CLI object: loaders for all of them, dumpers
for systems and marked graphs (reports render the rest via `report.to_jsonable`).
Each loader imports the engine class it builds when it is called, so a
command loads only the engines of its own documents.

All exact values travel as strings ("1/2", "3/2-1/2*sqrt5"); JSON floats
are rejected so nothing irrational or rounded sneaks in through the text
layer.  A system document carries a "D" field declaring the quadratic
extension its values may live in; every value in the document must stay
inside Q(sqrt D).
"""

from __future__ import annotations

import json

from .core import MAX_RANK, Scalar, field_problem, parse_word
from .errors import ParseError


def _fail(msg: str) -> None:
    raise ParseError(msg)


def parse_json(text: str, where: str | None = None):
    """The JSON value of `text`; malformed or over-deep text is a ParseError."""
    prefix = "" if where is None else f"{where}: "
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"{prefix}invalid JSON: {exc}")
    except RecursionError:
        _fail(f"{prefix}invalid JSON: nesting too deep")


def load_json(text: str) -> dict:
    doc = parse_json(text)
    if not isinstance(doc, dict):
        _fail("top-level JSON value must be an object")
    return doc


def scalar_field(value, where: str) -> Scalar:
    if isinstance(value, float):
        _fail(f"{where}: floats are not accepted; write the exact value "
              f"as a string such as \"1/2\" or \"3/2-1/2*sqrt5\"")
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        _fail(f"{where}: expected an exact value string")
    try:
        return Scalar.of(value)
    except Exception as exc:
        _fail(f"{where}: {exc}")


def _int_field(doc: dict, key: str, where: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where}: field '{key}' must be an integer")
    return value


def _check_field(system_d: int, scalar: Scalar, where: str) -> Scalar:
    if scalar.d not in (1, system_d):
        _fail(f"{where}: value {scalar} uses sqrt{scalar.d} but the "
              f"document declares D={system_d}")
    return scalar


# ---------------------------------------------------------------- subgroups

def load_subgroup(doc: dict) -> StallingsGraph:
    """{"rank": 2, "generators": ["aa", "b", "abA"]} -> core graph."""
    from .stallings import build_core
    rank = _int_field(doc, "rank", "subgroup")
    if not 1 <= rank <= MAX_RANK:
        _fail(f"subgroup: rank must be between 1 and {MAX_RANK}")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        _fail("subgroup: field 'generators' must be a non-empty list")
    words = []
    for g in gens:
        if not isinstance(g, str):
            _fail("subgroup: each generator must be a word string")
        try:
            words.append(parse_word(g, rank))
        except Exception as exc:
            _fail(f"subgroup generator {g!r}: {exc}")
    return build_core(words, rank)


# ------------------------------------------------------------ marked graphs

def load_marked_graph(doc: dict) -> MarkedMetricGraph:
    """Edges carry explicit ids; the spanning tree and marking refer to them."""
    from .marked_graphs import MarkedMetricGraph
    rank = _int_field(doc, "rank", "graph")
    if not 1 <= rank <= MAX_RANK:
        _fail(f"graph: rank must be between 1 and {MAX_RANK}")
    nv = _int_field(doc, "vertices", "graph")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list) or not raw_edges:
        _fail("graph: field 'edges' must be a non-empty list")
    rows = []
    for row in raw_edges:
        if not isinstance(row, dict):
            _fail("graph: each edge must be an object")
        eid = _int_field(row, "id", "graph edge")
        ends = row.get("ends")
        if (not isinstance(ends, list) or len(ends) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in ends)):
            _fail(f"graph edge {eid}: field 'ends' must be [u, v]")
        length = scalar_field(row.get("len"), f"graph edge {eid} len")
        rows.append((eid, ends[0], ends[1], length))
    rows.sort(key=lambda r: r[0])
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        _fail("graph: edge ids must be distinct")
    id_to_index = {eid: i for i, eid in enumerate(ids)}

    tree_ids = doc.get("spanning_tree", [])
    if not isinstance(tree_ids, list):
        _fail("graph: field 'spanning_tree' must be a list of edge ids")
    tree = set()
    for eid in tree_ids:
        if isinstance(eid, bool) or not isinstance(eid, int):
            _fail("graph: field 'spanning_tree' must be a list of edge ids")
        if eid not in id_to_index:
            _fail(f"graph: spanning_tree refers to unknown edge id {eid}")
        if id_to_index[eid] in tree:
            _fail(f"graph: spanning_tree lists edge id {eid} twice")
        tree.add(id_to_index[eid])

    raw_marking = doc.get("marking", {})
    if not isinstance(raw_marking, dict):
        _fail("graph: field 'marking' must map edge ids to words")
    marking = {}
    for key, text in raw_marking.items():
        try:
            eid = int(key)
        except (TypeError, ValueError):
            eid = None
        if eid is None or str(eid) != key:
            _fail(f"graph: marking key {key!r} is not an edge id")
        if eid not in id_to_index:
            _fail(f"graph: marking refers to unknown edge id {eid}")
        if not isinstance(text, str):
            _fail(f"graph: marking for edge {eid} must be a word string")
        try:
            marking[id_to_index[eid]] = parse_word(text, rank)
        except Exception as exc:
            _fail(f"graph marking for edge {eid}: {exc}")

    base = doc.get("base", 0)
    if isinstance(base, bool) or not isinstance(base, int):
        _fail("graph: field 'base' must be an integer vertex")
    try:
        return MarkedMetricGraph(
            rank=rank, nv=nv,
            edges=tuple((u, v, length) for _, u, v, length in rows),
            tree=frozenset(tree), marking=marking, base=base)
    except Exception as exc:
        _fail(f"graph: {exc}")


def dump_marked_graph(graph: MarkedMetricGraph) -> dict:
    return {
        "rank": graph.rank,
        "vertices": graph.nv,
        "edges": [{"id": i, "ends": [u, v], "len": str(length)}
                  for i, (u, v, length) in enumerate(graph.edges)],
        "spanning_tree": sorted(graph.tree),
        "marking": {str(eid): str(w) for eid, w in sorted(graph.marking.items())},
        "base": graph.base,
    }


# -------------------------------------------------------- isometry systems

def _interval_pair(value, d: int, where: str) -> Interval:
    from .intervals import Interval
    if not isinstance(value, list) or len(value) != 2:
        _fail(f"{where}: expected [lo, hi]")
    lo = _check_field(d, scalar_field(value[0], f"{where} lo"), where)
    hi = _check_field(d, scalar_field(value[1], f"{where} hi"), where)
    try:
        return Interval(lo, hi)
    except Exception as exc:
        _fail(f"{where}: {exc}")


def load_system(doc: dict) -> SoISystem:
    """{"D": 5, "forest": [["0","1"]], "generators": [{...}]}."""
    from .intervals import MultiInterval
    from .isometry_systems import PartialIsometry, SoISystem
    d = doc.get("D", 1)
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        _fail("system: field 'D' must be a positive integer")
    problem = field_problem(d)
    if problem is not None:
        _fail(f"system: field 'D': {problem}")
    raw_forest = doc.get("forest")
    if not isinstance(raw_forest, list) or not raw_forest:
        _fail("system: field 'forest' must be a non-empty list of intervals")
    forest = MultiInterval([_interval_pair(pair, d, f"system forest[{i}]")
                            for i, pair in enumerate(raw_forest)])
    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        _fail("system: field 'generators' must be a non-empty list")
    if len(raw_gens) > MAX_RANK:
        _fail(f"system: at most {MAX_RANK} generators, one letter each")
    gens, labels = [], []
    for i, row in enumerate(raw_gens):
        where = f"system generator[{i}]"
        if not isinstance(row, dict):
            _fail(f"{where}: expected an object")
        dom = _interval_pair(row.get("dom"), d, f"{where} dom")
        orient = row.get("orient", 1)
        if type(orient) is not int or orient not in (1, -1):
            _fail(f"{where}: field 'orient' must be 1 or -1")
        offset = row.get("offset")
        to = row.get("to")
        if offset is None and to is None:
            _fail(f"{where}: give 'offset' or 'to' (left endpoint of the "
                  f"image interval)")
        if offset is not None:
            off = _check_field(d, scalar_field(offset, f"{where} offset"),
                               where)
        else:
            off = None
        if to is not None:
            to_val = _check_field(d, scalar_field(to, f"{where} to"), where)
            # image of dom under (orient, offset): orient==1 -> [lo+off, hi+off];
            # orient==-1 -> [-hi+off, -lo+off].  'to' names the image's left end.
            if orient == 1:
                derived = to_val - dom.lo
            else:
                derived = to_val + dom.hi
            if off is None:
                off = derived
            elif off != derived:
                _fail(f"{where}: 'offset' and 'to' disagree "
                      f"({off} vs {derived})")
        gens.append(PartialIsometry(dom, orient, off))
        labels.append(row.get("label"))
    if any(lab is not None for lab in labels):
        if any(lab is None for lab in labels):
            _fail("system: either every generator carries a 'label' or none do")
        for lab in labels:
            if not isinstance(lab, str):
                _fail("system: labels must be strings")
        label_tuple = tuple(labels)
    else:
        label_tuple = None
    try:
        return SoISystem(forest, gens, labels=label_tuple)
    except Exception as exc:
        _fail(f"system: {exc}")


def dump_system(system: SoISystem) -> dict:
    ds = {iv.lo.d for iv in system.forest.components} | \
         {iv.hi.d for iv in system.forest.components}
    for g in system.generators:
        ds |= {g.dom.lo.d, g.dom.hi.d, g.offset.d}
    ds.discard(1)
    if len(ds) > 1:
        raise ParseError(f"system mixes fields: {sorted(ds)}")
    doc = {
        "D": ds.pop() if ds else 1,
        "forest": [[str(iv.lo), str(iv.hi)] for iv in system.forest.components],
        "generators": [],
    }
    for i, g in enumerate(system.generators):
        row = {"dom": [str(g.dom.lo), str(g.dom.hi)],
               "orient": g.orient, "offset": str(g.offset)}
        if system.labels is not None:
            row["label"] = system.labels[i]
        doc["generators"].append(row)
    return doc


def load_multi(value, where: str = "interval set") -> MultiInterval:
    """[["0","1/8"], ...] -> MultiInterval (also accepts a bare pair)."""
    from .intervals import MultiInterval
    if isinstance(value, str):
        value = parse_json(value, where)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (str, int)) for v in value)):
        value = [value]
    if not isinstance(value, list):
        _fail(f"{where}: expected [[lo, hi], ...]")
    return MultiInterval([_interval_pair(pair, _any_d(pair), f"{where}[{i}]")
                          for i, pair in enumerate(value)])


def _any_d(pair) -> int:
    # interval sets on the command line may use any single field; accept all
    for v in pair:
        if isinstance(v, str) and "sqrt" in v:
            try:
                return Scalar.of(v).d
            except Exception:
                return 1
    return 1


def load_interval(value, where: str = "interval") -> Interval:
    if isinstance(value, str):
        value = parse_json(value, where)
    if not isinstance(value, list) or len(value) != 2:
        _fail(f"{where}: expected [lo, hi]")
    return _interval_pair(value, _any_d(value), where)


# ------------------------------------------------------------------ measures

def load_measure(doc: dict) -> LengthMeasure:
    """{"pieces": [{"from": "0", "to": "1/2", "density": "2"}, ...]}."""
    from .intervals import Interval
    from .measures import LengthMeasure
    raw = doc.get("pieces")
    if not isinstance(raw, list) or not raw:
        _fail("measure: field 'pieces' must be a non-empty list")
    pieces = []
    for i, row in enumerate(raw):
        where = f"measure piece[{i}]"
        if not isinstance(row, dict):
            _fail(f"{where}: expected an object")
        lo = scalar_field(row.get("from"), f"{where} from")
        hi = scalar_field(row.get("to"), f"{where} to")
        density = scalar_field(row.get("density"), f"{where} density")
        try:
            pieces.append((Interval(lo, hi), density))
        except Exception as exc:
            _fail(f"{where}: {exc}")
    try:
        return LengthMeasure(pieces)
    except Exception as exc:
        _fail(f"measure: {exc}")


# -------------------------------------------------------------- laminations

def load_ray(doc: dict, rank: int) -> BoundaryRay:
    """{"prefix": "ba", "period": "a"} -> eventually periodic ray."""
    from .laminations import BoundaryRay
    if not isinstance(doc, dict):
        _fail("ray: expected an object with 'prefix' and 'period'")
    prefix_text = doc.get("prefix", "")
    period_text = doc.get("period")
    if not isinstance(period_text, str) or not period_text:
        _fail("ray: field 'period' must be a non-empty word string")
    if not isinstance(prefix_text, str):
        _fail("ray: field 'prefix' must be a word string")
    try:
        prefix = parse_word(prefix_text, rank)
        period = parse_word(period_text, rank)
        return BoundaryRay(prefix, period)
    except Exception as exc:
        _fail(f"ray: {exc}")


def load_leaf(doc: dict, rank: int) -> RationalLeaf:
    from .laminations import RationalLeaf
    rays = doc.get("rays")
    if not isinstance(rays, list) or len(rays) != 2:
        _fail("leaf: field 'rays' must be a list of two rays")
    try:
        return RationalLeaf((load_ray(rays[0], rank), load_ray(rays[1], rank)))
    except ParseError:
        raise
    except Exception as exc:
        _fail(f"leaf: {exc}")
