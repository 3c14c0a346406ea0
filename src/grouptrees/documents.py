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


def _checked(where: str, build, *args):
    """build(*args); any error it raises becomes a one-line ParseError
    that names `where`, the part of the input being loaded."""
    try:
        return build(*args)
    except Exception as exc:
        _fail(f"{where}: {exc}")


def parse_json(text: str, where: str | None = None):
    """The JSON value of `text`; malformed or over-deep text, a repeated key,
    NaN or Infinity, or an integer past the digit limit, is a ParseError."""
    prefix = "" if where is None else f"{where}: "

    def unique(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                _fail(f"{prefix}invalid JSON: key {key!r} repeated in one object")
            seen.add(key)
        return dict(pairs)

    def constant(name):
        _fail(f"{prefix}invalid JSON: {name} is not a JSON value")
    try:
        return json.loads(text, object_pairs_hook=unique, parse_constant=constant)
    except json.JSONDecodeError as exc:
        _fail(f"{prefix}invalid JSON: {exc}")
    except RecursionError:
        _fail(f"{prefix}invalid JSON: nesting too deep")
    except ValueError:  # an integer too long to convert: name its field
        def fields(pairs):
            for key, value in pairs:
                if problem := _too_long(value):
                    _fail(f"{prefix}field {key!r}: {problem}")
            return dict(pairs)
        _fail(prefix + _too_long(json.loads(text, object_pairs_hook=fields,
                                            parse_int=_int_or_bytes)))


def _int_or_bytes(text: str):
    """int(text), or its bytes (which JSON never yields) if too long to convert."""
    try:
        return int(text)
    except ValueError:
        return text.encode()


def _too_long(value) -> str | None:
    """What is wrong with the first over-long integer in `value` or its lists."""
    if isinstance(value, list):
        return next(filter(None, map(_too_long, value)), None)
    if isinstance(value, bytes):
        return f"an integer of {len(value.lstrip(b'-'))} digits is too long"


def load_json(text: str, where: str) -> dict:
    """The JSON object of `text`, the document `where` names."""
    doc = parse_json(text, where)
    if not isinstance(doc, dict):
        _fail(f"{where}: top-level JSON value must be an object")
    return doc


def scalar_field(value, where: str) -> Scalar:
    if isinstance(value, float):
        _fail(f"{where}: floats are not accepted; write the exact value "
              f"as a string such as \"1/2\" or \"3/2-1/2*sqrt5\"")
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        _fail(f"{where}: expected an exact value string")
    return _checked(where, Scalar.parse if isinstance(value, str) else Scalar.of, value)


def _int_field(doc: dict, key: str, where: str) -> int:
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where}: field '{key}' must be an integer")
    return value


def _check_field(system_d: int | None, scalar: Scalar, where: str) -> Scalar:
    """`scalar`, if it lies in Q(sqrt system_d); None declares no field."""
    if system_d is not None and scalar.d not in (1, system_d):
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
        words.append(_checked(f"subgroup generator {g!r}", parse_word, g, rank))
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
        marking[id_to_index[eid]] = _checked(
            f"graph marking for edge {eid}", parse_word, text, rank)

    base = doc.get("base", 0)
    if isinstance(base, bool) or not isinstance(base, int):
        _fail("graph: field 'base' must be an integer vertex")
    return _checked("graph", MarkedMetricGraph, rank, nv,
                    tuple((u, v, length) for _, u, v, length in rows),
                    frozenset(tree), marking, base)


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

def _interval_pair(value, where: str, d: int | None = None) -> Interval:
    """[lo, hi] -> Interval.  Only a system document declares a field `d`; an
    inline pair may use any one, and one mixing two fails in Interval."""
    from .intervals import Interval
    if not isinstance(value, list) or len(value) != 2:
        _fail(f"{where}: expected [lo, hi]")
    lo = _check_field(d, scalar_field(value[0], f"{where} lo"), where)
    hi = _check_field(d, scalar_field(value[1], f"{where} hi"), where)
    return _checked(where, Interval, lo, hi)


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
    forest = MultiInterval([_interval_pair(pair, f"system forest[{i}]", d)
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
        dom = _interval_pair(row.get("dom"), f"{where} dom", d)
        orient = row.get("orient", 1)
        if type(orient) is not int or orient not in (1, -1):
            _fail(f"{where}: field 'orient' must be 1 or -1")
        offset = row.get("offset")
        to = row.get("to")
        if offset is None and to is None:
            _fail(f"{where}: give 'offset' or 'to' (left endpoint of the "
                  f"image interval)")
        off = (None if offset is None
               else _check_field(d, scalar_field(offset, f"{where} offset"), where))
        if to is not None:
            to_val = _check_field(d, scalar_field(to, f"{where} to"), where)
            # image of dom under (orient, offset): orient==1 -> [lo+off, hi+off];
            # orient==-1 -> [-hi+off, -lo+off].  'to' names the image's left end.
            derived = to_val - dom.lo if orient == 1 else to_val + dom.hi
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
    return _checked("system", SoISystem, forest, gens, label_tuple)


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
    return _checked(where, MultiInterval, [_interval_pair(pair, f"{where}[{i}]")
                                           for i, pair in enumerate(value)])


def load_interval(value, where: str = "interval") -> Interval:
    if isinstance(value, str):
        value = parse_json(value, where)
    return _interval_pair(value, where)


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
        pieces.append((_checked(where, Interval, lo, hi), density))
    return _checked("measure", LengthMeasure, pieces)


# -------------------------------------------------------------- laminations

def load_ray(doc: dict, rank: int) -> tuple:
    """{"prefix": "ba", "period": "a"} -> the canonical (prefix, period)
    letter tuples of an eventually periodic ray."""
    from .laminations import _canonical_ray, _primitive_root
    if not isinstance(doc, dict):
        _fail("ray: expected an object with 'prefix' and 'period'")
    prefix_text = doc.get("prefix", "")
    period_text = doc.get("period")
    if not isinstance(period_text, str) or not period_text:
        _fail("ray: field 'period' must be a non-empty word string")
    if not isinstance(prefix_text, str):
        _fail("ray: field 'prefix' must be a word string")
    prefix = _checked("ray", parse_word, prefix_text, rank)
    period = _checked("ray", parse_word, period_text, rank)
    if not period:
        _fail("ray: a boundary ray needs a nonempty period")
    if not period.is_cyclically_reduced():
        _fail(f"ray: period {period} is not cyclically reduced")
    return _canonical_ray(prefix.letters, _primitive_root(period.letters))


def load_leaf(doc: dict, rank: int) -> tuple:
    """{"rays": [ray, ray]} -> the two canonical rays, sorted."""
    from .laminations import _leaf
    rays = doc.get("rays")
    if not isinstance(rays, list) or len(rays) != 2:
        _fail("leaf: field 'rays' must be a list of two rays")
    # the rays' own ParseErrors leave unwrapped
    return _checked("leaf", _leaf, load_ray(rays[0], rank), load_ray(rays[1], rank))
