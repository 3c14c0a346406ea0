"""Rendering in one encoder pass, against the copying renderer it replaced.

`render_json` and `render_text` must give the bytes that
`copying_render_json` and `copying_render_text` (tests/_oracles.py) give:
on every bundled scenario report, on seeded reports of the operations, and
on random nested engine values.  Every registry operation's command-line
run is compared in `tests/test_cli_surface.py`.  A dict key that is not a
str is refused: keys are sorted before they become text, so keys 2 and 10
would come out in number order where the copying renderer put "10" first.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import copying_render_json, copying_render_text, copying_to_jsonable
from grouptrees import documents as docs
from grouptrees.core import Scalar, Word
from grouptrees.corpus import lopsided_rose, theta_graph
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.report import render_json, render_text, to_jsonable, wrap
from grouptrees.scenarios import bundled_scenarios, run_op, run_scenario

S = Scalar.of


def assert_renders_as_before(report):
    assert render_json(report) == copying_render_json(report)
    assert render_text(report) == copying_render_text(report)
    assert to_jsonable(report) == copying_to_jsonable(report)


@pytest.mark.parametrize("name", sorted(bundled_scenarios()))
def test_bundled_scenario_reports(name):
    assert_renders_as_before(wrap("scenario run", run_scenario(bundled_scenarios()[name])))


@pytest.mark.parametrize("seed", range(4))
def test_seeded_hall_batches(seed):
    result, kind = run_op("stallings.hall_random_batch", {"count": 12, "seed": seed})
    assert_renders_as_before(wrap("stallings.hall_random_batch", result))


letters2 = st.sampled_from(["a", "A", "b", "B"])
word_texts = st.lists(letters2, min_size=1, max_size=4).map("".join)
subgroups = st.lists(word_texts, min_size=1, max_size=3).map(
    lambda gens: {"rank": 2, "generators": gens})


@given(subgroups, word_texts, st.sampled_from([lopsided_rose, theta_graph]))
@settings(max_examples=30)
def test_seeded_subgroup_reports(subgroup, word, make_graph):
    graph = docs.dump_marked_graph(make_graph())
    calls = [
        ("stallings.core", {"subgroup": subgroup}),
        ("stallings.member", {"subgroup": subgroup, "word": word}),
        ("stallings.index", {"subgroup": subgroup}),
        ("stallings.meet", {"subgroup": subgroup, "other": {"rank": 2, "generators": [word]}}),
        ("stallings.conj", {"subgroup": subgroup, "word": word}),
        ("stallings.hall", {"subgroup": subgroup}),
        ("cvn.len", {"graph": graph, "word": word}),
        ("cvn.omega", {"graph": graph, "epsilon": "2", "max_word": 4}),
        ("cvn.minsub", {"graph": graph, "subgroup": subgroup}),
        ("cvn.transverse", {"graph": graph, "subgroup": subgroup, "max_word": 2,
                            "radius": 2}),
        ("lam.carries", {"subgroup": subgroup, "word": word}),
        ("lam.scan", {"graph": graph, "subgroup": subgroup, "epsilon": "2",
                      "max_word": 3, "max_translate": 2}),
    ]
    for op, args in calls:
        try:
            result, kind = run_op(op, args)
        except Exception as exc:   # a refused input renders nothing
            assert type(exc).__name__ != "TypeError", (op, exc)
            continue
        envelope = wrap(op, result)
        envelope["status"] = kind
        assert_renders_as_before(envelope)


scalars = st.sampled_from(["0", "-3", "1/2", "-7/9", "sqrt2", "-sqrt5", "1/3*sqrt2",
                           "3/2-1/2*sqrt5", "-2+sqrt3"]).map(S)
words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5).map(
    lambda raw: Word.make(tuple(raw), 2))
intervals = st.sampled_from([("0", "1"), ("1/3", "1/2"), ("-1", "sqrt2")]).map(
    lambda ends: Interval(S(ends[0]), S(ends[1])))
leaves = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                   st.text(max_size=5), scalars, words, intervals,
                   intervals.map(lambda iv: MultiInterval([iv])),
                   st.frozensets(scalars, max_size=4), st.sets(words, max_size=4),
                   st.sets(st.one_of(scalars, words), max_size=4))
values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@given(st.dictionaries(st.text(max_size=4), values, max_size=5))
@settings(max_examples=200)
def test_nested_engine_values(report):
    assert_renders_as_before(report)


def test_a_value_without_a_json_form_is_refused_as_before():
    report = {"graph": lopsided_rose()}
    for render in (render_json, copying_render_json, render_text, copying_render_text):
        with pytest.raises(TypeError, match="^no JSON form for MarkedMetricGraph$"):
            render(report)


@pytest.mark.parametrize("render", [render_json, render_text])
@pytest.mark.parametrize("report", [
    {2: "x", 10: "y"},
    {"rows": [{"a": 1}, {10: "y"}]},
    {"a": 1, 2: "x"},
    {"t": ({None: 1},)},
])
def test_a_key_that_is_not_a_str_is_refused(render, report):
    with pytest.raises(TypeError, match=r"^report key .* is not a str$"):
        render(report)


def test_to_jsonable_turns_int_keys_into_text():
    # it renders nothing, so key order does not arise: keys become text,
    # in insertion order, as they did
    assert to_jsonable({2: "x", 10: "y"}) == copying_to_jsonable({2: "x", 10: "y"})
    assert list(to_jsonable({2: "x", 10: "y"})) == ["2", "10"]


def test_why_int_keys_are_refused():
    # the copying renderer turned keys into text first, the encoder sorts
    # them first: the two orders differ
    assert copying_render_json({2: "x", 10: "y"}) == '{"10":"y","2":"x"}\n'
    assert json.dumps({2: "x", 10: "y"}, sort_keys=True) == '{"2": "x", "10": "y"}'


def test_a_cycle_ends_in_recursion_error_as_before():
    # the encoder looks for no cycles: the key walk meets one first
    report = {"rows": []}
    report["rows"].append(report)
    for render in (render_json, copying_render_json, render_text, copying_render_text):
        with pytest.raises(RecursionError):
            render(report)
