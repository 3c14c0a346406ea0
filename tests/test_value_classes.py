"""The value classes against the frozen dataclasses they replaced.

`Word`, `Interval`, `PartialIsometry`, `BoundaryRay`, `RationalLeaf`,
`Scenario` and `HallWitness` are plain ``__slots__`` classes; the oracles in
`tests/_oracles.py` are their old ``@dataclass(frozen=True)`` definitions.
On the same arguments both must build equal-looking values or fail with
the same error type and message, and agree on ``==``, ``hash`` and
``repr``.  The hash matters beyond equality: a tuple of ints hashes the
same under every ``PYTHONHASHSEED``, so a changed hash would reorder sets of
words without the hash-seed runs noticing.  The repr matters because
`report.to_jsonable` sorts sets by it.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grouptrees.core import Word, parse_word
from grouptrees.intervals import Interval
from grouptrees.isometry_systems import PartialIsometry
from grouptrees.laminations import BoundaryRay, RationalLeaf
from grouptrees.scenarios import Scenario
from grouptrees.stallings import HallWitness, build_core, hall_completion

from _oracles import (DataclassBoundaryRay, DataclassHallWitness, DataclassInterval,
                      DataclassPartialIsometry, DataclassRationalLeaf, DataclassScenario,
                      DataclassWord)


def _build(cls, args):
    """(value, None) or (None, (error type, message))."""
    try:
        return cls(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _field_error(value, name):
    try:
        setattr(value, name, None)
    except AttributeError as exc:
        return str(exc)
    return None


def check_pair(new_cls, old_cls, args, other_args):
    """`new_cls` behaves as `old_cls` on `args`, and on `other_args` as the
    second operand of ==."""
    new, new_error = _build(new_cls, args)
    old, old_error = _build(old_cls, args)
    assert new_error == old_error
    if new_error is not None:
        return
    assert repr(new) == repr(old).replace("Dataclass", "", 1)
    assert _build(hash, (new,)) == _build(hash, (old,))
    assert new == new and not new != new
    assert new != old and old != new   # never equal across classes
    for name in old_cls.__dataclass_fields__:
        assert getattr(new, name) == getattr(old, name)
        assert _field_error(new, name) == _field_error(old, name) is not None
    new2, _ = _build(new_cls, other_args)
    old2, _ = _build(old_cls, other_args)
    if new2 is not None and old2 is not None:
        assert (new == new2) == (old == old2)
        assert (new != new2) == (old != old2)


LETTERS = st.one_of(st.integers(-4, 4), st.sampled_from(["a", None, 1.5]))
WORD_ARGS = st.tuples(
    st.one_of(st.lists(LETTERS, max_size=6), st.lists(st.sampled_from([1, 2, -2]), max_size=4)),
    st.one_of(st.integers(0, 28), st.sampled_from([None, "2"])))


@given(WORD_ARGS, WORD_ARGS)
def test_word(args, other):
    check_pair(Word, DataclassWord, args, other)


@given(st.lists(st.sampled_from([(1, 2), (2, -1), (1, 2, 1), ()]), max_size=4), st.integers(2, 3))
def test_word_hash_of_valid_words(letters, rank):
    words = [Word(w, rank) for w in letters if all(abs(l) <= rank for l in w)]
    old = [DataclassWord(w.letters, rank) for w in words]
    assert [hash(w) for w in words] == [hash(w) for w in old]
    assert [repr(w) for w in sorted(set(words), key=repr)] == \
        [repr(w) for w in sorted(set(old), key=repr)]


SCALARS = st.sampled_from(["0", "1/2", "1", "-3/4", 2, "1/2+1/2*sqrt5", "sqrt5",
                           "sqrt2", "bad", 1.5, None])
INTERVAL_ARGS = st.tuples(SCALARS, SCALARS)


@given(INTERVAL_ARGS, INTERVAL_ARGS)
def test_interval(args, other):
    check_pair(Interval, DataclassInterval, args, other)


def _dom(pair):
    lo, hi = pair
    try:
        return Interval(lo, hi)
    except Exception:
        return pair


ISOMETRY_ARGS = st.tuples(
    st.one_of(INTERVAL_ARGS.map(_dom), INTERVAL_ARGS, st.just("01")),
    st.sampled_from([1, -1, 0, 2, "1"]), SCALARS)


@given(ISOMETRY_ARGS, ISOMETRY_ARGS)
def test_partial_isometry(args, other):
    check_pair(PartialIsometry, DataclassPartialIsometry, args, other)


def _words(rank):
    return st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5).map(
        lambda letters: Word.make(letters, rank))


RAY_ARGS = st.one_of(st.tuples(_words(2), _words(2)), st.tuples(_words(2), _words(3)))


@given(RAY_ARGS, RAY_ARGS)
def test_boundary_ray(args, other):
    check_pair(BoundaryRay, DataclassBoundaryRay, args, other)


def _ray(args):
    prefix, period = args
    try:
        return BoundaryRay(prefix, period)
    except Exception:
        return BoundaryRay(prefix, Word((prefix.rank,), prefix.rank))


RAYS = RAY_ARGS.map(_ray)
LEAF_ARGS = st.one_of(st.tuples(st.tuples(RAYS, RAYS)),
                      RAYS.map(lambda ray: ((ray, ray),)))


@given(LEAF_ARGS, LEAF_ARGS)
def test_rational_leaf(args, other):
    check_pair(RationalLeaf, DataclassRationalLeaf, args, other)


SCENARIO_ARGS = st.tuples(
    st.sampled_from(["hall", "glp", ""]), st.sampled_from(["", "a run"]),
    st.one_of(st.just(()), st.tuples(st.sampled_from(["a", 1])),
              st.just(({"op": "stallings.index"},))),
    st.one_of(st.none(), st.integers(0, 3)))


@given(SCENARIO_ARGS, SCENARIO_ARGS)
def test_scenario(args, other):
    check_pair(Scenario, DataclassScenario, args, other)
    check_pair(Scenario, DataclassScenario, args[:2], other[:2])


def test_scenario_keywords():
    new = Scenario(name="x", description="y", seed=3)
    old = DataclassScenario(name="x", description="y", seed=3)
    assert (new.name, new.description, new.steps, new.seed) == ("x", "y", (), 3)
    assert repr(new) == repr(old).replace("Dataclass", "", 1)


@pytest.mark.parametrize("gens, excluded", [
    (["aa", "b"], "a"), (["ab"], None), (["aba", "bb"], "b")])
def test_hall_witness(gens, excluded):
    graph = build_core([parse_word(g, 2) for g in gens], 2)
    g = None if excluded is None else parse_word(excluded, 2)
    witness = hall_completion(graph, g)
    args = tuple(getattr(witness, name) for name in DataclassHallWitness.__dataclass_fields__)
    check_pair(HallWitness, DataclassHallWitness, args, args)
    check_pair(HallWitness, DataclassHallWitness, args[:5], args)


def test_equal_only_within_one_class():
    class SubWord(Word):
        pass

    class OldSubWord(DataclassWord):
        pass

    for cls, sub in ((Word, SubWord), (DataclassWord, OldSubWord)):
        assert cls((1,), 2) != sub((1,), 2) and sub((1,), 2) != cls((1,), 2)
        assert sub((1,), 2) == sub((1,), 2)
        assert hash(cls((1,), 2)) == hash(sub((1,), 2))
