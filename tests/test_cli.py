"""Document round-trips, canonical reports, the op registry, and the CLI."""

import io
import json
import sys
import time

import pytest

from _fixtures import lebesgue
from grouptrees import documents as docs
from grouptrees.cli import main
from grouptrees.core import Scalar, Word, parse_word
from grouptrees.corpus import (golden_system, lopsided_rose, rose_graph,
                               theta_graph, worked_single_map)
from grouptrees.errors import ParseError, PreconditionError
from grouptrees.intervals import Interval, MultiInterval
from grouptrees.report import render_json, render_text, to_jsonable, wrap
from grouptrees.scenarios import (EPSILON, MAX_TRANSLATE, MAX_WORD,
                                  OPERATIONS, POINT_BUDGET, RADIUS,
                                  bundled_scenarios, run_op, run_scenario,
                                  scenario_from_doc, subset_match)

S = Scalar.of


def W(text, rank=2):
    return parse_word(text, rank)


# ------------------------------------------------------------- documents

class TestDocuments:
    def test_subgroup_roundtrip(self):
        graph = docs.load_subgroup({"rank": 2, "generators": ["aa", "b", "abA"]})
        assert graph.nv == 2

    def test_subgroup_rejects_bad_word(self):
        with pytest.raises(ParseError, match="generator"):
            docs.load_subgroup({"rank": 2, "generators": ["ax!"]})

    def test_rank_above_the_alphabet_rejected(self):
        with pytest.raises(ParseError,
                           match="^subgroup: rank must be between 1 and 26$"):
            docs.load_subgroup({"rank": 27, "generators": ["a"]})
        graph = {"rank": 27, "vertices": 1, "marking": {"0": "a"},
                 "edges": [{"id": 0, "ends": [0, 0], "len": "1"}]}
        with pytest.raises(ParseError,
                           match="^graph: rank must be between 1 and 26$"):
            docs.load_marked_graph(graph)
        system = {"forest": [["0", "1"]],
                  "generators": [{"dom": ["0", "1"], "offset": "0"}] * 27}
        with pytest.raises(ParseError,
                           match="^system: at most 26 generators, one letter each$"):
            docs.load_system(system)

    def test_system_roundtrip_preserves_semantics(self):
        doc = docs.dump_system(golden_system())
        assert doc["D"] == 5
        system = docs.load_system(doc)
        assert system.labels == ("a", "b")
        assert docs.dump_system(system) == doc

    def test_system_to_field_derives_offset(self):
        system = docs.load_system({
            "forest": [["0", "1"]],
            "generators": [{"dom": ["0", "3/4"], "to": "1/4"}]})
        assert system.generators[0].offset == S("1/4")
        assert system.generators[0].ran == Interval(S("1/4"), S(1))

    def test_system_to_field_reversing(self):
        system = docs.load_system({
            "forest": [["0", "1"]],
            "generators": [{"dom": ["0", "1/2"], "orient": -1, "to": "1/2"}]})
        # image of [0,1/2] reversed with offset 1 is [1/2,1]
        assert system.generators[0].offset == S(1)

    def test_system_offset_to_disagreement(self):
        with pytest.raises(ParseError, match="disagree"):
            docs.load_system({
                "forest": [["0", "1"]],
                "generators": [{"dom": ["0", "1/2"], "to": "1/2",
                                "offset": "1/4"}]})

    def test_floats_rejected(self):
        with pytest.raises(ParseError, match="float"):
            docs.load_system({
                "forest": [["0", 1.0]],
                "generators": [{"dom": ["0", "1"], "offset": "0"}]})

    def test_field_mismatch_rejected(self):
        with pytest.raises(ParseError, match="sqrt2"):
            docs.load_system({
                "D": 5,
                "forest": [["0", "sqrt2"]],
                "generators": [{"dom": ["0", "1"], "offset": "0"}]})

    def test_labels_all_or_none(self):
        with pytest.raises(ParseError, match="label"):
            docs.load_system({
                "forest": [["0", "1"]],
                "generators": [
                    {"dom": ["0", "1/2"], "offset": "0", "label": "a"},
                    {"dom": ["0", "1/2"], "offset": "1/2"}]})

    def test_marked_graph_roundtrip(self):
        doc = docs.dump_marked_graph(theta_graph())
        graph = docs.load_marked_graph(doc)
        assert docs.dump_marked_graph(graph) == doc
        assert graph.volume() == theta_graph().volume()

    def test_marked_graph_ids_may_be_sparse(self):
        doc = docs.dump_marked_graph(lopsided_rose())
        doc["edges"][0]["id"] = 10
        doc["edges"][1]["id"] = 3
        doc["marking"] = {"3": "a", "10": "b"}
        doc["spanning_tree"] = []
        graph = docs.load_marked_graph(doc)
        # edge id 3 sorts first, so its length leads
        assert graph.edges[0][2] == lopsided_rose().edges[1][2]

    def test_measure_roundtrip(self):
        mu = lebesgue(MultiInterval([Interval(S(0), S(1))]))
        doc = to_jsonable(mu)
        assert docs.load_measure(doc).total == S(1)

    def test_leaf_roundtrip(self):
        leaf = docs.load_leaf(
            {"rays": [{"prefix": "", "period": "a"},
                      {"prefix": "", "period": "A"}]}, 2)
        assert leaf == (((), (1,)), ((), (-1,)))

    def test_interval_helpers_accept_strings(self):
        assert docs.load_interval('["0", "1/2"]').hi == S("1/2")
        multi = docs.load_multi('[["0", "1/8"], ["1/4", "3/8"]]')
        assert len(multi.components) == 2
        assert docs.load_multi('["0", "1"]').measure == S(1)


# --------------------------------------------------------------- reports

class TestReports:
    def test_scalars_words_intervals(self):
        body = to_jsonable({
            "s": S("3/2-1/2*sqrt5"), "w": W("abA"),
            "iv": Interval(S(0), S("1/2")),
            "multi": MultiInterval([Interval(S(0), S(1))])})
        assert body == {"s": "3/2-1/2*sqrt5", "w": "abA",
                        "iv": ["0", "1/2"], "multi": [["0", "1"]]}

    def test_json_is_canonical_and_newline_terminated(self):
        one = render_json({"b": 1, "a": S("1/2")})
        two = render_json({"a": S("1/2"), "b": 1})
        assert one == two == '{"a":"1/2","b":1}\n'

    def test_text_rendering_nested(self):
        text = render_text({"outer": {"inner": [S(1), None, True]}})
        assert "outer:" in text and "inner:" in text
        assert "- 1" in text and "- null" in text and "- true" in text

    def test_wrap_envelope(self):
        rep = wrap("soi glp", {"x": 1}, budgets={"budget": 500})
        assert rep["schema_version"] == 1
        assert rep["budgets"] == {"budget": 500}


# ----------------------------------------------------------- subset match

class TestSubsetMatch:
    def test_subset_passes_on_extra_keys(self):
        assert subset_match({"a": 1}, {"a": 1, "b": 2}) == []

    def test_diff_paths(self):
        diffs = subset_match({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}})
        assert diffs == ["result.a.b[1]: expected 2, got 3"]

    def test_missing_key_reported(self):
        diffs = subset_match({"a": 1}, {})
        assert "absent" in diffs[0]

    def test_list_length_mismatch(self):
        diffs = subset_match([1], [1, 2], "result.xs")
        assert "expected 1 entries" in diffs[0]


# ------------------------------------------------------------ op registry

RANK_THREE = {"rank": 3, "generators": ["c"]}


class TestOps:
    def test_glp_kinds(self):
        result, kind = run_op("soi.glp", {
            "system": docs.dump_system(worked_single_map()),
            "max_word": 8, "budget": 500})
        assert kind == "proven"
        assert str(result["residual"]) == "0"

    def test_orbit_budget_kind(self):
        result, kind = run_op("soi.orbit", {
            "system": docs.dump_system(golden_system()),
            "point": "1/2", "budget": 50})
        assert kind == "budget"
        assert result["status"] == "truncated"

    def test_hall_random_batch_verifies(self):
        result, kind = run_op("stallings.hall_random_batch",
                              {"count": 25, "seed": 7})
        assert kind == "proven"
        assert result["verified"] == 25 and result["failures"] == []

    def test_unknown_op(self):
        with pytest.raises(ParseError, match="unknown operation"):
            run_op("soi.unknown", {})

    def test_missing_and_non_integer_arguments(self):
        system = docs.dump_system(worked_single_map())
        with pytest.raises(ParseError,
                           match="^missing required argument 'point'$"):
            run_op("soi.orbit", {"system": system})
        with pytest.raises(ParseError,
                           match="^missing required argument 'budget'$"):
            run_op("soi.orbit", {"system": system, "point": "0",
                                 "budget": None})
        for budget in ("40", True, 4.0):
            with pytest.raises(ParseError,
                               match="^argument 'budget' must be an integer$"):
                run_op("soi.orbit", {"system": system, "point": "0",
                                     "budget": budget})

    def test_defaults_filled_from_the_spec(self):
        result, _ = run_op("soi.orbit", {
            "system": docs.dump_system(worked_single_map()), "point": "1/8"})
        assert result["budget"] == 500
        result, _ = run_op("lam.scan", {
            "graph": docs.dump_marked_graph(lopsided_rose()),
            "subgroup": {"rank": 2, "generators": ["baB"]},
            "epsilon": "1/2"})
        assert result["max_word"] == 8 and result["max_translate"] == 2

    def test_carries_needs_word_or_leaf(self):
        with pytest.raises(ParseError,
                           match="^missing required argument 'word'$"):
            run_op("lam.carries",
                   {"subgroup": {"rank": 2, "generators": ["a"]}})
        args = {"subgroup": {"rank": 2, "generators": ["a"]},
                "leaf": {"rays": [{"prefix": "", "period": "a"},
                                  {"prefix": "", "period": "A"}]}}
        result, _ = run_op("lam.carries", args)
        assert result["carries"] is True
        with pytest.raises(ParseError,
                           match="^give exactly one of 'word' or 'leaf'$"):
            run_op("lam.carries", {**args, "word": "b"})

    def test_discrete_takes_one_sample_or_a_list(self):
        args = {"system": docs.dump_system(golden_system()),
                "subgroup": {"rank": 2, "generators": ["a"]}, "budget": 50}
        one, _ = run_op("soi.discrete", args)
        two, _ = run_op("soi.discrete", {**args, "samples": "0"})
        three, _ = run_op("soi.discrete", {**args, "samples": ["0"]})
        assert to_jsonable(one) == to_jsonable(two) == to_jsonable(three)
        for bad in (4.0, ["0", 0.5]):
            with pytest.raises(ParseError, match="^sample point: floats"):
                run_op("soi.discrete", {**args, "samples": bad})

    def test_discrete_needs_a_sample(self):
        # all() over no rows is true, so no samples would claim a verdict
        args = {"system": docs.dump_system(golden_system()),
                "subgroup": {"rank": 2, "generators": ["a"]}, "samples": []}
        with pytest.raises(ParseError, match="^argument 'samples' must list "
                                             "at least one point$"):
            run_op("soi.discrete", args)

    @pytest.mark.parametrize("op,args,message", [
        ("cvn.omega", {"graph": lopsided_rose, "epsilon": "1/2",
                       "max_word": -1},
         "max_word must be nonnegative, not -1"),
        ("soi.grow", {"system": worked_single_map, "start": [["0", "1/8"]],
                      "steps": -1},
         "steps must be nonnegative, not -1"),
        ("soi.orbit", {"system": golden_system, "point": "1/2",
                       "budget": -5},
         "budget must be nonnegative, not -5"),
        ("soi.glp", {"system": worked_single_map, "max_word": -2},
         "max_word must be nonnegative, not -2"),
        # a scenario-only operation: no command line checks its count first
        ("stallings.hall_random_batch", {"count": -5, "seed": 1},
         "count must be nonnegative, not -5"),
    ])
    def test_negative_budgets_rejected(self, op, args, message):
        dump = {"graph": docs.dump_marked_graph, "system": docs.dump_system}
        args = {key: dump[key](value()) if key in dump else value
                for key, value in args.items()}
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            run_op(op, args)

    def test_discrete_budget_zero_searches_at_zero(self):
        result, kind = run_op("soi.discrete", {
            "system": docs.dump_system(golden_system()),
            "subgroup": {"rank": 2, "generators": ["a"]}, "budget": 0})
        assert kind == "budget" and result["budget"] == 0
        assert result["growth"] == [{"budget": 0, "orbit_sizes": [1]}]
        assert [row["orbit_size"] for row in result["samples"]] == [1]

    def test_shared_arguments_have_one_spec(self):
        # a budget several operations declare has one spec, so its flag has
        # the same help and default on every subcommand that takes it
        shared = {arg.key: arg for arg in (POINT_BUDGET, MAX_WORD, RADIUS,
                                           EPSILON, MAX_TRANSLATE)}
        for name, spec in OPERATIONS.items():
            for arg in spec.args:
                if spec.help is not None and arg.key in shared:
                    assert arg is shared[arg.key], (name, arg.key)

    def test_scenario_seed_reaches_seeded_ops_only(self):
        scenario = scenario_from_doc({
            "name": "seeded", "seed": 9,
            "steps": [{"op": "stallings.hall_random_batch",
                       "args": {"count": 3}, "expect": {"seed": 9}},
                      {"op": "stallings.index",
                       "args": {"subgroup": {"rank": 2, "generators": ["a"]}},
                       "expect": {"index": None}}]})
        assert run_scenario(scenario)["failed"] == 0

    def test_meet_rank_mismatch(self):
        with pytest.raises(ParseError, match="rank"):
            run_op("stallings.meet", {
                "subgroup": {"rank": 2, "generators": ["a"]},
                "other": {"rank": 3, "generators": ["c"]}})

    @pytest.mark.parametrize("op,key", [
        ("stallings.core", "subgroup"), ("cvn.vol", "graph"),
        ("soi.families", "system"), ("measure.check", "measure"),
        ("lam.carries", "leaf")])
    def test_documents_must_be_objects(self, op, key):
        valid = {"subgroup": {"rank": 2, "generators": ["a"]},
                 "system": docs.dump_system(worked_single_map())}
        for bad in ("abc", ["a"], 3):
            with pytest.raises(
                    ParseError,
                    match=f"^argument '{key}' must be a JSON object$"):
                run_op(op, {**valid, key: bad})

    @pytest.mark.parametrize("op,args,message", [
        ("stallings.meet", {"other": RANK_THREE},
         "argument 'other' has rank 3, but argument 'subgroup' has rank 2"),
        ("cvn.minsub", {"subgroup": RANK_THREE},
         "argument 'subgroup' has rank 3, but argument 'graph' has rank 2"),
        ("cvn.transverse", {"subgroup": RANK_THREE},
         "argument 'subgroup' has rank 3, but argument 'graph' has rank 2"),
        ("lam.scan", {"subgroup": RANK_THREE, "epsilon": "1/2"},
         "argument 'subgroup' has rank 3, but argument 'graph' has rank 2"),
    ])
    def test_rank_mismatch_has_one_message(self, op, args, message):
        rank_two = {"subgroup": {"rank": 2, "generators": ["a"]},
                    "graph": docs.dump_marked_graph(lopsided_rose())}
        with pytest.raises(ParseError, match=f"^{message}$"):
            run_op(op, {**rank_two, **args})


# -------------------------------------------------------------- scenarios

class TestScenarios:
    def test_all_bundled_scenarios_pass(self):
        for name, scenario in bundled_scenarios().items():
            report = run_scenario(scenario)
            assert report["failed"] == 0, (name, report["steps"])
            assert report["exit_code"] in (0, 2)

    def test_bundled_exit_codes(self):
        bundled = bundled_scenarios()
        assert run_scenario(bundled["glp"])["exit_code"] == 0
        assert run_scenario(bundled["hall"])["exit_code"] == 0
        # these two report budget-limited outcomes by design
        assert run_scenario(bundled["main-theorem"])["exit_code"] == 2
        assert run_scenario(bundled["carrier"])["exit_code"] == 2

    def test_scenario_mismatch_exits_one_with_diff(self):
        scenario = scenario_from_doc({
            "name": "bad",
            "steps": [{"op": "stallings.index",
                       "args": {"subgroup": {"rank": 2,
                                             "generators": ["aa", "b", "abA"]}},
                       "expect": {"index": 3}}]})
        report = run_scenario(scenario)
        assert report["exit_code"] == 1
        assert report["steps"][0]["mismatches"] == [
            "result.index: expected 3, got 2"]

    def test_scenario_error_step(self):
        scenario = scenario_from_doc({
            "name": "broken",
            "steps": [{"op": "stallings.member",
                       "args": {"subgroup": {"rank": 2, "generators": ["a"]},
                                "word": "ax!"}}]})
        report = run_scenario(scenario)
        assert report["exit_code"] == 1
        assert "error" in report["steps"][0]

    def test_scenario_doc_validation(self):
        with pytest.raises(ParseError):
            scenario_from_doc({"name": "", "steps": []})
        with pytest.raises(ParseError):
            scenario_from_doc({"name": "x", "steps": [{"args": {}}]})

    def test_runs_are_deterministic(self):
        scenario = bundled_scenarios()["hall"]
        one = to_jsonable(run_scenario(scenario))
        two = to_jsonable(run_scenario(scenario))
        assert one == two


# ------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def subgroup_file(tmp_path):
    path = tmp_path / "H.json"
    path.write_text(json.dumps({"rank": 2, "generators": ["aa", "b", "abA"]}))
    return str(path)


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(docs.dump_system(worked_single_map())))
    return str(path)


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "rose.json"
    path.write_text(json.dumps(docs.dump_marked_graph(lopsided_rose())))
    return str(path)


class TestCli:
    def test_index_prints_two(self, capsys, subgroup_file):
        code, out, _ = run_cli(capsys, "stallings", "index",
                               "--in", subgroup_file)
        assert code == 0
        assert "index: 2" in out

    def test_glp_residual_zero(self, capsys, system_file):
        code, out, _ = run_cli(capsys, "soi", "glp", "--in", system_file)
        assert code == 0
        assert "residual: 0" in out
        assert "identity-verified" in out

    def test_malformed_word_exits_one(self, capsys, subgroup_file):
        code, _, err = run_cli(capsys, "stallings", "member",
                               "--in", subgroup_file, "--word", "ax!")
        assert code == 1
        assert "error:" in err

    def test_non_ascii_letter_exits_one(self, capsys, tmp_path):
        # U+212A KELVIN SIGN lowercases to k, a letter of rank 11
        path = tmp_path / "H11.json"
        path.write_text(json.dumps({"rank": 11, "generators": ["k"]}))
        code, out, err = run_cli(capsys, "stallings", "member",
                                 "--in", str(path), "--word", "\u212a")
        assert (code, out) == (1, "")
        assert err == "error: bad letter '\u212a' in word '\u212a' (rank 11)\n"

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "stallings", "index",
                               "--in", "/nonexistent.json")
        assert code == 1 and "cannot read" in err

    @pytest.mark.parametrize("argv, what", [
        (["stallings", "index", "--in", "FILE"], "subgroup"),
        (["stallings", "index", "--in", "-"], "subgroup"),
        (["scenario", "run", "FILE"], "scenario")])
    def test_non_utf8_document_exits_one(self, capsys, monkeypatch, tmp_path,
                                         argv, what):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff{}"), encoding="latin-1"))
        argv = [str(path) if a == "FILE" else a for a in argv]
        name = "-" if "-" in argv else str(path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: cannot read {what} file {name!r}: 'utf-8' "
                       f"codec can't decode byte 0xff in position 0: "
                       f"invalid start byte\n")

    def test_json_mode_byte_stable(self, capsys, subgroup_file):
        _, one, _ = run_cli(capsys, "stallings", "index",
                            "--in", subgroup_file, "--json")
        _, two, _ = run_cli(capsys, "stallings", "index",
                            "--in", subgroup_file, "--json")
        assert one == two
        assert one.endswith("\n")
        body = json.loads(one)
        assert body["result"]["index"] == 2
        assert body["schema_version"] == 1

    def test_budgets_echoed(self, capsys, system_file):
        code, out, _ = run_cli(capsys, "soi", "glp", "--in", system_file,
                               "--json", "--max-word", "6")
        body = json.loads(out)
        assert body["budgets"] == {"budget": 500, "max_word": 6}

    @pytest.mark.parametrize("chain_max, code, result", [
        # the piece covers the target: a chain of one image, but not of none
        ("0", 2, {"candidates": 42, "chained": 0, "max_len": 8, "r_max": 0,
                  "status": "exhausted"}),
        ("1", 0, {"chain": [{"interval": ["0", "1/2"], "word": ""}],
                  "max_len": 8, "r": 1, "r_max": 1, "status": "chain-found"})])
    def test_indecomp_chain_budget(self, capsys, tmp_path, chain_max, code, result):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(docs.dump_system(golden_system())))
        got, out, _ = run_cli(capsys, "soi", "indecomp", "--in", str(path),
                              "--piece", '["0","1/2"]', "--target", '["1/10","1/5"]',
                              "--chain-max", chain_max, "--json")
        assert (got, json.loads(out)["result"]) == (code, result)

    @pytest.mark.parametrize("max_word, independence", [
        ("0", {"max_len": 0, "status": "ok-up-to-budget"}),
        ("1", {"arc": ["0", "1/2"], "status": "violation", "word": "a",
               "word_length": 1})])
    def test_glp_word_budget(self, capsys, tmp_path, max_word, independence):
        # a is the identity on [0, 1/2]: the relation a = 1 has length 1
        path = tmp_path / "identity.json"
        path.write_text('{"D":1,"forest":[["0","1"]],'
                        '"generators":[{"dom":["0","1/2"],"offset":"0"}]}')
        code, out, _ = run_cli(capsys, "soi", "glp", "--in", str(path),
                               "--max-word", max_word, "--json")
        assert (code, json.loads(out)["result"]["independence"]) == (0, independence)

    def test_orbit_truncated_exits_two(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(docs.dump_system(golden_system())))
        code, out, _ = run_cli(capsys, "soi", "orbit", "--in", str(path),
                               "--point", "1/2", "--budget", "40")
        assert code == 2
        assert "truncated" in out

    def test_orbit_foreign_field_point_exits_one(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(docs.dump_system(golden_system())))
        code, out, err = run_cli(capsys, "soi", "orbit", "--in", str(path),
                                 "--point", "1/2*sqrt3")
        assert code == 1 and out == ""
        assert err == ("error: cannot mix sqrt5 and sqrt3 values in one "
                       "computation\n")

    @pytest.mark.parametrize("point,err", [
        # a multi-digit coefficient is one number, never 1 + 2*sqrt5
        ("12*sqrt5", "error: 12*sqrt5 lies outside the support\n"),
        ("2sqrt5", "error: argument 'point': bad scalar '2sqrt5'\n"),
    ])
    def test_orbit_point_spelling(self, capsys, tmp_path, point, err):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(docs.dump_system(golden_system())))
        code, out, got = run_cli(capsys, "soi", "orbit", "--in", str(path),
                                 "--point", point)
        assert (code, out, got) == (1, "", err)

    def test_orbit_point_past_the_integer_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(docs.dump_system(golden_system())))
        code, out, err = run_cli(capsys, "soi", "orbit", "--in", str(path),
                                 "--point", "1" * 5000)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("error: argument 'point': bad rational '111")

    def test_discrete_empty_samples_exits_one(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(docs.dump_system(golden_system())))
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"rank": 2, "generators": ["a"]}))
        code, out, err = run_cli(capsys, "soi", "discrete", "--in", str(path),
                                 "--sub", str(sub), "--samples", "[]",
                                 "--json")
        assert code == 1 and out == ""
        assert err == ("error: argument 'samples' must list at least one "
                       "point\n")

    def test_grow_cli(self, capsys, system_file):
        code, out, _ = run_cli(capsys, "soi", "grow", "--in", system_file,
                               "--start", '[["0","1/8"]]', "--steps", "4",
                               "--json")
        assert code == 0
        body = json.loads(out)
        assert body["result"]["non_increasing"] is True

    def test_mixed_field_graph_exits_one(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({
            "rank": 2, "vertices": 1, "marking": {"0": "a", "1": "b"},
            "edges": [{"id": 0, "ends": [0, 0], "len": "sqrt2"},
                      {"id": 1, "ends": [0, 0], "len": "1+sqrt3"}]}))
        # one message, whatever the operation and whatever field epsilon is in
        for argv in (("len", "--word", "a"), ("omega", "--epsilon", "sqrt2"),
                     ("omega", "--epsilon", "2")):
            code, out, err = run_cli(capsys, "cvn", *argv, "--in", str(path))
            assert code == 1 and out == ""
            assert err == ("error: graph: edge lengths mix sqrt2 and sqrt3; "
                           "a marked graph's lengths lie in one field\n")

    def test_omega_requires_epsilon(self, capsys, graph_file):
        code, _, err = run_cli(capsys, "cvn", "omega", "--in", graph_file)
        assert code == 1 and "epsilon" in err

    def test_omega_cli(self, capsys, graph_file):
        code, out, _ = run_cli(capsys, "cvn", "omega", "--in", graph_file,
                               "--epsilon", "1/2", "--max-word", "4",
                               "--json")
        assert code == 0
        body = json.loads(out)
        assert body["result"]["classes"] == ["a", "aa", "aaa", "aaaa"]

    def test_omega_rank1_long_classes(self, capsys, tmp_path):
        # 1200 letters is above the interpreter's recursion limit
        path = tmp_path / "rose1.json"
        path.write_text(json.dumps(docs.dump_marked_graph(rose_graph(1))))
        code, out, _ = run_cli(capsys, "cvn", "omega", "--in", str(path),
                               "--epsilon", "5000", "--max-word", "1200",
                               "--json")
        assert code == 0
        classes = json.loads(out)["result"]["classes"]
        assert classes == ["a" * n for n in range(1, 1201)]

    def test_lam_scan_cli(self, capsys, graph_file, tmp_path):
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"rank": 2, "generators": ["baB"]}))
        code, out, _ = run_cli(capsys, "lam", "scan", "--in", graph_file,
                               "--sub", str(sub), "--epsilon", "1/2",
                               "--max-word", "4", "--max-translate", "2")
        assert code == 2
        assert "none-up-to-budget" in out

    def test_lam_carries_cli(self, capsys, subgroup_file):
        code, out, _ = run_cli(capsys, "lam", "carries", "--in", subgroup_file,
                               "--word", "aa")
        assert code == 0
        assert "carries: true" in out

    def test_lam_carries_needs_exactly_one_input(self, capsys, subgroup_file):
        code, _, err = run_cli(capsys, "lam", "carries", "--in", subgroup_file)
        assert code == 1 and "exactly one" in err

    def test_measure_combine_cli(self, capsys, tmp_path):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        m1.write_text(json.dumps({"pieces": [
            {"from": "0", "to": "1", "density": "1"}]}))
        m2.write_text(json.dumps({"pieces": [
            {"from": "0", "to": "1/2", "density": "2"},
            {"from": "1/2", "to": "1", "density": "4"}]}))
        code, out, _ = run_cli(capsys, "measure", "combine",
                               "--measure", str(m1), "--other", str(m2),
                               "--c1", "1/2", "--c2", "1/4", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["result"]["total"] == "5/4"

    def test_measure_check_cli(self, capsys, system_file, tmp_path):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"pieces": [
            {"from": "0", "to": "1", "density": "1"}]}))
        code, out, _ = run_cli(capsys, "measure", "check",
                               "--in", system_file, "--measure", str(mu))
        assert code == 0
        assert "invariant" in out

    def test_stallings_hall_cli(self, capsys, tmp_path):
        path = tmp_path / "H2.json"
        path.write_text(json.dumps({"rank": 2, "generators": ["aa", "b"]}))
        code, out, _ = run_cli(capsys, "stallings", "hall", "--in", str(path),
                               "--word", "a", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["result"]["cover_index"] == 2
        assert body["result"]["checks"]["ok"] is True

    def test_scenario_list_cli(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "list")
        assert code == 0
        for name in ("hall", "glp", "grow", "main-theorem", "carrier"):
            assert name in out

    def test_scenario_run_glp(self, capsys):
        code, out, _ = run_cli(capsys, "scenario", "run", "glp")
        assert code == 0
        assert "failed: 0" in out

    def test_scenario_run_file_mismatch(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad-index",
            "steps": [{"op": "stallings.index",
                       "args": {"subgroup": {"rank": 2,
                                             "generators": ["aa", "b", "abA"]}},
                       "expect": {"index": 3}}]}))
        code, out, _ = run_cli(capsys, "scenario", "run", str(path))
        assert code == 1
        assert "expected 3, got 2" in out

    def test_scenario_step_document_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "string-subgroup.json"
        path.write_text(json.dumps({
            "name": "string-subgroup",
            "steps": [{"op": "stallings.index",
                       "args": {"subgroup": "abc"}}]}))
        code, out, _ = run_cli(capsys, "scenario", "run", str(path), "--json")
        assert code == 1
        step = json.loads(out)["result"]["steps"][0]
        assert step["error"] == (
            "ParseError: argument 'subgroup' must be a JSON object")
        assert "AttributeError" not in out

    def test_scenario_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "scenario", "run", "no-such-scenario")
        assert code == 1 and "cannot read" in err

    def test_transverse_cli(self, capsys, graph_file, tmp_path):
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"rank": 2, "generators": ["a"]}))
        code, out, _ = run_cli(capsys, "cvn", "transverse", "--in", graph_file,
                               "--sub", str(sub), "--max-word", "3",
                               "--radius", "4")
        assert code in (0, 2)
        assert "verdict" in out

    def test_sub_orbit_cli(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(docs.dump_system(golden_system())))
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"rank": 2, "generators": ["a"]}))
        code, out, _ = run_cli(capsys, "soi", "sub-orbit", "--in", str(path),
                               "--sub", str(sub), "--point", "0", "--json")
        assert code == 0
        body = json.loads(out)
        assert body["result"]["status"] == "closed"
        assert body["result"]["points"] == ["0", "3/2-1/2*sqrt5", "3-sqrt5"]

    @pytest.mark.parametrize("field,point", [
        (18446744073709551557, "1/2"),      # 2^64 - 59, a 20-digit prime
        (12, "1/2"),                        # not square-free
        (5, "1/2+sqrt18446744073709551557"),
    ])
    def test_hostile_field_fails_fast(self, capsys, tmp_path, field, point):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({
            "D": field, "forest": [["0", "1"]],
            "generators": [{"dom": ["0", "1/2"], "offset": "1/2"}]}))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "soi", "orbit", "--in", str(path),
                               "--point", point)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("orient", [-1.0, 1.0, True, False, "1"])
    def test_orient_must_be_the_integer_one_or_minus_one(self, capsys, tmp_path,
                                                         orient):
        doc = docs.dump_system(golden_system())
        doc["generators"][0]["orient"] = orient
        path = tmp_path / "orient.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "soi", "families", "--in", str(path))
        assert code == 1 and out == ""
        assert err == ("error: system generator[0]: field 'orient' must be "
                       "1 or -1\n")

    @pytest.mark.parametrize("tree,message", [
        ([0.0], "field 'spanning_tree' must be a list of edge ids"),
        ([False], "field 'spanning_tree' must be a list of edge ids"),
        ([0, 0], "spanning_tree lists edge id 0 twice"),
    ])
    def test_spanning_tree_entries_are_distinct_integers(self, capsys, tmp_path,
                                                         tree, message):
        doc = docs.dump_marked_graph(theta_graph())
        doc["spanning_tree"] = tree
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "cvn", "len", "--in", str(path),
                                 "--word", "a")
        assert code == 1 and out == ""
        assert err == f"error: graph: {message}\n"

    @pytest.mark.parametrize("key", [" 1", "+1", "1_0", "01", "-0"])
    def test_marking_keys_are_decimal_edge_ids(self, capsys, tmp_path, key):
        doc = docs.dump_marked_graph(theta_graph())
        doc["edges"][2]["id"] = 10
        doc["marking"] = {key: "a", "10": "b"}
        path = tmp_path / "marking.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "cvn", "len", "--in", str(path),
                                 "--word", "a")
        assert code == 1 and out == ""
        assert err == f"error: graph: marking key {key!r} is not an edge id\n"


def _worked_system(**fields):
    return dict(docs.dump_system(worked_single_map()), **fields)


def _theta(**fields):
    return dict(docs.dump_marked_graph(theta_graph()), **fields)


_SUBGROUP_A = {"rank": 2, "generators": ["a"]}


class TestLoadErrors:
    """Each loader wraps an engine's error in one line that names the
    document part it came from."""

    @pytest.mark.parametrize("argv, files, message", [
        (["soi", "orbit", "--in", "sys.json", "--point", "1/0"],
         {"sys.json": _worked_system()},
         "argument 'point': bad rational '1/0': zero denominator"),
        (["stallings", "index", "--in", "h.json"],
         {"h.json": {"rank": 2, "generators": ["ax!"]}},
         "subgroup generator 'ax!': bad letter 'x' in word 'ax!' (rank 2)"),
        (["cvn", "len", "--in", "g.json", "--word", "a"],
         {"g.json": _theta(marking={"0": "z"})},
         "graph marking for edge 0: bad letter 'z' in word 'z' (rank 2)"),
        (["cvn", "len", "--in", "g.json", "--word", "a"],
         {"g.json": _theta(spanning_tree=[])},
         "graph: spanning tree must have nv-1 edges"),
        (["soi", "glp", "--in", "sys.json"],
         {"sys.json": _worked_system(forest=[["1", "0"]])},
         "system forest[0]: interval endpoints out of order: [1, 0]"),
        (["soi", "cover", "--in", "sys.json", "--seed-set", '[["0","1/5"]]',
          "--target", '["1","0"]', "--delta", "1/100"],
         {"sys.json": _worked_system()},
         "target: interval endpoints out of order: [1, 0]"),
        (["soi", "glp", "--in", "sys.json"],
         {"sys.json": _worked_system(forest=[["0", "1/4"]])},
         "system: generator domain [0, 3/4] leaves the support"),
        (["measure", "check", "--in", "sys.json", "--measure", "m.json"],
         {"sys.json": _worked_system(),
          "m.json": {"pieces": [{"from": "1", "to": "0", "density": "1"}]}},
         "measure piece[0]: interval endpoints out of order: [1, 0]"),
        (["measure", "check", "--in", "sys.json", "--measure", "m.json"],
         {"sys.json": _worked_system(),
          "m.json": {"pieces": [{"from": "0", "to": "1", "density": "-1"}]}},
         "measure: density -1 is negative"),
        (["lam", "carries", "--in", "h.json", "--leaf", "l.json"],
         {"h.json": _SUBGROUP_A,
          "l.json": {"rays": [{"period": "z"}, {"period": "b"}]}},
         "ray: bad letter 'z' in word 'z' (rank 2)"),
        (["lam", "carries", "--in", "h.json", "--leaf", "l.json"],
         {"h.json": _SUBGROUP_A,
          "l.json": {"rays": [{"period": "aA"}, {"period": "b"}]}},
         "ray: a boundary ray needs a nonempty period"),
        (["lam", "carries", "--in", "h.json", "--leaf", "l.json"],
         {"h.json": _SUBGROUP_A,
          "l.json": {"rays": [{"period": "a"}, {"period": "a"}]}},
         "leaf: a leaf needs two distinct boundary points"),
        (["lam", "carries", "--in", "h.json", "--leaf", "l.json"],
         {"h.json": _SUBGROUP_A,
          "l.json": {"rays": [{"period": "ab"}, {"period": "abA"}]}},
         "ray: period abA is not cyclically reduced"),
        (["lam", "carries", "--in", "h.json", "--leaf", "l.json"],
         {"h.json": _SUBGROUP_A, "l.json": {"rays": [[], {"period": "a"}]}},
         "ray: expected an object with 'prefix' and 'period'"),
        (["lam", "carries", "--in", "h.json", "--leaf", "l.json"],
         {"h.json": _SUBGROUP_A,
          "l.json": {"rays": [{"period": "a", "prefix": 5}, {"period": "a"}]}},
         "ray: field 'prefix' must be a word string"),
        (["lam", "carries", "--in", "h.json", "--leaf", "l.json"],
         {"h.json": _SUBGROUP_A,
          "l.json": {"rays": [{"period": "a"}, {"period": "b"}, {"period": "ab"}]}},
         "leaf: field 'rays' must be a list of two rays"),
        (["lam", "carries", "--in", "h.json", "--word", "aA"],
         {"h.json": _SUBGROUP_A},
         "the identity has no periodic leaf"),
    ], ids=["scalar", "subgroup-generator", "graph-marking", "graph",
            "system-interval", "inline-interval", "system", "measure-piece",
            "measure", "ray-word", "ray", "leaf", "ray-period-not-cyclic",
            "ray-not-object", "ray-prefix-type", "leaf-three-rays", "identity-word"])
    def test_one_line_with_its_prefix(self, capsys, tmp_path, argv, files,
                                      message):
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_inline_interval_mixing_two_fields(self, capsys, tmp_path):
        # an inline pair declares no field, so each end may use any one,
        # and a pair mixing two fails in the interval's own comparison
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_worked_system()))
        assert run_cli(capsys, "soi", "grow", "--in", str(path), "--start",
                       '[["sqrt2","sqrt5"]]') == (
            1, "", "error: start[0]: cannot mix sqrt5 and sqrt2 values in "
                   "one computation\n")

    def test_interval_set_mixing_two_fields(self, capsys, tmp_path):
        # each pair uses one field, and the set's own comparison of the two
        # pairs fails: the message names the argument
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_worked_system()))
        assert run_cli(capsys, "soi", "grow", "--in", str(path), "--start",
                       '[["-1+sqrt2","1/2"],["3-sqrt5","4/5"]]') == (
            1, "", "error: start: cannot mix sqrt5 and sqrt2 values in one "
                   "computation\n")
