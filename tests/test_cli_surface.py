"""The command-line surface, pinned: parser structure, leaf outputs, errors.

`PARSER_DIGESTS` holds, for each of the 33 parsers (the top parser, the six
command groups and the 26 subcommands), the sha256 of a normalised dump of
its actions: option strings, dest, default, required, help, metavar, type,
subcommand names and helps, and mutually exclusive grouping.  The dump does
not depend on the Python version, unlike the rendered ``--help`` text.

`RUN_DIGESTS` pins one in-process ``main(argv)`` run of every registry
subcommand (and a few variants) in ``--text`` and in ``--json`` mode: the
exit code, and the sha256 of stdout and stderr together.  The cross-argument
errors and the rejections of negative budgets and over-deep JSON are pinned
as exact text; usage errors (undeclared or abbreviated flags, bad integers,
unknown or missing subcommands) by exit code, one line and the flag or
choices they name, since argparse's wording varies across Python versions.
`test_transverse_defaults_end` pins the report of a `cvn transverse` call at
its default budgets, and its wall time; `test_transverse_disjoint_rows` pins
one whose every row misses the minimal subtree.

`test_startup_imports` runs commands in fresh interpreters and pins which
grouptrees modules each one loads: a command imports only the engines it
runs, and none imports `dataclasses`.

Re-record a digest only for a deliberate change of the command line.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grouptrees
from _oracles import copying_render_json, copying_render_text
from grouptrees import cli, documents as docs
from grouptrees.cli import build_parser, main
from grouptrees.corpus import (golden_system, lopsided_rose, rose_graph, theta_graph,
                               worked_single_map)
from grouptrees.report import render_json, wrap
from grouptrees.scenarios import OPERATIONS, run_op


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ parsers

def _walk(parser, path=("grouptrees",)):
    yield " ".join(path), parser
    for action in parser._actions:
        if action.choices and hasattr(action, "_choices_actions"):
            for name, sub in action.choices.items():
                yield from _walk(sub, path + (name,))


def _dump_action(action) -> dict:
    row = {
        "kind": type(action).__name__,
        "options": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "required": action.required,
        "help": action.help,
        "metavar": action.metavar,
        "type": "int" if action.type is int else "str",
        "nargs": action.nargs,
        "const": action.const,
    }
    if hasattr(action, "_choices_actions"):
        row["commands"] = [[a.dest, a.help] for a in action._choices_actions]
    return row


def dump_parser(parser) -> str:
    return json.dumps({
        "prog": parser.prog,
        "description": parser.description,
        "defaults": parser._defaults,
        "actions": [_dump_action(a) for a in parser._actions],
        "exclusive": [{"required": g.required,
                       "options": [a.option_strings for a in g._group_actions]}
                      for g in parser._mutually_exclusive_groups],
    }, sort_keys=True)


PARSER_DIGESTS = {
    "grouptrees": "74f5afb0cd1cb7c0c4453c8691c6c5bed8ece41d8031eb093c945a74fee77a70",
    "grouptrees stallings": "8de81441cb27688adfd1c64eca18fa03b56448fc8cdd0329176a8100b07df50b",
    "grouptrees stallings core": "14831e2f2f78f84c61eb795eba7416b2e220a9f70c6bc2e55a2e35cf5e3f70ce",
    "grouptrees stallings member": "7c2976876ff3eb41b2c1f7c3ae965bb4890984e97bb055a4d48f73cedc199a69",
    "grouptrees stallings index": "9327ca4dfb453034c8154d2335384caa1a23906271944694bf0034807126d572",
    "grouptrees stallings meet": "42c295ce3df52ce46e7ce2b7477d2ce65b1b3fdf7977959d7fb13177ee616f44",
    "grouptrees stallings conj": "2aee0f98993e808e0749f77bfeb23351aa7db07b464eefc2c40aeab2aca43dfa",
    "grouptrees stallings hall": "85045f48978d9d0759786597893c7fa896bb30f699dba56e933675d90fc8a0dd",
    "grouptrees cvn": "cabf6307e98d0e397d122cfd2f17ed1a7c7692e06a7bf41c0446ea1b33ff8ab6",
    "grouptrees cvn len": "72e8025eb6ed307b55d46786894ee39829c9d298ce565dfed1d040b5b0c9344c",
    "grouptrees cvn vol": "4f1ec44d60cd0f9269a3df9c63dc6b69da24c2f8fb3b094e02a1d200c79a4ffe",
    "grouptrees cvn minsub": "c940cf95cd04d815007ed5af84b48742f0e28f6cbff8871f4bd073709dee09dc",
    "grouptrees cvn omega": "13031d0b6403fc222d8a296ec5b9457199c5a83839658b5a1e6f8be88b999822",
    "grouptrees cvn transverse": "29fa8da968c748be452b44908e1668786b4ca5fa44811370849c258cfb11087e",
    "grouptrees soi": "878c708889479953b316cd2b4ee9253f7664bfcb7c1aafd11c0990ef08d38a64",
    "grouptrees soi orbit": "d0e5469fb13968022fdae4aa345d52624eddcaa4ccfc8ae686fde22d01b39395",
    "grouptrees soi families": "4bd7e9aa57a2e2007038b4480719684d72ebdf1125e74a04adf50ddb09545f7c",
    "grouptrees soi glp": "afd292e386a839d1a332e894f6962e6f0e531c8bc19535cfe3fb7124aa97f89f",
    "grouptrees soi grow": "84af1835b1a1e81b151b55ec6fcbbb11ebf920d0e289f6997a2755974bb69a11",
    "grouptrees soi cover": "32649344bd10d9820a223f0b37c1f79a41cf2abc8cb5b4e9c64c340dd0a24a4c",
    "grouptrees soi indecomp": "7ccd36bacf7397fe662f5820bde2e9d1328d3383d6230035af225fb4a317ae2f",
    "grouptrees soi sub-orbit": "2273489d5ab5bfedc8592968197c362cc706e7ac98f53aad1324bd45cd23feef",
    "grouptrees soi saturate": "8e3123259cedac21fc7a2e6ed362f2b344e27a85339fa131e22ef9d9f98f9a87",
    "grouptrees soi discrete": "da83da532b44027bf7b1c6c3b66464235d27b53c79cdca8764bc46407b43ce86",
    "grouptrees measure": "535855b4e9cbc3104208450bac22f21018cb49009cf3360a2c4d1f44100d7aff",
    "grouptrees measure check": "31442b15855f331c12f4c2a50fa1da56793a257d0e8dc39e8763eb1a459812c1",
    "grouptrees measure combine": "e88a8cb12e1f3f8accbf2ea2c6eacafda7d7d1299eeae5e29b64be2cdfc0bfa8",
    "grouptrees lam": "bb660d9c4e7619dab73e4e53986ca66bf84f9d71782a69486cf9a3572d9ceeac",
    "grouptrees lam carries": "3cb5701af3a1909ecae630c722f40a6d7973053427966fc4195577aba2bfebaf",
    "grouptrees lam scan": "22dafa9c6e06c54b01e31267b702468f72e502d95d71c445f262849dbf150e15",
    "grouptrees scenario": "562068b7caf54b4e002d4cbdbec165e3b67c3069859ced1376a347008dbd80b5",
    "grouptrees scenario run": "e7099cff606821a93ac40154a03cad511b6b6a1ec93cc602daea3342f09e49c8",
    "grouptrees scenario list": "475d2ce290f7dbfdcbc7157494fb0e7d41d2ba67d019016cfc878268b987a7e7",
}


def test_every_parser_is_pinned():
    assert sorted(dict(_walk(build_parser()))) == sorted(PARSER_DIGESTS)
    assert len(PARSER_DIGESTS) == 33


@pytest.mark.parametrize("path", sorted(PARSER_DIGESTS))
def test_parser_structure(path):
    parser = dict(_walk(build_parser()))[path]
    assert _sha256(dump_parser(parser)) == PARSER_DIGESTS[path]


LEAVES = sorted(path for path in PARSER_DIGESTS if len(path.split()) == 3)


@pytest.mark.parametrize("path", LEAVES)
def test_leaf_flags_are_its_spec(path):
    # a leaf takes --json/--text and the flags its operation declares, each
    # stored under the argument's key; `scenario run` takes --seed
    parser = dict(_walk(build_parser()))[path]
    _, group, command = path.split()
    if group == "scenario":
        declared = {"run": {"--seed": "seed"}, "list": {}}[command]
    else:
        spec = OPERATIONS[f"{group}.{command.replace('-', '_')}"]
        declared = {arg.flag or "--" + arg.key.replace("_", "-"): arg.key
                    for arg in spec.args}
    options = {option: action.dest for action in parser._actions
               for option in action.option_strings}
    assert options == {"-h": "help", "--help": "help", "--json": "as_json",
                       "--text": "as_json", **declared}


@pytest.mark.parametrize("argv,flag", [
    ("stallings index --in H --budget 3", "--budget"),
    ("soi glp --in WORKED --seed 3", "--seed"),
    ("cvn omega --in ROSE --epsilon 1/2 --radius 2", "--radius"),
    ("lam carries --in H --word a --max-translate 1", "--max-translate"),
    ("scenario list --max-word 2", "--max-word"),
    ("soi orbit --in GOLDEN --point 0 --budget many", "--budget"),
    ("stallings fold --in H", "fold"),
    # flags are never abbreviated, so --wo is not --word nor --js --json
    ("stallings member --in H --wo ab --js", "--word"),
    ("stallings member --in H --word ab --js", "--js"),
    # a missing subcommand is named by its choices
    ("stallings", "{core,member,index,meet,conj,hall}"),
])
def test_usage_errors_exit_one(capsys, files, argv, flag):
    code, out, err = _run(capsys, [files.get(w, w) for w in argv.split()])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("\n") and flag in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stallings", "index", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--in FILE" in out and "--budget" not in out


# --------------------------------------------------------------------- runs

DOCUMENTS = {
    "H": {"rank": 2, "generators": ["aa", "b", "abA"]},
    "H2": {"rank": 2, "generators": ["aa", "b"]},
    "K": {"rank": 2, "generators": ["a", "bab"]},
    "A": {"rank": 2, "generators": ["a"]},
    "BAB": {"rank": 2, "generators": ["baB"]},
    "ROSE": lambda: docs.dump_marked_graph(lopsided_rose()),
    "ROSE3": lambda: docs.dump_marked_graph(rose_graph(1, 1, 1)),
    "A3": {"rank": 3, "generators": ["a"]},
    "THETA": lambda: docs.dump_marked_graph(theta_graph()),
    "WORKED": lambda: docs.dump_system(worked_single_map()),
    "GOLDEN": lambda: docs.dump_system(golden_system()),
    "M1": {"pieces": [{"from": "0", "to": "1", "density": "1"}]},
    "M2": {"pieces": [{"from": "0", "to": "1/2", "density": "2"},
                      {"from": "1/2", "to": "1", "density": "4"}]},
    "LEAF": {"rays": [{"prefix": "", "period": "a"},
                      {"prefix": "", "period": "A"}]},
}

# One run per registry subcommand, then a few variants.  Upper-case words
# name the documents above; they become file paths.
CASES = {
    "stallings core": "stallings core --in H",
    "stallings member": "stallings member --in H --word ab",
    "stallings index": "stallings index --in H",
    "stallings meet": "stallings meet --in H --other K",
    "stallings conj": "stallings conj --in H --word b",
    "stallings hall": "stallings hall --in H2 --word a",
    "cvn len": "cvn len --in THETA --word aB",
    "cvn vol": "cvn vol --in THETA",
    "cvn minsub": "cvn minsub --in ROSE --sub H",
    "cvn omega": "cvn omega --in ROSE --epsilon 1/2",
    "cvn transverse": "cvn transverse --in ROSE --sub A --max-word 3 --radius 4",
    "soi orbit": "soi orbit --in GOLDEN --point 1/2 --budget 40",
    "soi families": "soi families --in WORKED",
    "soi glp": "soi glp --in WORKED",
    "soi grow": 'soi grow --in WORKED --start [["0","1/8"]]',
    "soi cover": 'soi cover --in GOLDEN --seed-set [["0","1/5"]] '
                 '--target ["0","1"] --delta 1/100',
    "soi indecomp": 'soi indecomp --in GOLDEN --piece ["0","1/10"] '
                    '--target ["1/2","3/5"]',
    "soi sub-orbit": "soi sub-orbit --in GOLDEN --sub A --point 0",
    "soi saturate": 'soi saturate --in GOLDEN --sub A --piece ["0","1/10"]',
    "soi discrete": "soi discrete --in GOLDEN --sub A",
    "measure check": "measure check --in WORKED --measure M1",
    "measure combine": "measure combine --measure M1 --other M2 "
                       "--c1 1/2 --c2 1/4",
    "lam carries": "lam carries --in H --word aa",
    "lam scan": "lam scan --in ROSE --sub BAB --epsilon 1/2",
    # variants
    "stallings hall, no word": "stallings hall --in H2",
    "soi families, budget-limited": "soi families --in GOLDEN --budget 60",
    "soi discrete, sample list": 'soi discrete --in GOLDEN --sub A '
                                 '--samples ["0","1/2"] --budget 100',
    "lam carries, leaf file": "lam carries --in H --leaf LEAF",
    "lam scan, explicit budgets": "lam scan --in ROSE --sub BAB --epsilon 1/2 "
                                  "--max-word 4 --max-translate 1",
    "soi glp, max-word 6": "soi glp --in WORKED --max-word 6",
}

RUN_DIGESTS = {
    "stallings core --text": (0, "fe3414f2bab192125dbd215c45544f9d655d07551a03736a079973cab6114735"),
    "stallings core --json": (0, "04dd98a89961bb2d51218aeb0fffb6843df56c788da64ea4f7b4677c97d72060"),
    "stallings member --text": (0, "6bb9b415e40d4891c9479627b9bf146d1dadcf5dc9770ec22b60201cb211932a"),
    "stallings member --json": (0, "6ff95d2c342c7748e0f872cf07471df47b24c49f952c4a451ff842fcf0a952f8"),
    "stallings index --text": (0, "8d9e57dd786efff107ac3a5669f7ba295a53cd3e793a7c552486b1e33d73dc3e"),
    "stallings index --json": (0, "32b967c9104d2e0fab651ca4232383acb7ed457110d9acb0696de2310ef7997f"),
    "stallings meet --text": (0, "7cc04901a2610ddb48424bee0f1de15042c8ca479a810783b82f69fe67ce7e37"),
    "stallings meet --json": (0, "4e2863ea3ff92191523fdd8827c6dbe42efd507d65f98b75f08a1013a89dc984"),
    "stallings conj --text": (0, "95fb2b16538c5c6a83f49632ee55e3621781119c3be3a92bb7f933c810239609"),
    "stallings conj --json": (0, "cc8ccf24b9cac89a2af4b595d944145b91b3001227449455ccceb786e2a35a5f"),
    "stallings hall --text": (0, "08589180d91fc543359f5826bda09f638ab96c71650747351301d8e6f1c46c85"),
    "stallings hall --json": (0, "904c2d22e44e23affd3774691b66e781f3589592415737ae2a93bb50cf78df03"),
    "cvn len --text": (0, "969e6edf197256718ce288ab402c515e28554c95806788da8577685fc2e7f11c"),
    "cvn len --json": (0, "f34fb1d9314d6ca682b0a385f7428d8c63346136bd0cadf03ccecef4a41c4093"),
    "cvn vol --text": (0, "9be31bcb21a6b2e59efdc38c6e30f3f3ba014fc32529f0b0a1c7476a4cba8dc3"),
    "cvn vol --json": (0, "1036457b38d5498a070dff9ddea067f17ba653716f6a4bd24b2d6101e68ec704"),
    "cvn minsub --text": (0, "d2994e50fac17550535e0fccbce982ee758188efa1d5056853c043a8a47e0d43"),
    "cvn minsub --json": (0, "23afe3cacb8eb55c84999f9ae23783f90564face741d30cd2e76abc545b544b0"),
    "cvn omega --text": (0, "34c2b6dbbffb38977a83a75e24036fcc6c51f1a6c17705e32861bafdb2f73f8d"),
    "cvn omega --json": (0, "7ea5f0f2bcb2f7f2ff8ea1b6e67bd1161356487a4039aa1bfcb4e2d84c58da2d"),
    "cvn transverse --text": (2, "42b3d186402618ec5e472f3052e186c5d9e76dc42deee6574589aef738cc02d1"),
    "cvn transverse --json": (2, "23fe714e9a7d9db0e67e384cda7f9ec7b5b1e6d52c3e2b97f732a88d09cca0e7"),
    "soi orbit --text": (2, "abd4bd90ff28e6d26c94a5668f315b129faeba3731c87ec7043e7c10db2c941e"),
    "soi orbit --json": (2, "e19756bbd1a19a430a290d74c8997769b8ca7af7d30a02241a774b9d82debd21"),
    "soi families --text": (0, "7de6aae7c0626076df5bed13dbec6842ba92eda92123365d4b80f1ef65dc0ddd"),
    "soi families --json": (0, "98e282e230e7df8ded69bd0a56262e2b4c4838a65168443cec9cfda124444ef7"),
    "soi glp --text": (0, "d04a629bad3381cf4393cefdc89a85b3b6b905416f808d8ada5443d5713a2c4e"),
    "soi glp --json": (0, "667cb3aced2750d2329ace2688321f2214c5f28f0e81be43e02de397c2636088"),
    "soi grow --text": (0, "be78bb27545a8df7a6dcf2f06383d3f0176f09dfbea472058f76e884c46a4deb"),
    "soi grow --json": (0, "9d5b47d44b34f259a054dfab567cacbf2c0f78e9f7ce4360f9c2ffc8bb8f4c59"),
    "soi cover --text": (0, "24c1a6b0799fd52ae697bbd0a3a9c567917035c6cedd321277419039836082ca"),
    "soi cover --json": (0, "47330a7fc8c0ce597168fbf791044c20486db3a3c643b1fbf5b0b9c759cd5351"),
    "soi indecomp --text": (0, "091df102603b13c56585c917ef82416a8c585a45ffd9ac388ca31fdeccddd8f8"),
    "soi indecomp --json": (0, "38bc1eebdf3ca2b2783d7a6c5beaa5814582a4014dd5988838b343d23b000de0"),
    "soi sub-orbit --text": (0, "d016d158592363a276cc0c615b19382e051ab9acc216bde4190fba875ffb2d75"),
    "soi sub-orbit --json": (0, "94f132473bbc7222f27a883403b159af39741177f51404dc3bd60827d97e1db3"),
    "soi saturate --text": (0, "1b60c3e6cd0e33f2f81bb2b0337187f169fe11456b0674803c31752331add6a8"),
    "soi saturate --json": (0, "70f0f73308beab5e22afe4054e8068edd92764eb8a3ef8f40e5e0513397e57b6"),
    "soi discrete --text": (0, "7275fe02eff7744d862dcbe705b2331305ed5e712af56fb9200209533da90f45"),
    "soi discrete --json": (0, "9883a8d907720f31b2cb767cea2239a864a0b66239f9b62ac3860176249fdb15"),
    "measure check --text": (0, "78381321cccdeea960b07ffb3eee227b23d18f6cbb6fcedf2586497ba006f7a1"),
    "measure check --json": (0, "49b5b177b9cc5c06e4be8bd43813731c0d5de13a679093e209d80dac5ad3b5c3"),
    "measure combine --text": (0, "9e0e7035f2b817e2f93505c0d45d312b9018486bb5ae4be1c6649dfc15dacd5f"),
    "measure combine --json": (0, "9dccf6b20bf391c3b3a98bc2bad38f7eed39ef96e3864c864028cfa018c890fe"),
    "lam carries --text": (0, "f4aaa62a55b17f2f9561b7cc50ecc216f6c18875d4c51686244ae7878d775619"),
    "lam carries --json": (0, "cfd368df5de9969c5dc8b7f3b2a7688af75430af24d6499e3b8af21b5b333c5a"),
    "lam scan --text": (2, "2ab3fa17a056e1be7b8e4ff76a18c53c504d62ec7a8d121178e8d5e783926358"),
    "lam scan --json": (2, "e4d76e959c1c2fb8e7b7397e02975c1d33bf4976ec3118c677cc4d29721a3340"),
    "stallings hall, no word --text": (0, "6f2caf04279dd49aa6c321055746016891cb9c9288b609837fecbe9385f5a110"),
    "stallings hall, no word --json": (0, "edcb73d68b1e3a4ed477ea2e9eee50a0c12d73aef8d045135ba30ba9c9be4ef4"),
    "soi families, budget-limited --text": (2, "dd98c2bd3650952478176c175d58206bfee57deee1eccac1516c1576ad1d8cd4"),
    "soi families, budget-limited --json": (2, "664fd0dd16be61a400201361bf6d017533f953e28b72ec21d12bfff63e618985"),
    "soi discrete, sample list --text": (0, "f3d4cea235e6ce71834fc0f7aa1125ac3a62fdef72bca64c187a605da6c2bffa"),
    "soi discrete, sample list --json": (0, "f569a5825a627ebed6a07927945cb99fad47b63d0bce6575ba5c39e52ade155f"),
    "lam carries, leaf file --text": (0, "f4aaa62a55b17f2f9561b7cc50ecc216f6c18875d4c51686244ae7878d775619"),
    "lam carries, leaf file --json": (0, "cfd368df5de9969c5dc8b7f3b2a7688af75430af24d6499e3b8af21b5b333c5a"),
    "lam scan, explicit budgets --text": (2, "b6a8f8691fd2e35fc60a79a5c1b3e4e87c6597f26be6707328d5a2ea7dd8224d"),
    "lam scan, explicit budgets --json": (2, "582328ba664591df4bdc8d2fad48bd1de89dbd4cdd00d215d82e6af62990c3c5"),
    "soi glp, max-word 6 --text": (0, "1757f644c9fbb9bcd74ff66af7e2d3fb1c085f4e64eb97b3061091b21ff44b41"),
    "soi glp, max-word 6 --json": (0, "587ab1ddafe05f9ccafba05158e2041cc173e18033066a9fb7dc7ce87be2f223"),
}

REGISTRY_LEAVES = 24


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-surface")
    paths = {}
    for name, doc in DOCUMENTS.items():
        if callable(doc):
            doc = doc()
        path = root / f"{name.lower()}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(case: str, files: dict) -> list[str]:
    return [files.get(word, word) for word in CASES[case].split()]


def test_every_registry_leaf_has_a_run():
    leaves = {" ".join(path.split()[1:]) for path in PARSER_DIGESTS
              if len(path.split()) == 3 and path.split()[1] != "scenario"}
    assert len(leaves) == REGISTRY_LEAVES
    assert leaves <= set(CASES)
    assert sorted(RUN_DIGESTS) == sorted(
        f"{case} --{mode}" for case in CASES for mode in ("text", "json"))


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_output(capsys, files, case, mode):
    code, out, err = _run(capsys, _argv(case, files) + [f"--{mode}"])
    assert (code, _sha256(out + "\0" + err)) == RUN_DIGESTS[f"{case} --{mode}"]


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_output_of_the_copying_renderer(capsys, files, monkeypatch, case, mode):
    # the renderer that copied each report before encoding it gives the same
    # bytes, for every registry operation
    monkeypatch.setattr(cli, "render_json", copying_render_json)
    monkeypatch.setattr(cli, "render_text", copying_render_text)
    code, out, err = _run(capsys, _argv(case, files) + [f"--{mode}"])
    assert (code, _sha256(out + "\0" + err)) == RUN_DIGESTS[f"{case} --{mode}"]


# ------------------------------------------------------ cross-argument errors

@pytest.mark.parametrize("argv,message", [
    ("cvn omega --in ROSE",
     "the following arguments are required: --epsilon"),
    ("lam scan --in ROSE --sub BAB",
     "the following arguments are required: --epsilon"),
    ("lam carries --in H",
     "lam carries needs exactly one of --word or --leaf"),
    ("lam carries --in H --word a --leaf LEAF",
     "lam carries needs exactly one of --word or --leaf"),
])
def test_cross_argument_errors(capsys, files, argv, message):
    code, out, err = _run(capsys, [files.get(w, w) for w in argv.split()])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    ("cvn transverse --in ROSE --sub A --radius -1",
     "radius must be nonnegative, not -1"),
    ("cvn transverse --in ROSE --sub A --max-word -1",
     "max_word must be nonnegative, not -1"),
    ("cvn omega --in ROSE --epsilon 1/2 --max-word -1",
     "max_word must be nonnegative, not -1"),
    ('soi grow --in WORKED --start [["0","1/8"]] --steps -1',
     "steps must be nonnegative, not -1"),
    ("soi orbit --in GOLDEN --point 1/2 --budget -5",
     "budget must be nonnegative, not -5"),
    ("soi glp --in WORKED --max-word -2",
     "max_word must be nonnegative, not -2"),
])
def test_negative_budgets_rejected(capsys, files, argv, message):
    code, out, err = _run(capsys, [files.get(w, w) for w in argv.split()])
    assert (code, out, err) == (1, "", f"error: {message}\n")


DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_document(capsys, tmp_path):
    # a malformed document's error names the file, as an unreadable one's does
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, out, err = _run(capsys, ["stallings", "core", "--in", str(path)])
    assert (code, out, err) == (
        1, "", f"error: subgroup file {str(path)!r}: invalid JSON: nesting too deep\n")


@pytest.mark.parametrize("text,message", [
    ("{", "invalid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    ("[]", "top-level JSON value must be an object"),
])
def test_malformed_second_document(capsys, files, tmp_path, text, message):
    # only --other is bad, and the error names its file
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = _run(capsys, ["measure", "combine", "--measure", files["M1"],
                                   "--other", str(bad)])
    assert (code, out, err) == (1, "", f"error: measure file {str(bad)!r}: {message}\n")


def test_deeply_nested_samples(capsys, files):
    code, out, err = _run(capsys, ["soi", "discrete", "--in", files["GOLDEN"],
                                   "--sub", files["A"], "--samples", DEEP])
    assert (code, out, err) == (
        1, "", "error: --samples: invalid JSON: nesting too deep\n")


@pytest.mark.parametrize("argv,key", [
    ("soi grow --in WORKED --start", "start"),
    ('soi cover --in GOLDEN --target ["0","1"] --delta 1/100 --seed-set',
     "seed_set"),
    ('soi cover --in GOLDEN --seed-set [["0","1/5"]] --delta 1/100 --target',
     "target"),
    ('soi indecomp --in GOLDEN --target ["1/2","3/5"] --piece', "piece"),
])
@pytest.mark.parametrize("text", ["[[", '["0"', DEEP])
def test_malformed_inline_json(capsys, files, argv, key, text):
    code, out, err = _run(capsys, [files.get(w, w) for w in argv.split()]
                          + [text])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {key}: invalid JSON: ")
    assert err.count("\n") == 1 and "Error" not in err
    if text is DEEP:
        assert err == f"error: {key}: invalid JSON: nesting too deep\n"


# The whole-ball search took about five minutes on this call; its report is
# the one pinned here.
DEFAULTS_DIGEST = "aee5faa9fccbebedf671bc427ca27d13c86c08513a3f0fbbbe11238fea4d9cff"


def test_transverse_defaults_end(capsys, files):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cvn", "transverse", "--in", files["ROSE"],
                                   "--sub", files["A"], "--json"])
    elapsed = time.perf_counter() - start
    assert out.startswith('{"budgets":{"max_word":8,"radius":6},')
    assert (code, _sha256(out + "\0" + err)) == (2, DEFAULTS_DIGEST)
    assert elapsed < 10



# Every one of the 10416 rows is disjoint-within-radius; both digests were
# recorded when the ball code still ran on every translate.
DISJOINT_DIGEST = "de6ca8f46fa9653de3f9ddf82d19da947667f7b175a25ef797fa2809df9fc2d4"
DISJOINT_ENVELOPE_DIGEST = "3bb38d631e62da3435e5bfe95c844517988c0b1866c8185f43e1d3ed0ebe4116"


def test_transverse_disjoint_rows(capsys, files):
    code, out, err = _run(capsys, ["cvn", "transverse", "--in", files["ROSE3"],
                                   "--sub", files["A3"], "--max-word", "6",
                                   "--radius", "6", "--json"])
    assert (code, _sha256(out + "\0" + err)) == (2, DISJOINT_DIGEST)
    result, kind = run_op("cvn.transverse", {"graph": DOCUMENTS["ROSE3"](),
                                             "subgroup": DOCUMENTS["A3"],
                                             "max_word": 6, "radius": 6})
    envelope = dict(wrap("cvn.transverse", result), status=kind)
    assert _sha256(render_json(envelope)) == DISJOINT_ENVELOPE_DIGEST


# ----------------------------------------------------------------- start-up

_PROBE = """
import json, sys
from grouptrees import cli
try:
    cli.main(sys.argv[1:])
finally:
    print(json.dumps(sorted(sys.modules)))
"""

# The engines each command must not load.  A `scenario` command builds the
# bundled corpus, so it loads every engine.
_NOT_LOADED = {
    "stallings index": ("intervals", "isometry_systems", "measures",
                        "marked_graphs", "laminations", "basis_change",
                        "corpus"),
    "soi orbit": ("marked_graphs", "laminations", "basis_change", "corpus"),
    "cvn len": ("isometry_systems", "intervals", "measures", "laminations",
                "corpus"),
    "lam carries": ("intervals", "isometry_systems", "measures",
                    "marked_graphs", "basis_change", "corpus"),
    "measure check": ("marked_graphs", "laminations", "basis_change",
                      "folding", "stallings", "corpus"),
    "scenario list": (),
    "--help": ("intervals", "isometry_systems", "measures", "marked_graphs",
               "laminations", "basis_change", "folding", "stallings",
               "corpus"),
}


def _loaded_modules(argv: list[str]) -> set[str]:
    src = str(Path(grouptrees.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command", sorted(_NOT_LOADED))
def test_startup_imports(files, command):
    argv = _argv(command, files) if command in CASES else command.split()
    loaded = _loaded_modules(argv)
    assert "grouptrees.cli" in loaded and "grouptrees.scenarios" in loaded
    # Scalar renders, hashes and parses from its integers: no command
    # builds a Fraction, so none loads fractions (or its decimal and numbers)
    assert not loaded & {"dataclasses", "fractions", "decimal", "numbers"}
    unwanted = {f"grouptrees.{name}" for name in _NOT_LOADED[command]}
    assert not loaded & unwanted
    if command == "scenario list":
        assert {"grouptrees.corpus", "grouptrees.isometry_systems",
                "grouptrees.marked_graphs"} <= loaded
