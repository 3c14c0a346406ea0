"""Byte-identity gate: the bundled scenario reports, the golden script and
every report of the in-process benchmark workloads at seeds 1-3.

The digests are sha256 sums of ``render_json(run_scenario(s))`` for each
bundled scenario, of the stdout of ``scripts/golden_dynamics.py`` with its
default arguments, and, in ``scripts/report_digests.json``, of both
renderings of every dynamics, folding and census request at seeds 1-3.  A
change that alters any report by one byte fails here; re-record a digest
only for a deliberate change of report contents.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grouptrees.core import Scalar
from grouptrees.report import render_json
from grouptrees.scenarios import bundled_scenarios, run_scenario

ROOT = Path(__file__).resolve().parent.parent

SCENARIO_DIGESTS = {
    "hall": "1d518d177e8d1c738ea1e37bd87a0c1c7f94b94d1fa367ae1d0ed2646a1f88b2",
    "glp": "5b75c97e9f3412deb78bb75eddfc0fa74e59dd4f1e8172019d289ab7dc4fa658",
    "grow": "73af0da9d4289e86f99b6ebee473257dde742e0975b8fe33cacf55993216d05e",
    "main-theorem": "e8d4c92782f35e7d3d482fbb9b73a9b23d39fe09415197309ab40a05c7334e51",
    "carrier": "ff12f2125ab76d20a75048352d943c24522edd96ba4deb6bf537746a950a92cc",
}
GOLDEN_DYNAMICS_DIGEST = "3bc90b488ce506a6285db261e300547e1198c511544ba5f3ea44c22eef4a591a"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, env=env, cwd=ROOT)


def test_every_bundled_scenario_is_pinned():
    assert sorted(bundled_scenarios()) == sorted(SCENARIO_DIGESTS)


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_report_bytes(name):
    report = run_scenario(bundled_scenarios()[name])
    assert _sha256(render_json(report).encode()) == SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_report_bytes_under_another_hash(name, monkeypatch):
    # A Scalar's hash is that of its normal-form integers, which no hash seed
    # varies, so runs under two PYTHONHASHSEEDs cannot show a report that
    # follows a set's or dict's iteration order.  Another valid hash (equal
    # values still hash equal) reorders them; every report must stay put.
    monkeypatch.setattr(Scalar, "__hash__",
                        lambda s: hash((s._d, s._den, s._b, s._a)))
    assert hash(Scalar.parse("1/2+sqrt5")) != hash((1, 2, 2, 5))
    report = run_scenario(bundled_scenarios()[name])
    assert _sha256(render_json(report).encode()) == SCENARIO_DIGESTS[name]


def test_golden_dynamics_output_bytes():
    proc = _script("golden_dynamics.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert _sha256(proc.stdout) == GOLDEN_DYNAMICS_DIGEST


def test_workload_reports_match_recorded_digests():
    # every dynamics, folding and census report at seeds 1-3, JSON and text
    proc = _script("report_digests.py", "--compare", "scripts/report_digests.json")
    assert proc.returncode == 0, proc.stderr.decode()


def test_recorded_json_digests_agree_with_the_benchmark_reference():
    # the benchmark records the same JSON digests at seed 1, from its worker
    recorded = json.loads((ROOT / "scripts" / "report_digests.json").read_text())
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for workload in ("dynamics", "folding", "census"):
        assert recorded[workload]["1"]["json"] == reference[workload]["digests"]
