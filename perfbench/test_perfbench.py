"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math

import pytest

import compare
import run
import spans
import validate
from workloads import WORKLOADS

ATTACK_ARGV = ["attack-demo", "--n", "4", "--trials", "100", "--message", "10110", "--seed", "7"]


def _attack_doc(**result_overrides) -> dict:
    result = {
        "n": 4,
        "message": "10110",
        "trials": 100,
        "successes": 100,
        "success_rate": 1.0,
        "marginal_check": {"passed": True, "max_deviation": 0.0},
        "parity_guess_probability": 0.5 * (1 + (2 * math.cos(math.pi / 8) ** 2 - 1) ** 4),
    }
    result.update(result_overrides)
    return {"tool": "qkdlab", "command": "attack-demo", "seed": 7, "result": result}


def _problems(doc, exit_code=0, stderr="", stdout=None):
    text = json.dumps(doc) if stdout is None else stdout
    return validate.problems(ATTACK_ARGV, exit_code, text, stderr)


def test_valid_attack_demo_output_passes():
    assert _problems(_attack_doc()) == []


def test_rejects_success_rate_below_one():
    assert _problems(_attack_doc(success_rate=0.9999, successes=99))


def test_rejects_missing_field():
    doc = _attack_doc()
    del doc["result"]["marginal_check"]
    found = _problems(doc)
    assert found and "malformed output" in found[0]


def test_rejects_two_json_documents():
    text = json.dumps(_attack_doc())
    assert _problems(None, stdout=text + "\n" + text) == ["stdout holds more than one JSON document"]


def test_rejects_traceback_on_stderr():
    stderr = 'Traceback (most recent call last):\n  File "x.py", line 1\nZeroDivisionError: division by zero\n'
    assert _problems(_attack_doc(), stderr=stderr) == ["traceback on stderr"]


def test_rejects_unexpected_exit_code_and_empty_stdout():
    assert _problems(_attack_doc(), exit_code=1) == ["exit code 1, expected 0"]
    assert _problems(None, stdout="") == ["stdout is empty"]


def test_rejects_weaker_iacc_search():
    argv = ["secrecy", "--n", "5", "--seed", "3"]
    section = {"eps_secret_lower": 0.5, "eps_secret_upper": 0.5, "iacc_lower_bits": 2.0**-5}
    doc = {"tool": "qkdlab", "command": "secrecy", "seed": 3,
           "result": {"gap_report": dict(section), "security_report": dict(section)}}
    assert validate.problems(argv, 0, json.dumps(doc), "") == []
    doc["result"]["gap_report"]["iacc_lower_bits"] = 0.03
    assert validate.problems(argv, 0, json.dumps(doc), "")


def test_keystream_closed_forms():
    argv = WORKLOADS["keystream"].pass_commands(seed=1, index=0)[0]
    result = {"conservation_ok": True, "bits_emitted": 3000 * 256, "stored_final": 900256,
              "consumed_final": 1350329744, "total_retries": 333}
    doc = {"tool": "qkdlab", "command": "keystream-simulate", "seed": int(argv[-1]), "result": result}
    assert validate.problems(argv, 0, json.dumps(doc), "") == []
    result["consumed_final"] += 1
    result["total_retries"] = 500  # 8.7 sigma above the geometric mean
    assert len(validate.problems(argv, 0, json.dumps(doc), "")) == 2


def test_biased_otp_checks_the_bound_and_the_exit_code():
    argv = WORKLOADS["montecarlo"].pass_commands(seed=1, index=0)[1]
    row = {"name": "otp_majority_zeros_1", "advantage_total": 0.1071, "within_bound": False}
    result = {"trials": 20000, "eps_bound": 0.1, "all_within_bound": False, "rows": [row]}
    doc = {"tool": "qkdlab", "command": "verify-composition", "seed": int(argv[-1]), "result": result}
    assert validate.problems(argv, 1, json.dumps(doc), "") == []  # 1.4 sigma: sampling noise
    # the exit code must agree with the reported flag
    assert validate.problems(argv, 0, json.dumps(doc), "") == ["exit code 0 disagrees with the reported result"]
    result["all_within_bound"] = True
    assert validate.problems(argv, 0, json.dumps(doc), "") == []
    assert validate.problems(argv, 1, json.dumps(doc), "") == ["exit code 1 disagrees with the reported result"]
    row["advantage_total"] = 0.13  # 6 sigma above the bound
    assert validate.problems(argv, 0, json.dumps(doc), "")


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [6, 8] and e [7, 8.5] that overlap (covered once).
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("d", 6.0, 8.0, 3),
        ("e", 7.0, 8.5, 3),
        ("a", 9.2, 9.7, 0),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"root": 10 - 3 - 4 - 0.5, "a": 2.0 + 0.5, "c": 1.0, "b": 4 - 2.5, "d": 2.0, "e": 1.5})


def test_tracer_records_nested_spans_and_counts():
    tracer = spans.Tracer()
    leaf = tracer._wrap("m.leaf", lambda x: x, None)
    outer = tracer._wrap("m.outer", lambda x: leaf(x) + 1, lambda c, a, k, r: c.update({"m.count": r}))
    assert outer(4) == 5
    (i_outer, s0, e0, p0), (i_leaf, s1, e1, p1) = tracer.spans
    assert tracer.names[i_outer] == "m.outer" and p0 == -1
    assert tracer.names[i_leaf] == "m.leaf" and p1 == 0
    assert s0 <= s1 <= e1 <= e0
    assert tracer.counters["m.count"] == 5


def test_workload_argv_follows_the_seed():
    for workload in WORKLOADS.values():
        assert workload.pass_commands(5, 0) == workload.pass_commands(5, 0)
        assert workload.passes(30) >= 2
    first = WORKLOADS["montecarlo"].pass_commands(5, 0)
    assert first != WORKLOADS["montecarlo"].pass_commands(6, 0)
    assert first != WORKLOADS["montecarlo"].pass_commands(5, 1)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, base, 0.1, True) == "unchanged"
    assert compare.verdict(base, [x * 0.8 for x in base], 0.1, True) == "better"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1, True) == "worse"
    wide = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, wide, 0.1, True) == "unresolved"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1, False) == "better"


def test_more_failures_make_a_change_worse(capsys):
    names = ["wall_s", "cmd_s"]

    def runs(failed, value):
        result = {"correct": failed == 0, "attempted": 4, "failed": failed,
                  "metrics": {m: {"value": value, "unit": "s"} for m in names}}
        return {("montecarlo", 0): [{"result": result}] * 10}

    spec = {"end_to_end": [{"name": m, "better": "lower", "bound": 0.25} for m in names], "per_layer": []}
    compare.compare(runs(0, 10.0), runs(1, 5.0), spec)  # faster, but fails more
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all("0/40 10/40  worse (failures)" in row for row in rows)
    compare.compare(runs(1, 10.0), runs(0, 5.0), spec)
    assert all("better" in row for row in capsys.readouterr().out.splitlines()[1:])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_pass_has_no_failures(name):
    out = run.run_workload(name, seed=3, seconds=1, trace=False, smoke=True)
    assert out["failures"] == [] and out["result"]["failed"] == 0
    assert all(m["value"] > 0 for m in out["result"]["metrics"].values())


def test_smoke_traced_pass_reports_every_layer_metric():
    out = run.run_workload("secrecy", seed=3, seconds=1, trace=True, smoke=True)
    metrics = out["result"]["metrics"]
    assert out["result"]["failed"] == 0
    # n = 3: 27 per-qubit members + 32 random bases + 32 hill-climb steps, twice
    assert metrics["security_metrics.iacc_evaluations"]["value"] == 2 * (27 + 32 + 32)
    assert metrics["attack_lab.build_attack_state.calls_per_req"]["value"] == 2
