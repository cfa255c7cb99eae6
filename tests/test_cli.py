"""End-to-end CLI coverage, run in process against qkdlab.cli.main."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdlab
from qkdlab import attack_lab, cli, keystream, security_metrics
from qkdlab.cli import EXIT_FINDING, EXIT_OK, EXIT_USAGE, main
from qkdlab.keystream import LedgerBroken, StreamParams


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# argument handling


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qkdlab ")


def test_bad_bitstring_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack-demo", "--message", "01x"])
    assert exc.value.code == EXIT_USAGE


def test_wrong_message_length_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack-demo", "--n", "3", "--message", "01"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["attack-demo", "--n", "2", "--trials", "0"],
        ["attack-demo", "--n", "2", "--trials", "-4"],
        ["rsa-demo", "--auctions", "0"],
        ["rsa-demo", "--auctions", "-2"],
    ],
)
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "positive integer" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qkdlab.__file__)))
    code = "import sys, qkdlab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "False"


def test_bad_env_seed_rejected(capsys, monkeypatch):
    monkeypatch.setenv("QKDLAB_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        main(["attack-demo", "--n", "2", "--trials", "5"])
    assert exc.value.code == EXIT_USAGE


def test_emit_writes_what_json_dumps_gives(capsys, tmp_path):
    # enough rows that the encoder's chunks span several write batches
    payload = {
        "rows": [{"x": i / 7, "flags": [i, None, True, "\u00e9"]} for i in range(20_000)],
        "a": {"nested": {"inf": float("inf"), "empty": [], "obj": {}}},
    }
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    cli._emit(payload, None)
    assert capsys.readouterr().out == want
    path = tmp_path / "report.json"
    cli._emit(payload, str(path))
    assert path.read_bytes() == want.encode()


STREAM = ["--n0", "60000", "--ell0", "12000", "--rounds", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["keystream-schedule", *STREAM, "--c", "inf"],
        ["keystream-schedule", *STREAM, "--rho", "inf"],
        ["keystream-schedule", *STREAM, "--c", "1e308"],
        ["keystream-simulate", *STREAM, "--c", "inf"],
        ["keystream-simulate", *STREAM, "--n0", "1" + "0" * 400],
        ["keystream-simulate", *STREAM, "--ell", str(2**52)],
        ["keystream-plan", "--target-eps", "1e-9", "--gamma", "inf"],
        ["keystream-plan", "--target-eps", "1e-9", "--rho", "inf"],
        ["keystream-plan", "--target-eps", "1e-9", "--nu", "1e-300"],
        ["rsa-demo", "--auctions", "3", "--modulus-bits", str(10**30)],
        ["verify-composition", "--example", "attack-otp", "--n", "-1"],
        ["verify-composition", "--example", "attack-otp", "--n", "0"],
        ["verify-composition", "--example", "attack-otp", "--n", str(10**30)],
        ["attack-demo", "--n", "-3"],
    ],
)
def test_unrepresentable_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_NUMBER = st.one_of(
    st.sampled_from(["0", "-1", "inf", "-inf", "nan", "1e308", "1e-300", "5e-324",
                     str(2**53), str(2**53 + 1), str(10**30)]),
    st.integers(-2, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_SIZE = st.one_of(st.integers(1, 300).map(str), _NUMBER)
_RATE = st.one_of(st.sampled_from(["1e-3", "1e-2", "0.5", "1e-9"]), _NUMBER)
# counts stay small so that every drawn command finishes quickly
_COUNT = st.one_of(st.integers(-2, 50).map(str), st.sampled_from(["inf", "nan", "1.5"]))
_ABORT = st.sampled_from(["0", "0.2", "0.5", "1", "-0.1", "1.5", "nan", "inf"])
_STREAM = {"--n0": _SIZE, "--ell0": _SIZE}
_SEED = st.integers(-2, 2**70).map(str)
_TRIALS = st.integers(-2, 500).map(str)
# valid pad lengths stay small: attack-demo builds the n-qubit state for
# its marginal check up to n = 7, and exact attack-otp enumerates
# 2^(2n+1) samples up to n = 10
_PAD_N = st.sampled_from(["-1", "0", "1", "2", "4", "12", "nan", str(2**53), str(10**30)])
_MESSAGE = st.one_of(st.text("01", max_size=6), st.just("0a1"))
_MODE = st.sampled_from(["auto", "exact", "sample"])
_STREAM_OPTIONS = {
    "--gamma": _RATE, "--rho": _RATE, "--nu": _RATE, "--c": _RATE,
    "--ell": _SIZE, "--eps0": _RATE, "--rounds": _COUNT,
}


def _argv(command: str, required: dict, optional: dict) -> st.SearchStrategy:
    drawn = st.fixed_dictionaries(required, optional=optional)
    return drawn.map(lambda opts: [command, *(x for pair in opts.items() for x in pair)])


_ARGV = st.one_of(
    _argv("keystream-plan", {"--target-eps": _RATE}, {
        "--gamma": _RATE, "--rho": _RATE, "--nu": _RATE, "--eps0": _RATE,
        "--ell": _SIZE, "--horizon": _COUNT, "--max-n0": _SIZE,
    }),
    _argv("keystream-schedule", _STREAM, _STREAM_OPTIONS),
    st.tuples(
        _argv("keystream-simulate", _STREAM, {**_STREAM_OPTIONS, "--abort-prob": _ABORT}),
        st.booleans(),
    ).map(lambda drawn: drawn[0] + ["--charge-per-attempt"] * drawn[1]),
    _argv("rsa-demo", {}, {
        "--bid": _SIZE, "--auctions": _COUNT, "--max-bid": _SIZE,
        "--modulus-bits": st.one_of(st.integers(10, 70).map(str), _NUMBER),
    }),
    st.tuples(
        _argv("attack-demo", {"--trials": _TRIALS}, {"--n": _PAD_N, "--message": _MESSAGE, "--seed": _SEED}),
        st.booleans(),
    ).map(lambda drawn: drawn[0] + ["--wrong-basis"] * drawn[1]),
    _argv("verify-composition", {"--example": st.just("biased-otp"), "--mode": _MODE, "--trials": _TRIALS}, {
        "--message": _MESSAGE, "--p-zero": _RATE, "--seed": _SEED,
    }),
    _argv("verify-composition", {
        "--example": st.just("attack-otp"), "--n": _PAD_N, "--mode": _MODE, "--trials": _TRIALS,
    }, {"--declared-eps": _RATE, "--seed": _SEED}),
    _argv("secrecy", {
        "--n": st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["8", "nan", str(10**30)])),
        "--budget": st.one_of(st.integers(-2, 4).map(str), st.just("nan")),
    }, {
        "--families": st.sampled_from(["per_qubit", "random", "hill_climb", "per_qubit,random", "psychic", ""]),
        "--seed": _SEED,
    }),
)


@given(_ARGV)
@settings(max_examples=300)
def test_any_argv_maps_to_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_FINDING, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert isinstance(json.loads(out.getvalue()), dict)  # exactly one document
    if code == EXIT_USAGE:
        assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# attack-demo


ATTACK_ARGS = ["attack-demo", "--n", "2", "--trials", "25", "--seed", "7"]


def test_attack_demo_envelope(capsys):
    code, payload, _ = run_json(capsys, ATTACK_ARGS)
    assert code == EXIT_OK
    assert payload["tool"] == "qkdlab"
    assert payload["command"] == "attack-demo"
    assert payload["seed"] == 7
    assert "generated_at" not in payload  # timestamps are opt-in
    result = payload["result"]
    assert result["success_rate"] == 1.0
    assert result["marginal_check"]["passed"] is True
    assert result["marginal_check"]["max_deviation"] < 1e-9
    assert result["single_basis_guess"]["p_star"] == pytest.approx(0.8535533905, abs=1e-6)
    assert len(result["last_transcript"]["key"]) == 3


def test_attack_demo_deterministic(capsys):
    _, first, _ = run_cli(capsys, ATTACK_ARGS)
    _, second, _ = run_cli(capsys, ATTACK_ARGS)
    assert first == second


def test_attack_demo_env_seed_matches_flag(capsys, monkeypatch):
    _, explicit, _ = run_cli(capsys, ATTACK_ARGS)
    monkeypatch.setenv("QKDLAB_SEED", "7")
    _, via_env, _ = run_cli(capsys, ["attack-demo", "--n", "2", "--trials", "25"])
    assert via_env == explicit


def test_attack_demo_wrong_basis_control(capsys):
    code, payload, _ = run_json(capsys, ATTACK_ARGS + ["--wrong-basis"])
    assert code == EXIT_OK  # a sub-1.0 rate is expected for the control run
    assert payload["result"]["wrong_basis"] is True
    assert payload["result"]["success_rate"] < 1.0


def test_attack_demo_timestamp_opt_in(capsys):
    _, payload, _ = run_json(capsys, ATTACK_ARGS + ["--timestamp"])
    assert "generated_at" in payload


def test_attack_demo_out_file_and_curve_csv(capsys, tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(
        capsys, ATTACK_ARGS + ["--out", str(out), "--curve-csv", str(csv_path)]
    )
    assert code == EXIT_OK
    assert stdout == ""
    payload = json.loads(out.read_text())
    assert payload["command"] == "attack-demo"
    raw = csv_path.read_bytes()
    assert raw.count(b"\r\n") >= 3
    assert raw.startswith(b"n,parity_guess_probability\r\n")
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".qkdlab-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# secrecy


def test_secrecy_report(capsys):
    code, payload, _ = run_json(
        capsys, ["secrecy", "--n", "2", "--budget", "4", "--families", "per_qubit", "--seed", "0"]
    )
    assert code == EXIT_OK
    report = payload["result"]["security_report"]
    assert report["eps_secret_lower"] == pytest.approx(0.5, abs=1e-9)
    assert report["eps_secret_upper"] == pytest.approx(0.5, abs=1e-9)
    assert report["iacc_lower_bits"] == pytest.approx(0.25, abs=1e-9)
    assert report["provenance"]["correctness_source"] == "assumed_zero"
    gap = payload["result"]["gap_report"]
    assert gap["ben_or_required_iacc"] == pytest.approx(2**-5, abs=1e-12)


def test_secrecy_computes_shared_results_once(capsys, monkeypatch):
    calls = {"build_attack_state": 0, "accessible_info_lower": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {name: counted(name, getattr(attack_lab, name)) for name in calls}
    for module in (attack_lab, security_metrics):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    code, payload, _ = run_json(capsys, ["secrecy", "--n", "3", "--budget", "4", "--seed", "5"])
    assert code == EXIT_OK
    assert calls == {"build_attack_state": 1, "accessible_info_lower": 1}
    report, gap = payload["result"]["security_report"], payload["result"]["gap_report"]
    assert gap["iacc_lower_bits"] == report["iacc_lower_bits"]
    assert gap["eps_secret_upper"] == report["eps_secret_upper"]


def test_secrecy_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["secrecy", "--n", "2", "--families", "psychic"])
    assert exc.value.code == EXIT_USAGE


def test_secrecy_correctness_file_samples(capsys, tmp_path):
    path = tmp_path / "corr.json"
    path.write_text(json.dumps({"samples": [["000", "000"], ["001", "001"],
                                            ["010", "011"], ["111", "111"]]}))
    code, payload, _ = run_json(
        capsys,
        ["secrecy", "--n", "2", "--budget", "4", "--families", "per_qubit",
         "--correctness-file", str(path), "--seed", "0"],
    )
    assert code == EXIT_OK
    report = payload["result"]["security_report"]
    assert report["provenance"]["correctness_source"] == "samples"
    assert report["eps_correct"] > 0.25  # one mismatch in four samples


def test_secrecy_correctness_file_bad_shape(capsys, tmp_path):
    path = tmp_path / "corr.json"
    path.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run_cli(
        capsys, ["secrecy", "--n", "2", "--correctness-file", str(path)]
    )
    assert code == EXIT_USAGE
    assert "samples" in err


# ---------------------------------------------------------------------------
# keystream commands


def test_keystream_plan_meets_target(capsys):
    code, payload, _ = run_json(capsys, ["keystream-plan", "--target-eps", "1e-6"])
    assert code == EXIT_OK
    result = payload["result"]
    assert result["budget"]["eps_total"] <= 1e-6
    assert result["params"]["n0"] >= 1
    assert payload["parameters"]["target_eps"] == 1e-6


def test_keystream_plan_infeasible(capsys):
    code, out, err = run_cli(
        capsys, ["keystream-plan", "--target-eps", "1e-9", "--max-n0", "1000"]
    )
    assert code == EXIT_FINDING
    assert out == ""
    detail = json.loads(err)
    assert detail["error"] == "planning_failed"


def test_keystream_schedule_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "schedule.csv"
    code, payload, _ = run_json(
        capsys,
        ["keystream-schedule", "--n0", "60000", "--ell0", "12000",
         "--rounds", "5", "--csv", str(csv_path)],
    )
    assert code == EXIT_OK
    assert len(payload["result"]["rounds"]) == 5
    raw = csv_path.read_bytes()
    assert raw.startswith(b"i,n_i,ell_i,eps_i,cumulative_eps\r\n")
    assert raw.endswith(b"\r\n")


def test_keystream_schedule_builds_the_schedule_once(capsys, monkeypatch):
    calls = []
    original = keystream.schedule

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(keystream, "schedule", counting)
    monkeypatch.setattr(cli, "schedule", counting)
    code, payload, _ = run_json(
        capsys, ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "7"]
    )
    assert code == EXIT_OK
    assert len(calls) == 1
    params = StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000)
    assert payload["result"]["budget"] == keystream.total_eps(params, 7).to_json_dict()


def test_keystream_simulate_clean_run(capsys):
    code, payload, _ = run_json(
        capsys,
        ["keystream-simulate", "--n0", "60000", "--ell0", "12000",
         "--rounds", "30", "--abort-prob", "0.2", "--seed", "1"],
    )
    assert code == EXIT_OK
    result = payload["result"]
    assert result["bits_emitted"] == 30 * 256
    assert result["conservation_ok"] is True
    assert result["total_retries"] >= 0


def test_keystream_simulate_underflow(capsys):
    code, out, err = run_cli(
        capsys,
        ["keystream-simulate", "--n0", "60000", "--ell0", "300", "--rounds", "50",
         "--abort-prob", "0.6", "--charge-per-attempt", "--seed", "0"],
    )
    assert code == EXIT_FINDING
    assert out == ""
    assert json.loads(err)["error"] == "key_ledger_underflow"


def test_keystream_simulate_retry_exhaustion_is_a_finding(capsys):
    code, out, err = run_cli(
        capsys,
        ["keystream-simulate", "--n0", "60000", "--ell0", "12000", "--rounds", "3",
         "--abort-prob", "1.0", "--seed", "0"],
    )
    assert code == EXIT_FINDING
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "retry_limit_exceeded" and "attempts" in report["detail"]


def test_keystream_simulate_ledger_break_is_a_finding(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise LedgerBroken("ledger broken at round 1")

    monkeypatch.setattr(cli, "simulate_stream", broken)
    code, out, err = run_cli(capsys, ["keystream-simulate", "--n0", "60000", "--ell0", "12000"])
    assert code == EXIT_FINDING
    assert out == ""
    assert json.loads(err) == {"error": "ledger_broken", "detail": "ledger broken at round 1"}


# ---------------------------------------------------------------------------
# verify-composition and rsa-demo


def test_verify_composition_biased_otp(capsys):
    code, payload, _ = run_json(capsys, ["verify-composition", "--seed", "0"])
    assert code == EXIT_OK
    result = payload["result"]
    assert result["all_within_bound"] is True
    assert result["mode"] == "exact"
    assert result["rows"][0]["advantage_total"] == pytest.approx(0.1, abs=1e-12)


def test_verify_composition_attack_otp_flags_violation(capsys):
    code, payload, _ = run_json(
        capsys, ["verify-composition", "--example", "attack-otp", "--n", "3", "--seed", "0"]
    )
    assert code == EXIT_FINDING
    result = payload["result"]
    assert result["bound_violated"] is True
    assert result["estimate"]["advantage"] == pytest.approx(0.5, abs=1e-12)


def test_verify_composition_sample_mode(capsys):
    code, payload, _ = run_json(
        capsys,
        ["verify-composition", "--example", "attack-otp", "--n", "3",
         "--mode", "sample", "--trials", "2000", "--seed", "0"],
    )
    assert code == EXIT_FINDING
    assert payload["result"]["estimate"]["mode"] == "sample"
    assert payload["result"]["estimate"]["accept_real"] == 1.0


def test_rsa_demo_single(capsys):
    code, payload, _ = run_json(capsys, ["rsa-demo", "--bid", "123", "--seed", "4"])
    assert code == EXIT_OK
    result = payload["result"]
    assert result["forgery_doubled"] is True
    assert result["bob_bid"] == 246
    assert result["winner"] == "bob"


def test_rsa_demo_sweep(capsys):
    code, payload, _ = run_json(
        capsys, ["rsa-demo", "--auctions", "5", "--max-bid", "400", "--seed", "4"]
    )
    assert code == EXIT_OK
    assert payload["result"]["bob_win_rate"] == 1.0
    assert len(payload["result"]["outcomes"]) == 5
