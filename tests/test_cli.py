"""End-to-end CLI coverage, run in process against qkdlab.cli.main."""

import contextlib
import dataclasses
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


CAPPED = [
    (["keystream-schedule", "--n0", "60000", "--ell0", "12000"], "--rounds", cli.MAX_ROUNDS),
    (["keystream-simulate", "--n0", "60000", "--ell0", "12000"], "--rounds", cli.MAX_ROUNDS),
    (["keystream-plan", "--target-eps", "1e-9"], "--horizon", cli.MAX_HORIZON),
    (["rsa-demo"], "--auctions", cli.MAX_AUCTIONS),
]


def test_documented_caps():
    assert (cli.MAX_ROUNDS, cli.MAX_HORIZON, cli.MAX_AUCTIONS) == (10**6, 10**4, 10**5)


@pytest.mark.parametrize("argv, flag, cap", CAPPED)
def test_counts_above_their_cap_are_usage_errors(capsys, argv, flag, cap):
    # the parser refuses the value, so no loop runs
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(cap + 1)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: '{cap + 1}' exceeds the cap of {cap}" in captured.err
    args = cli.build_parser().parse_args([*argv, flag, str(cap)])
    assert getattr(args, flag[2:]) == cap
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"(at most {cap})" in " ".join(capsys.readouterr().out.split())


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
# counts that run stay small so that every drawn command finishes quickly;
# a count just above its cap, or far above it, is refused before any loop
_COUNT = st.one_of(st.integers(-2, 50).map(str), st.sampled_from(["inf", "nan", "1.5"]))


def _capped_count(cap: int) -> st.SearchStrategy:
    return st.one_of(_COUNT, st.sampled_from([str(cap + 1), str(10**30)]))


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
    "--ell": _SIZE, "--eps0": _RATE, "--rounds": _capped_count(cli.MAX_ROUNDS),
}


def _argv(command: str, required: dict, optional: dict) -> st.SearchStrategy:
    drawn = st.fixed_dictionaries(required, optional=optional)
    return drawn.map(lambda opts: [command, *(x for pair in opts.items() for x in pair)])


_ARGV = st.one_of(
    _argv("keystream-plan", {"--target-eps": _RATE}, {
        "--gamma": _RATE, "--rho": _RATE, "--nu": _RATE, "--eps0": _RATE,
        "--ell": _SIZE, "--horizon": _capped_count(cli.MAX_HORIZON), "--max-n0": _SIZE,
    }),
    _argv("keystream-schedule", _STREAM, _STREAM_OPTIONS),
    st.tuples(
        _argv("keystream-simulate", _STREAM, {**_STREAM_OPTIONS, "--abort-prob": _ABORT}),
        st.booleans(),
    ).map(lambda drawn: drawn[0] + ["--charge-per-attempt"] * drawn[1]),
    _argv("rsa-demo", {}, {
        "--bid": _SIZE, "--auctions": _capped_count(cli.MAX_AUCTIONS), "--max-bid": _SIZE,
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


@pytest.mark.parametrize(
    "content",
    [
        {"samples": [1, 2]},
        {"samples": [["0", "0", "1"]]},
        {"samples": "00"},
        {"distribution": [["0"]]},
        {"distribution": [["0", "0", {}]]},
        {"distribution": [["0", "0", "0.5"]]},
        {"distribution": [["0", "0", True]]},
        {"distribution": {"00": 1.0}},
    ],
)
def test_malformed_correctness_file_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "corr.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(
        capsys, ["secrecy", "--n", "2", "--budget", "2", "--correctness-file", str(path)]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: correctness ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_secrecy_correctness_file_distribution(capsys, tmp_path):
    path = tmp_path / "corr.json"
    path.write_text(json.dumps({"distribution": [["00", "00", 0.75], ["01", "00", 0.25]]}))
    code, payload, _ = run_json(
        capsys,
        ["secrecy", "--n", "2", "--budget", "2", "--families", "per_qubit",
         "--correctness-file", str(path)],
    )
    assert code == EXIT_OK
    report = payload["result"]["security_report"]
    assert report["provenance"]["correctness_source"] == "distribution"
    assert report["eps_correct"] == 0.25


# ---------------------------------------------------------------------------
# keystream commands


def test_keystream_plan_meets_target(capsys):
    code, payload, _ = run_json(capsys, ["keystream-plan", "--target-eps", "1e-6"])
    assert code == EXIT_OK
    result = payload["result"]
    assert result["budget"]["eps_total"] <= 1e-6
    assert result["params"]["n0"] >= 1
    assert payload["parameters"]["target_eps"] == 1e-6


def test_keystream_plan_scores_its_winner_once(capsys, monkeypatch):
    calls = []
    original = keystream.total_eps

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(keystream, "total_eps", counting)
    params = keystream.plan(1e-9)
    alone = len(calls)
    assert alone == 174
    calls.clear()
    code, out, _ = run_cli(capsys, ["keystream-plan", "--target-eps", "1e-9"])
    assert code == EXIT_OK
    assert len(calls) == alone
    # the same bytes as printing plan's winner and scoring it again
    result = {"params": params.to_json_dict(), "budget": original(params, 200).to_json_dict()}
    cli_params = {"target_eps": 1e-9, "gamma": keystream.GAMMA_DEFAULT, "rho": keystream.RATE_RHO_DEFAULT,
                  "nu": keystream.NU_DEFAULT, "eps0": 0.0, "ell": 256, "horizon": 200}
    envelope = cli._envelope("keystream-plan", None, cli_params, result, False)
    assert out == "".join(cli._json_text(envelope))


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


def test_keystream_schedule_builds_the_schedule_once(capsys, monkeypatch, tmp_path):
    calls = []
    original = keystream._columns

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the command builds no RoundRecord")

    monkeypatch.setattr(keystream, "_columns", counting)
    monkeypatch.setattr(cli, "_columns", counting)
    monkeypatch.setattr(keystream, "schedule", refused)
    code, payload, _ = run_json(
        capsys, ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "7",
                 "--csv", str(tmp_path / "schedule.csv")]
    )
    assert code == EXIT_OK
    assert len(calls) == 1
    params = StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000)
    assert payload["result"]["budget"] == keystream.total_eps(params, 7).to_json_dict()


SCHEDULES = [
    (["--n0", "60000", "--ell0", "12000"], StreamParams(n0=60_000, c=60_000.0, ell0=12_000)),
    (["--n0", "60000", "--ell0", "100"], StreamParams(n0=60_000, c=60_000.0, ell0=100)),  # clamped rows
    (["--n0", "30000", "--ell0", "50", "--c", "7.3", "--ell", "100"],
     StreamParams(n0=30_000, c=7.3, ell=100, ell0=50)),
    (["--n0", "1000000", "--ell0", "40000", "--gamma", "0.002", "--rho", "0.03", "--nu", "0.0007",
      "--eps0", "1e-12"],
     StreamParams(gamma=0.002, rate_rho=0.03, nu=0.0007, n0=10**6, c=1e6, ell0=40_000, eps0=1e-12)),
]


def _schedule_reference(params, rounds, real_valued, csv_path, timestamp=None):
    """The report as ``json.dumps`` prints it, built from :func:`keystream.schedule`."""
    records = keystream.schedule(params, rounds, real_valued)
    payload = {
        "tool": "qkdlab",
        "version": qkdlab.__version__,
        "command": "keystream-schedule",
        "seed": None,
        "parameters": {"rounds": rounds, "real_valued": real_valued, "csv": csv_path},
        "result": {
            "params": params.to_json_dict(),
            "budget": keystream.total_eps(params, rounds, real_valued).to_json_dict(),
            "rounds": [dataclasses.asdict(r) for r in records],
        },
    }
    if timestamp is not None:
        payload["generated_at"] = timestamp
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", keystream.schedule_csv(records)


@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("rounds", [1, 3, 1000])
@pytest.mark.parametrize("argv, params", SCHEDULES)
def test_keystream_schedule_prints_what_json_dumps_gives(
    capsys, tmp_path, monkeypatch, argv, params, rounds, real_valued
):
    monkeypatch.chdir(tmp_path)
    command = ["keystream-schedule", *argv, "--rounds", str(rounds), "--csv", "schedule.csv"]
    if real_valued:
        command.append("--real-valued")
    want, want_csv = _schedule_reference(params, rounds, real_valued, "schedule.csv")
    assert run_cli(capsys, command) == (EXIT_OK, want, "")
    assert (tmp_path / "schedule.csv").read_bytes() == want_csv.encode()
    assert run_cli(capsys, [*command, "--out", "report.json"]) == (EXIT_OK, "", "")
    assert (tmp_path / "report.json").read_bytes() == want.encode()
    if params.ell0 == 100:
        assert '"clamped": true,' in want and '"eps_i": 1.0,' in want


def test_keystream_schedule_rows_span_several_write_batches(capsys):
    argv, params = SCHEDULES[1]
    code, out, _ = run_cli(capsys, ["keystream-schedule", *argv, "--rounds", "10000"])
    assert code == EXIT_OK
    assert out == _schedule_reference(params, 10_000, False, None)[0]


def test_keystream_schedule_rows_splice_next_to_a_timestamp(capsys):
    argv, params = SCHEDULES[0]
    code, out, _ = run_cli(capsys, ["keystream-schedule", *argv, "--rounds", "4", "--timestamp"])
    assert code == EXIT_OK
    stamp = json.loads(out)["generated_at"]
    assert out == _schedule_reference(params, 4, False, None, timestamp=stamp)[0]


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


# Seeded outputs as the per-sample string form gave them: a change to the
# rng stream, the chunking or the acceptance count moves these digits.
# The biased-otp report carries the three acceptance differences, not the
# acceptances themselves.
@pytest.mark.parametrize("argv, code, field, expected", [
    (["--example", "biased-otp", "--mode", "sample", "--seed", "1"], EXIT_OK, ("rows", 0), {
        "advantage_total": "0.1048",
        "advantage_source_step": "0.11170000000000002",
        "advantage_app_step": "0.006900000000000017",
        "half_width": "0.012811046427253931",
    }),
    (["--example", "attack-otp", "--n", "6", "--mode", "sample", "--trials", "20000", "--seed", "1"],
     EXIT_FINDING, ("estimate",), {"accept_real": "1.0", "accept_ideal": "0.4925"}),
    (["--example", "attack-otp", "--n", "9", "--mode", "exact", "--seed", "3"],
     EXIT_FINDING, ("estimate",), {"accept_real": "1.0", "accept_ideal": "0.5"}),
])
def test_verify_composition_seeded_outputs_are_pinned(capsys, argv, code, field, expected):
    got_code, payload, _ = run_json(capsys, ["verify-composition", *argv])
    assert got_code == code
    part = payload["result"]
    for key in field:
        part = part[key]
    assert {name: repr(part[name]) for name in expected} == expected


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


# ---------------------------------------------------------------------------
# the JSON layout of every report object


def test_report_objects_keep_their_json_layout(capsys):
    def result(argv):
        code, payload, _ = run_json(capsys, argv)
        assert code in (EXIT_OK, EXIT_FINDING)
        return payload["result"]

    def keys(obj, tag=None):
        assert obj.get("type") == tag
        return set(obj) - {"type"}

    secrecy = result(["secrecy", "--n", "2", "--budget", "2", "--families", "per_qubit", "--seed", "1"])
    assert keys(secrecy["security_report"], "security_report") == {
        "key_len", "eps_correct", "eps_robust", "eps_secret_lower", "eps_secret_upper",
        "iacc_lower_bits", "eps_total", "provenance",
    }
    assert keys(secrecy["gap_report"], "secrecy_gap_report") == {
        "n", "eps_secret_lower", "eps_secret_upper", "iacc_lower_bits", "iacc_family",
        "iacc_best_strategy", "ben_or_required_iacc", "search_budget", "seed",
    }

    planned = result(["keystream-plan", "--target-eps", "1e-6"])
    assert keys(planned["params"], "stream_params") == {
        "gamma", "rate_rho", "nu", "n0", "c", "ell", "ell0", "eps0",
    }
    assert keys(planned["budget"], "stream_budget") == {
        "horizon", "real_valued", "partial_sum", "tail_bound", "eps_total", "divergent",
    }

    scheduled = result(["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "2"])
    assert keys(scheduled["rounds"][0]) == {
        "i", "n_i", "ell_i", "eps_i", "term_signal", "term_auth", "clamped",
    }

    composition = result(["verify-composition", "--example", "biased-otp", "--seed", "1"])
    assert keys(composition, "composition_report") == {
        "source", "application", "eps_source", "eps_app", "eps_bound", "mode", "trials",
        "all_within_bound", "rows",
    }
    assert keys(composition["rows"][0]) == {
        "name", "advantage_total", "half_width", "advantage_source_step", "advantage_app_step",
        "telescope_residual", "within_bound",
    }
    attack = result(["verify-composition", "--example", "attack-otp", "--n", "2", "--seed", "1"])
    assert keys(attack["estimate"]) == {
        "advantage", "half_width", "accept_real", "accept_ideal", "mode", "trials",
    }

    outcome_keys = {"modulus_bits", "n", "e", "alice_bid", "bob_bid", "forgery_doubled", "winner"}
    assert keys(result(["rsa-demo", "--seed", "1"]), "auction_outcome") == outcome_keys
    sweep = result(["rsa-demo", "--auctions", "2", "--seed", "1"])
    assert keys(sweep, "auction_sweep") == {"outcomes", "bob_win_rate", "all_forgeries_doubled"}
    assert keys(sweep["outcomes"][0], "auction_outcome") == outcome_keys
