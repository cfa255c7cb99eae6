"""Output checks for every command the benchmark runs.

Each check tests a property of the result that holds however the
program computes it: closed forms, invariants and sampling bounds.  A
command fails when its exit code is not the expected one, stderr holds
a traceback, stdout is not exactly one JSON document, or a check fails.

Sampled quantities are checked at 5 sigma.  An evaluation of the
benchmark makes hundreds of sampled checks; at 3 sigma (two-sided rate
2.7e-3, one check in 370) a correct program would likely fail one of
them by chance, while 5 sigma (5.7e-7) keeps that below 1e-3 and still
catches a real bias of a few percent at the sizes used here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Iterator

SIGMAS = 5.0
TRACEBACK = "Traceback (most recent call last)"

# CLI defaults the checks rely on when the argv does not set them.
_DEFAULT_ELL = 256
_DEFAULT_RHO = "0.01"


def options(argv: list[str]) -> dict[str, str]:
    """``--name value`` pairs of an argv (flags without a value map to "")."""
    opts = {}
    tokens = argv[1:]
    for k, token in enumerate(tokens):
        if token.startswith("--"):
            nxt = tokens[k + 1] if k + 1 < len(tokens) else ""
            opts[token] = "" if nxt.startswith("--") else nxt
    return opts


def kind(argv: list[str]) -> str:
    if argv[0] == "verify-composition":
        return f"verify-composition:{options(argv).get('--example', 'biased-otp')}"
    return argv[0]


def single_document(stdout: str) -> dict:
    """Parse stdout as exactly one JSON object; raise ValueError otherwise."""
    text = stdout.strip()
    if not text:
        raise ValueError("stdout is empty")
    doc, end = json.JSONDecoder().raw_decode(text)
    if text[end:].strip():
        raise ValueError("stdout holds more than one JSON document")
    if not isinstance(doc, dict):
        raise ValueError("stdout is not a JSON object")
    return doc


def _secrecy(result: dict, opts: dict) -> Iterator[str]:
    n = int(opts["--n"])
    gap, report = result["gap_report"], result["security_report"]
    if abs(gap["eps_secret_lower"] - 0.5) > 1e-9:
        yield f"gap_report.eps_secret_lower = {gap['eps_secret_lower']!r}, expected 0.5"
    if report["eps_secret_lower"] > report["eps_secret_upper"] + 1e-9:
        yield "security_report bracket is inverted"
    for name, section in (("gap_report", gap), ("security_report", report)):
        # the exhaustive per-qubit search reaches 2^-n bits
        if section["iacc_lower_bits"] < 2.0**-n - 1e-12:
            yield f"{name}.iacc_lower_bits = {section['iacc_lower_bits']!r} < 2^-{n}"


def _attack_demo(result: dict, opts: dict) -> Iterator[str]:
    n, trials = int(opts["--n"]), int(opts["--trials"])
    if result["success_rate"] != 1.0 or result["successes"] != trials:
        yield f"success_rate = {result['success_rate']!r}, expected exactly 1.0"
    if result["marginal_check"]["passed"] is not True:
        yield "marginal_check.passed is not true"
    expected = 0.5 * (1.0 + (2.0 * math.cos(math.pi / 8) ** 2 - 1.0) ** n)
    if abs(result["parity_guess_probability"] - expected) > 1e-9:
        yield f"parity_guess_probability = {result['parity_guess_probability']!r}, expected {expected!r}"
    if "--message" in opts and result["message"] != opts["--message"]:
        yield "message was not used"


def _biased_otp_exit(result: dict) -> int:
    # The majority distinguisher is optimal here, so the composed bound is
    # tight and the program's own 99%-confidence check flags a violation
    # for about one seed in a hundred although none exists.  The exit code
    # must still agree with that flag: 1 exactly when it reports one.
    return 0 if result["all_within_bound"] is True else 1


def _biased_otp(result: dict, opts: dict) -> Iterator[str]:
    # Whatever the flag says, no row's sampled advantage may exceed the
    # bound by more than 5 sigma, with sigma at its largest possible value
    # for two Bernoulli means of --trials each.
    trials = int(opts["--trials"])
    if result["trials"] != trials:
        yield "trial count differs from the request"
    sigma = math.sqrt(0.5 / trials)
    for row in result["rows"]:
        if row["advantage_total"] > result["eps_bound"] + SIGMAS * sigma:
            yield f"{row['name']}: advantage {row['advantage_total']!r} exceeds the bound {result['eps_bound']!r}"


def _attack_otp(result: dict, opts: dict) -> Iterator[str]:
    est, trials = result["estimate"], int(opts["--trials"])
    if result["bound_violated"] is not True:
        yield "attack-otp did not report the bound violation"
    if est["trials"] != trials:
        yield "trial count differs from the request"
    p_r, p_i = est["accept_real"], est["accept_ideal"]
    # the ideal world accepts with probability exactly 1/2
    sigma = math.sqrt((p_r * (1 - p_r) + 0.25) / trials)
    if abs(est["advantage"] - 0.5) > SIGMAS * sigma:
        yield f"advantage {est['advantage']!r} is not within {SIGMAS} sigma of 1/2"
    if abs(p_i - 0.5) > SIGMAS * math.sqrt(0.25 / trials):
        yield f"ideal acceptance {p_i!r} is not within {SIGMAS} sigma of 1/2"


def _rsa_demo(result: dict, opts: dict) -> Iterator[str]:
    if result["all_forgeries_doubled"] is not True:
        yield "a forged bid was not doubled"
    if result["bob_win_rate"] != 1:
        yield f"bob_win_rate = {result['bob_win_rate']!r}, expected 1"
    if len(result["outcomes"]) != int(opts.get("--auctions", "1")):
        yield "auction count differs from the request"


def _stored_len(i: int, ell: int, ell0: int, c_rho_half: Fraction) -> int:
    return ell0 if i == 0 else ell + math.ceil(c_rho_half * i)


def _keystream_simulate(result: dict, opts: dict) -> Iterator[str]:
    rounds = int(opts["--rounds"])
    ell, ell0 = int(opts.get("--ell", _DEFAULT_ELL)), int(opts["--ell0"])
    c = Fraction(opts.get("--c", opts["--n0"]))
    c_rho_half = c * Fraction(opts.get("--rho", _DEFAULT_RHO)) / 2
    p = float(opts.get("--abort-prob", "0"))
    if result["conservation_ok"] is not True:
        yield "conservation_ok is not true"
    if result["bits_emitted"] != rounds * ell:
        yield f"bits_emitted = {result['bits_emitted']}, expected {rounds * ell}"
    stored = _stored_len(rounds, ell, ell0, c_rho_half)
    if result["stored_final"] != stored:
        yield f"stored_final = {result['stored_final']}, expected {stored}"
    consumed = sum(_stored_len(i, ell, ell0, c_rho_half) for i in range(rounds))
    if result["consumed_final"] != consumed:
        yield f"consumed_final = {result['consumed_final']}, expected {consumed}"
    # retries per round are geometric: mean p/(1-p), variance p/(1-p)^2
    mean = rounds * p / (1 - p)
    sd = math.sqrt(rounds * p) / (1 - p)
    if abs(result["total_retries"] - mean) > SIGMAS * sd + 1e-9:
        yield f"total_retries = {result['total_retries']}, expected {mean:.1f} +- {SIGMAS} sigma"


def _keystream_schedule(result: dict, opts: dict) -> Iterator[str]:
    rounds = int(opts["--rounds"])
    if [r["i"] for r in result["rounds"]] != list(range(1, rounds + 1)):
        yield "schedule does not hold one record per round"
    if result["budget"]["divergent"] is not False:
        yield "budget is divergent"


def _keystream_plan(result: dict, opts: dict) -> Iterator[str]:
    target = float(opts["--target-eps"])
    if not result["budget"]["eps_total"] <= target:
        yield f"planned eps_total {result['budget']['eps_total']!r} exceeds target {target!r}"


# kind -> (expected exit code, or a function of the "result" object giving
# it; property checks on the "result" object)
VALIDATORS: dict[str, tuple[int | Callable[[dict], int], Callable[[dict, dict], Iterator[str]]]] = {
    "secrecy": (0, _secrecy),
    "attack-demo": (0, _attack_demo),
    "verify-composition:biased-otp": (_biased_otp_exit, _biased_otp),
    "verify-composition:attack-otp": (1, _attack_otp),  # a finding, by design
    "rsa-demo": (0, _rsa_demo),
    "keystream-simulate": (0, _keystream_simulate),
    "keystream-schedule": (0, _keystream_schedule),
    "keystream-plan": (0, _keystream_plan),
}


def problems(argv: list[str], exit_code: int, stdout: str, stderr: str) -> list[str]:
    """Everything wrong with one command's outcome; empty when it passed."""
    expected_exit, check = VALIDATORS[kind(argv)]
    found = []
    if isinstance(expected_exit, int) and exit_code != expected_exit:
        found.append(f"exit code {exit_code}, expected {expected_exit}")
    if TRACEBACK in stderr:
        found.append("traceback on stderr")
    try:
        doc = single_document(stdout)
    except ValueError as exc:
        return found + [str(exc)]
    opts = options(argv)
    try:
        if doc["tool"] != "qkdlab" or doc["command"] != argv[0]:
            found.append("envelope names another tool or command")
        if "--seed" in opts and doc["seed"] != int(opts["--seed"]):
            found.append("envelope seed differs from --seed")
        if callable(expected_exit) and exit_code != expected_exit(doc["result"]):
            found.append(f"exit code {exit_code} disagrees with the reported result")
        found.extend(check(doc["result"], opts))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        found.append(f"malformed output: {type(exc).__name__}: {exc}")
    return found
