"""Command line front end.

Every subcommand prints one JSON report to stdout (or ``--out``), with
sorted keys and a fixed layout so that equal inputs give byte-identical
output.  Randomness is seeded from ``--seed`` (falling back to the
``QKDLAB_SEED`` environment variable, then 0) and reports carry the
seed, tool version and effective parameters.  Timestamps are opt-in via
``--timestamp`` to keep the default output reproducible.

Exit codes: 0 on success, 1 when the run surfaces a finding or a broken
invariant (a violated composition bound, an infeasible key-stream plan,
a key-ledger underflow or other stream failure, a failed attack
expectation), 2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import sys
import tempfile
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .attack_lab import (
    MAX_ATTACK_QUBITS,
    fully_mixed_marginal_check,
    build_attack_state,
    parity_guess_curve,
    parity_guess_curve_csv,
    run_otp_attacks,
    secrecy_reports,
    single_qubit_guess_oracle,
)
from .composition_harness import (
    attack_otp_composed_pair,
    biased_key_source,
    estimate_advantage,
    otp_application,
    otp_majority_zeros_distinguisher,
    otp_prefix_parity_distinguisher,
    rsa_auction_sweep,
    rsa_malleability_demo,
    verify_composition_bound,
)
from .keystream import (
    GAMMA_DEFAULT,
    NU_DEFAULT,
    RATE_RHO_DEFAULT,
    MockKeySource,
    PlanningError,
    StreamError,
    StreamParams,
    _budget,
    _columns,
    _Columns,
    _csv,
    _plan,
    simulate_stream,
)
from .security_metrics import ben_or_sufficient_eps

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

_FAMILY_CHOICES = ("per_qubit", "random", "hill_climb")

# Loop counts above these caps are usage errors, not long runs.
MAX_ROUNDS = 10**6
MAX_HORIZON = 10**4
MAX_AUCTIONS = 10**5


def _bitstring(value: str) -> str:
    if not value or set(value) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"{value!r} is not a nonempty bitstring")
    return value


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not a positive integer")
    return number


def _at_most(cap: int, parse=int):
    """An argparse type: ``parse`` the value, then refuse one above ``cap``."""
    def count(value: str) -> int:
        number = parse(value)
        if number > cap:
            raise argparse.ArgumentTypeError(f"{value!r} exceeds the cap of {cap}")
        return number
    count.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return count


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("QKDLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"QKDLAB_SEED={raw!r} is not an integer")


def _atomic_write(path: str, pieces: Iterable[str]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qkdlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict, out: str | None) -> None:
    _write([_json_text(payload)], out)


def _write(pieces: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        _atomic_write(out, pieces)


def _envelope(command: str, seed: int | None, parameters: dict, result: dict, timestamp: bool) -> dict:
    payload = {
        "tool": "qkdlab",
        "version": __version__,
        "command": command,
        "seed": seed,
        "parameters": parameters,
        "result": result,
    }
    if timestamp:
        payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return payload


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="rng seed (default: $QKDLAB_SEED or 0)")
    sub.add_argument("--out", default=None, help="write the JSON report to this path (atomic)")
    sub.add_argument("--timestamp", action="store_true", help="include a generation timestamp")


# ---------------------------------------------------------------------------


def cmd_attack_demo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    if args.n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    message = args.message if args.message is not None else "".join(
        map(str, rng.integers(0, 2, size=args.n + 1))
    )
    if len(message) != args.n + 1:
        parser.error(f"--message must have n+1 = {args.n + 1} bits")
    successes, last = run_otp_attacks(args.n, message, rng, args.trials, wrong_basis=args.wrong_basis)
    rate = successes / args.trials

    marginal = None
    if args.n <= MAX_ATTACK_QUBITS:
        check = fully_mixed_marginal_check(build_attack_state(args.n))
        marginal = {"passed": check.passed, "max_deviation": check.max_deviation}

    oracle = single_qubit_guess_oracle()
    curve_at_n = parity_guess_curve(args.n)[-1][1] if args.n <= 16 else None
    if args.curve_csv is not None:
        _atomic_write(args.curve_csv, [parity_guess_curve_csv(min(args.n, 16))])

    result = {
        "n": args.n,
        "message": message,
        "trials": args.trials,
        "successes": successes,
        "success_rate": rate,
        "wrong_basis": args.wrong_basis,
        "marginal_check": marginal,
        "single_basis_guess": {"p_star": oracle.p_star, "angle": oracle.angle},
        "parity_guess_probability": curve_at_n,
        "last_transcript": {
            "key": "".join(map(str, last.key)),
            "ciphertext": "".join(map(str, last.ciphertext)),
            "measured_pad": "".join(map(str, last.measured_pad)),
            "recovered_bit": last.recovered_bit,
            "success": last.success,
        },
    }
    params = {"n": args.n, "message": message, "trials": args.trials, "wrong_basis": args.wrong_basis}
    _emit(_envelope("attack-demo", seed, params, result, args.timestamp), args.out)
    expected = args.wrong_basis or rate == 1.0
    marginal_ok = marginal is None or marginal["passed"]
    return EXIT_OK if expected and marginal_ok else EXIT_FINDING


def _is_distribution_entry(entry) -> bool:
    return (
        isinstance(entry, list) and len(entry) == 3
        and isinstance(entry[2], (int, float)) and not isinstance(entry[2], bool)
    )


def _load_correctness(path: str):
    with open(path) as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "samples" in data:
        samples = data["samples"]
        if not (isinstance(samples, list) and all(isinstance(s, list) and len(s) == 2 for s in samples)):
            raise ValueError("correctness 'samples' must be a list of [alice, bob] pairs")
        return [tuple(map(str, pair)) for pair in samples]
    if isinstance(data, dict) and "distribution" in data:
        entries = data["distribution"]
        if not (isinstance(entries, list) and all(_is_distribution_entry(e) for e in entries)):
            raise ValueError("correctness 'distribution' must be a list of [alice, bob, probability] entries")
        return {tuple(map(str, entry[:2])): float(entry[2]) for entry in entries}
    raise ValueError("correctness file needs a 'samples' or 'distribution' field")


def cmd_secrecy(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    families = tuple(args.families.split(","))
    unknown = set(families) - set(_FAMILY_CHOICES)
    if unknown:
        parser.error(f"unknown families: {sorted(unknown)}")
    correctness = _load_correctness(args.correctness_file) if args.correctness_file else None

    report, gap = secrecy_reports(
        args.n, search_budget=args.budget, seed=seed, families=families, correctness=correctness
    )
    result = {
        "security_report": report.to_json_dict(),
        "gap_report": gap.to_json_dict(),
        "ben_or_sufficient_eps": ben_or_sufficient_eps(report.iacc_lower_bits, report.key_len),
    }
    params = {
        "n": args.n,
        "budget": args.budget,
        "families": list(families),
        "correctness_file": args.correctness_file,
    }
    _emit(_envelope("secrecy", seed, params, result, args.timestamp), args.out)
    return EXIT_OK


def _stream_params(args: argparse.Namespace) -> StreamParams:
    try:
        c = args.c if args.c is not None else float(args.n0)
    except OverflowError:
        raise ValueError(f"n0 of {args.n0} exceeds 2**53") from None
    return StreamParams(
        gamma=args.gamma,
        rate_rho=args.rho,
        nu=args.nu,
        n0=args.n0,
        c=c,
        ell=args.ell,
        ell0=args.ell0,
        eps0=args.eps0,
    )


def _add_stream_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gamma", type=float, default=GAMMA_DEFAULT)
    sub.add_argument("--rho", type=float, default=RATE_RHO_DEFAULT, help="secret-key rate")
    sub.add_argument("--nu", type=float, default=NU_DEFAULT)
    sub.add_argument("--n0", type=int, required=True, help="round-1 signal count")
    sub.add_argument("--c", type=float, default=None, help="per-round signal growth (default: n0)")
    sub.add_argument("--ell", type=int, default=256, help="bits emitted per round")
    sub.add_argument("--ell0", type=int, required=True, help="initial stored secret")
    sub.add_argument("--eps0", type=float, default=0.0, help="epsilon of the initial secret")


def cmd_keystream_plan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params, budget = _plan(
        args.target_eps,
        gamma=args.gamma,
        rate_rho=args.rho,
        nu=args.nu,
        eps0=args.eps0,
        ell=args.ell,
        horizon=args.horizon,
        max_n0=args.max_n0,
    )
    result = {"params": params.to_json_dict(), "budget": budget.to_json_dict()}
    cli_params = {
        "target_eps": args.target_eps,
        "gamma": args.gamma,
        "rho": args.rho,
        "nu": args.nu,
        "eps0": args.eps0,
        "ell": args.ell,
        "horizon": args.horizon,
    }
    _emit(_envelope("keystream-plan", None, cli_params, result, args.timestamp), args.out)
    return EXIT_OK


# Stands in for the rows while the envelope is encoded; no argv holds a NUL.
_ROUNDS_MARK = "\0rounds\0"
# A row's keys in sort_keys order; "%s" of a Python int or finite float is what json prints.
_ROUND_KEYS = ("clamped", "ell_i", "eps_i", "i", "n_i", "term_auth", "term_signal")


def _schedule_json(payload: dict, columns: _Columns) -> Iterator[str]:
    """``_json_text(payload)`` with the rows of ``columns`` in place of ``_ROUNDS_MARK``.

    ``json.dumps`` indents in pure Python, which takes seconds on 10^5
    rounds; each row is written from one template instead, in the same
    layout, and the rows are streamed in batches.
    """
    head, tail = _json_text(payload).split(json.dumps(_ROUNDS_MARK))  # exactly once
    line = head[head.rfind("\n") + 1:]
    outer = line[:len(line) - len(line.lstrip(" "))]
    item = outer + "  "
    row = item + "{" + ",".join(f'\n{item}  "{key}": %s' for key in _ROUND_KEYS) + f"\n{item}}}"
    rows = zip(
        ("true" if clamped else "false" for clamped in columns.clamped),
        columns.ell[1:], columns.eps, itertools.count(1), columns.n, columns.term_auth, columns.term_signal,
    )
    yield head + "[\n"
    separator = ""
    while batch := ",\n".join(map(row.__mod__, itertools.islice(rows, 4096))):
        yield separator + batch
        separator = ",\n"
    yield f"\n{outer}]" + tail


def cmd_keystream_schedule(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = _stream_params(args)
    columns = _columns(params, args.rounds, real_valued=args.real_valued)
    if args.csv is not None:
        _atomic_write(args.csv, [_csv(zip(itertools.count(1), columns.n, columns.ell[1:], columns.eps))])
    budget = _budget(params, columns.eps, args.real_valued)
    result = {"params": params.to_json_dict(), "budget": budget.to_json_dict(), "rounds": _ROUNDS_MARK}
    cli_params = {"rounds": args.rounds, "real_valued": args.real_valued, "csv": args.csv}
    envelope = _envelope("keystream-schedule", None, cli_params, result, args.timestamp)
    _write(_schedule_json(envelope, columns), args.out)
    return EXIT_OK


def cmd_keystream_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    params = _stream_params(args)
    rng = np.random.default_rng(seed)
    log = simulate_stream(
        params,
        args.rounds,
        MockKeySource(abort_prob=args.abort_prob),
        rng,
        charge_per_attempt=args.charge_per_attempt,
    )
    final = log.rounds[-1]
    result = {
        "params": params.to_json_dict(),
        "rounds": args.rounds,
        "abort_prob": args.abort_prob,
        "charge_per_attempt": args.charge_per_attempt,
        "bits_emitted": log.bits_emitted,
        "total_retries": log.total_retries,
        "stored_final": final.stored_after,
        "consumed_final": final.consumed_after,
        "conservation_ok": True,
    }
    cli_params = {
        "rounds": args.rounds,
        "abort_prob": args.abort_prob,
        "charge_per_attempt": args.charge_per_attempt,
    }
    _emit(_envelope("keystream-simulate", seed, cli_params, result, args.timestamp), args.out)
    return EXIT_OK


def cmd_verify_composition(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    rng = np.random.default_rng(seed)
    if args.example == "biased-otp":
        message = args.message if args.message is not None else "1"
        source = biased_key_source(len(message), p_zero=args.p_zero)
        app = otp_application(message)
        report = verify_composition_bound(
            source,
            app,
            [otp_majority_zeros_distinguisher(message)],
            mode=args.mode,
            trials=args.trials,
            rng=rng,
        )
        result = report.to_json_dict()
        ok = report.all_within_bound
    else:
        message = args.message if args.message is not None else "1" * (args.n + 1)
        pair = attack_otp_composed_pair(args.n, message, declared_eps=args.declared_eps)
        parity = otp_prefix_parity_distinguisher(message)
        estimate = estimate_advantage(pair, parity, mode=args.mode, trials=args.trials, rng=rng)
        violated = estimate.advantage > pair.declared_eps + estimate.half_width + 1e-9
        result = {
            "pair": pair.name,
            "declared_eps": pair.declared_eps,
            "distinguisher": parity.name,
            "estimate": estimate.to_json_dict(),
            "bound_violated": violated,
        }
        ok = not violated
    params = {
        "example": args.example,
        "message": message,
        "mode": args.mode,
        "trials": args.trials,
        "n": args.n,
        "p_zero": args.p_zero,
        "declared_eps": args.declared_eps,
    }
    _emit(_envelope("verify-composition", seed, params, result, args.timestamp), args.out)
    return EXIT_OK if ok else EXIT_FINDING


def cmd_rsa_demo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    rng = np.random.default_rng(seed)
    if args.auctions > 1:
        sweep = rsa_auction_sweep(args.auctions, args.modulus_bits, args.max_bid, rng)
        result = sweep.to_json_dict()
        ok = sweep.all_forgeries_doubled
    else:
        outcome = rsa_malleability_demo(args.bid, args.modulus_bits, rng)
        result = outcome.to_json_dict()
        ok = outcome.forgery_doubled
    params = {
        "auctions": args.auctions,
        "bid": args.bid,
        "max_bid": args.max_bid,
        "modulus_bits": args.modulus_bits,
    }
    _emit(_envelope("rsa-demo", seed, params, result, args.timestamp), args.out)
    return EXIT_OK if ok else EXIT_FINDING


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdlab",
        description="desk-scale laboratory for composable key security",
    )
    parser.add_argument("--version", action="version", version=f"qkdlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("attack-demo", help="run the encode-the-pad attack end to end")
    p.add_argument("--n", type=int, default=4, help="pad length (key has n+1 bits)")
    p.add_argument("--message", type=_bitstring, default=None, help="n+1 bit message (default: random)")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--wrong-basis", action="store_true", help="control run with complementary bases")
    p.add_argument("--curve-csv", default=None, help="also write the parity guess curve as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_attack_demo)

    p = subs.add_parser("secrecy", help="security report and I_acc gap for the attack state")
    p.add_argument("--n", type=int, default=3, help=f"pad qubits (2..{MAX_ATTACK_QUBITS})")
    p.add_argument("--budget", type=int, default=32, help="search budget per family")
    p.add_argument("--families", default=",".join(_FAMILY_CHOICES))
    p.add_argument("--correctness-file", default=None, help="JSON with 'samples' or 'distribution'")
    _add_common(p)
    p.set_defaults(func=cmd_secrecy)

    p = subs.add_parser("keystream-plan", help="find schedule parameters meeting a target epsilon")
    p.add_argument("--target-eps", type=float, required=True)
    p.add_argument("--gamma", type=float, default=GAMMA_DEFAULT)
    p.add_argument("--rho", type=float, default=RATE_RHO_DEFAULT)
    p.add_argument("--nu", type=float, default=NU_DEFAULT)
    p.add_argument("--eps0", type=float, default=0.0)
    p.add_argument("--ell", type=int, default=256)
    p.add_argument("--horizon", type=_at_most(MAX_HORIZON), default=200,
                   help=f"rounds summed before the tail bound (at most {MAX_HORIZON})")
    p.add_argument("--max-n0", type=int, default=2**40)
    _add_common(p)
    p.set_defaults(func=cmd_keystream_plan)

    p = subs.add_parser("keystream-schedule", help="evaluate a schedule round by round")
    _add_stream_args(p)
    p.add_argument("--rounds", type=_at_most(MAX_ROUNDS), default=20,
                   help=f"rounds to schedule (at most {MAX_ROUNDS})")
    p.add_argument("--real-valued", action="store_true", help="drop the integer ceilings")
    p.add_argument("--csv", default=None, help="write the schedule as CSV to this path")
    _add_common(p)
    p.set_defaults(func=cmd_keystream_schedule)

    p = subs.add_parser("keystream-simulate", help="run the bit-conservation ledger simulation")
    _add_stream_args(p)
    p.add_argument("--rounds", type=_at_most(MAX_ROUNDS), default=50,
                   help=f"rounds to simulate (at most {MAX_ROUNDS})")
    p.add_argument("--abort-prob", type=float, default=0.0)
    p.add_argument("--charge-per-attempt", action="store_true",
                   help="deduct authentication bits on every retry (usually underflows)")
    _add_common(p)
    p.set_defaults(func=cmd_keystream_simulate)

    p = subs.add_parser("verify-composition", help="check the additive epsilon bound on examples")
    p.add_argument("--example", choices=("biased-otp", "attack-otp"), default="biased-otp")
    p.add_argument("--message", type=_bitstring, default=None)
    p.add_argument("--n", type=int, default=4, help="pad length for attack-otp")
    p.add_argument("--p-zero", type=float, default=0.6, help="zero bias for biased-otp")
    p.add_argument("--declared-eps", type=float, default=0.25,
                   help="claimed source epsilon for attack-otp")
    p.add_argument("--mode", choices=("auto", "exact", "sample"), default="auto")
    p.add_argument("--trials", type=int, default=20_000)
    _add_common(p)
    p.set_defaults(func=cmd_verify_composition)

    p = subs.add_parser("rsa-demo", help="textbook RSA sealed-bid malleability")
    p.add_argument("--bid", type=int, default=100)
    p.add_argument("--auctions", type=_at_most(MAX_AUCTIONS, _positive_int), default=1,
                   help=f"auctions to run, each with a fresh key (at most {MAX_AUCTIONS})")
    p.add_argument("--max-bid", type=int, default=1000)
    p.add_argument("--modulus-bits", type=int, default=32)
    _add_common(p)
    p.set_defaults(func=cmd_rsa_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except PlanningError as exc:
        detail = {"error": "planning_failed", "detail": str(exc)}
        if exc.best_budget is not None:
            detail["best_params"] = exc.best_params.to_json_dict()
            detail["best_budget"] = exc.best_budget.to_json_dict()
        sys.stderr.write(json.dumps(detail, sort_keys=True, indent=2) + "\n")
        return EXIT_FINDING
    except StreamError as exc:
        sys.stderr.write(json.dumps({"error": exc.error, "detail": str(exc)}, sort_keys=True) + "\n")
        return EXIT_FINDING
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
