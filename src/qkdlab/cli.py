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
import functools
import gc
import json
import os
import shutil
import sys
import tempfile
from typing import Callable, Iterable, Iterator

# The lab's matrices are at most 128 x 128: OpenBLAS threads only contend for the cores
# there.  Set before numpy loads OpenBLAS, and a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import numpy.random  # numpy loads it lazily: load it with the rest of start-up, not in a command

from . import __version__
from ._json import json_keys
from .attack_lab import (
    _CHUNK_BITS,
    BREIDBART,
    IACC_UPPER_BITS,
    MAX_ATTACK_QUBITS,
    _orbit_marginal_check,
    parity_guess_curve,
    parity_guess_curve_csv,
    run_otp_attacks,
    secrecy_reports,
)
from .composition_harness import (
    AuctionOutcome,
    AuctionSweep,
    _auction_sweep,
    _check_bid,
    _check_modulus_bits,
    attack_otp_advantage,
    biased_key_source,
    otp_application,
    otp_majority_zeros_distinguisher,
    rsa_malleability_demo,
    verify_composition_bound,
)
from .keystream import (
    GAMMA_DEFAULT,
    NU_DEFAULT,
    RATE_RHO_DEFAULT,
    MockKeySource,
    PlanningError,
    RoundRecord,
    StreamError,
    StreamParams,
    _budget,
    _columns,
    _csv,
    _elements,
    _fill,
    _int_rows,
    _plan,
    simulate_stream,
)
from .security_metrics import IACC_FAMILIES, ben_or_sufficient_eps, check_families, correctness_figures

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

# Loop counts above these caps are usage errors, not long runs.
MAX_ROUNDS = 10**6
MAX_HORIZON = 10**4
MAX_AUCTIONS = 10**5
MAX_TRIALS = 10**7
MAX_EMITTED_BITS = 2**32  # keystream-simulate's rounds * ell: 512 MiB packed
MAX_PAD_QUBITS = _CHUNK_BITS // 3  # attack-demo and attack-otp's n: a 3n-bit attack round fits one draw


def _bitstring(value: str) -> str:
    if not value or set(value) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"{value!r} is not a nonempty bitstring")
    return value


def _integer(value: str, low: int, kind: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < low:
        raise argparse.ArgumentTypeError(f"{value!r} is not a {kind} integer")
    return number


def _positive_int(value: str) -> int:
    return _integer(value, 1, "positive")


def _nonnegative_int(value: str) -> int:
    return _integer(value, 0, "nonnegative")


def _at_most(cap: int):
    """An argparse type: a positive integer, at most ``cap``."""
    def count(value: str) -> int:
        number = _positive_int(value)
        if number > cap:
            raise argparse.ArgumentTypeError(f"{value!r} exceeds the cap of {cap}")
        return number
    return count


def _families(value: str) -> tuple[str, ...]:
    """An argparse type: comma-separated I_acc family names, each one of ``IACC_FAMILIES``."""
    try:
        return check_families(value.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``--seed``, else ``QKDLAB_SEED``, else 0; the variable obeys the option's rule."""
    if args.seed is not None:
        return args.seed
    try:
        return _nonnegative_int(os.environ.get("QKDLAB_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"QKDLAB_SEED={exc}")


def _atomic_write(path: str, pieces: Iterable[bytes | memoryview]) -> None:
    """Write ``pieces`` to ``path`` through a temporary file beside it; an ``OSError`` names ``path``."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".qkdlab-", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict, out: str | None) -> None:
    _write([_json_text(payload).encode()], out)


def _write(pieces: Iterable[bytes | memoryview], out: str | None) -> None:
    """Write ``pieces`` to the file ``out``, atomically, or else to stdout's byte buffer.

    A stdout that has none, such as an ``io.StringIO``, gets the pieces decoded.
    """
    if out is not None:
        _atomic_write(out, pieces)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(str(piece, "utf-8") for piece in pieces)
        return
    sys.stdout.flush()  # what the text layer holds goes first
    buffer.writelines(pieces)
    buffer.flush()


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
    sub.add_argument("--seed", type=_nonnegative_int, default=None, help="rng seed, at least 0 (default: $QKDLAB_SEED or 0)")
    sub.add_argument("--out", default=None, help="write the JSON report to this path (atomic)")
    sub.add_argument("--timestamp", action="store_true", help="include a generation timestamp")


# ---------------------------------------------------------------------------


def cmd_attack_demo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    if not 2 <= args.n <= MAX_PAD_QUBITS:
        raise ValueError(f"n must lie in [2, {MAX_PAD_QUBITS}]")
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
        check = _orbit_marginal_check(args.n)
        marginal = {"passed": check.passed, "max_deviation": check.max_deviation}

    curve_at_n = parity_guess_curve(args.n)[-1][1] if args.n <= 16 else None
    if args.curve_csv is not None:
        _atomic_write(args.curve_csv, [parity_guess_curve_csv(min(args.n, 16)).encode()])

    result = {
        "n": args.n,
        "message": message,
        "trials": args.trials,
        "successes": successes,
        "success_rate": rate,
        "wrong_basis": args.wrong_basis,
        "marginal_check": marginal,
        "single_basis_guess": {"p_star": BREIDBART.p_star, "angle": BREIDBART.angle},
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


def _outcome_rows(entries, width: int) -> bool:
    """Whether ``entries`` is a list of lists of ``width`` items, each starting with two strings."""
    return isinstance(entries, list) and all(
        isinstance(e, list) and len(e) == width and isinstance(e[0], str) and isinstance(e[1], str) for e in entries
    )


def _load_correctness(path: str) -> tuple[float, str]:
    """The figures (:func:`~qkdlab.security_metrics.correctness_figures`) of a UTF-8 JSON file with
    either ``samples``, ``[alice, bob]`` pairs, or ``distribution``, ``[alice, bob, probability]``
    entries naming each pair once; every output is a string.  Each refusal names the file."""
    try:
        return correctness_figures(_read_correctness(path))
    except ValueError as exc:
        raise ValueError(f"correctness file {path!r}: {exc}") from None


def _read_correctness(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("nests too deeply") from None
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise ValueError(f"not UTF-8 JSON: {exc}") from None
    if not (isinstance(data, dict) and ("samples" in data) != ("distribution" in data)):
        raise ValueError("needs a 'samples' or a 'distribution' field, not both")
    if "samples" in data:
        samples = data["samples"]
        if not _outcome_rows(samples, 2):
            raise ValueError("'samples' must be a list of [alice, bob] pairs of strings")
        return [tuple(pair) for pair in samples]
    entries = data["distribution"]
    if not (_outcome_rows(entries, 3) and all(type(e[2]) in (int, float) for e in entries)):
        raise ValueError("'distribution' must be a list of [alice, bob, probability] entries with string outputs")
    try:
        distribution = {tuple(entry[:2]): float(entry[2]) for entry in entries}
    except OverflowError:
        raise ValueError("'distribution' holds a probability too large for a float") from None
    if len(distribution) < len(entries):
        raise ValueError("'distribution' lists an [alice, bob] pair more than once")
    return distribution


def cmd_secrecy(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    # the correctness figures are scored before any state is built
    correctness = _load_correctness(args.correctness_file) if args.correctness_file else None
    report, gap = secrecy_reports(args.n, seed=seed, families=args.families, correctness=correctness)
    result = {
        "security_report": report.to_json_dict(),
        "gap_report": gap.to_json_dict(),
        # the sufficiency condition needs an upper end on I_acc: the key's proven one, whatever was searched
        "ben_or_sufficient_eps": ben_or_sufficient_eps(IACC_UPPER_BITS, report.key_len),
    }
    params = {
        "n": args.n,
        "families": list(args.families),
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


def _add_rate_args(sub: argparse.ArgumentParser) -> None:
    """The stream-rate options, which ``keystream-plan`` shares with the stream commands."""
    sub.add_argument("--gamma", type=float, default=GAMMA_DEFAULT)
    sub.add_argument("--rho", type=float, default=RATE_RHO_DEFAULT, help="secret-key rate")
    sub.add_argument("--nu", type=float, default=NU_DEFAULT)
    sub.add_argument("--ell", type=int, default=256, help="bits emitted per round")
    sub.add_argument("--eps0", type=float, default=0.0, help="epsilon of the initial secret")


def _add_stream_args(sub: argparse.ArgumentParser) -> None:
    _add_rate_args(sub)
    sub.add_argument("--n0", type=int, required=True, help="round-1 signal count")
    sub.add_argument("--c", type=float, default=None, help="per-round signal growth (default: n0)")
    sub.add_argument("--ell0", type=int, required=True, help="initial stored secret")


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


# Stands in for a report's one long list while the envelope is encoded; no argv holds a NUL.
_ROWS_MARK = "\0rows\0"


def _rows_json(payload: dict, record: type, rows: Callable[..., Iterator[bytes | memoryview]]) -> Iterator[bytes | memoryview]:
    """``_json_text(payload)``, encoded, with a list of flat rows in place of ``_ROWS_MARK``.

    ``json.dumps`` indents in pure Python, which takes seconds on 10^5 rows;
    each row is written from a template instead, in the same layout, and the
    rows are streamed in pieces of at most ``keystream._PIECE_BYTES`` plus one
    row.  ``rows(template)`` gives the encoded rows, at least one:
    ``template(fixed)`` is a row with the JSON keys of a ``record`` (in sort
    order), each followed by the JSON text ``fixed[key]``, which may itself
    hold a slot, or else by ``%s``, for :func:`_fill` or :func:`_int_rows`;
    ``%s`` of a Python int or finite float is what json prints.
    """
    head, tail = _json_text(payload).split(json.dumps(_ROWS_MARK))  # exactly once
    line = head[head.rfind("\n") + 1:]
    outer = line[:len(line) - len(line.lstrip(" "))]
    item = outer + "  "

    def template(fixed: dict) -> str:
        fields = ",".join(f'\n{item}  "{key}": {fixed.get(key, "%s")}' for key in json_keys(record))
        return f",\n{item}{{{fields}\n{item}}}"

    pieces = rows(template)
    yield (head + "[\n").encode()
    yield next(pieces)[2:]  # every row but the first follows a ",\n"
    yield from pieces
    yield f"\n{outer}]{tail}".encode()


# What json prints for the fields of a round whose terms are both 0.0.
_ZERO_ROUND = {"clamped": "false", "eps_i": "0.0", "term_auth": "0.0", "term_signal": "0.0"}


def cmd_keystream_schedule(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = _stream_params(args)
    columns = _columns(params, args.rounds, real_valued=args.real_valued)
    if args.csv is not None:
        _atomic_write(args.csv, _csv(columns))
    budget = _budget(params, (block.eps for block in columns.blocks), args.rounds, args.real_valued)
    result = {"params": params.to_json_dict(), "budget": budget.to_json_dict(), "rounds": _ROWS_MARK}
    cli_params = {"rounds": args.rounds, "real_valued": args.real_valued, "csv": args.csv}

    def rows(template) -> Iterator[bytes | memoryview]:
        # A block's live rounds fill all seven slots, one % per row; every later round has
        # both terms 0.0, so its template holds them fixed and _int_rows writes ell_i, i and n_i.
        zero = template(_ZERO_ROUND)
        for c, rounds, n, ell in columns.parts():
            yield from _fill(template({}), zip(
                ("true" if clamped else "false" for clamped in _elements(c.clamped)),
                _elements(c.ell[1:]), _elements(c.eps), c.rounds,
                _elements(c.n), _elements(c.term_auth), _elements(c.term_signal),
            ))
            yield from _int_rows(zero, [ell, rounds, n])

    envelope = _envelope("keystream-schedule", None, cli_params, result, args.timestamp)
    _write(_rows_json(envelope, RoundRecord, rows), args.out)
    return EXIT_OK


def cmd_keystream_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    params = _stream_params(args)
    if args.rounds * args.ell > MAX_EMITTED_BITS:
        raise ValueError(f"--rounds times --ell is {args.rounds * args.ell} emitted bits, above the cap of {MAX_EMITTED_BITS}")
    rng = np.random.default_rng(seed)
    log = simulate_stream(params, args.rounds, MockKeySource(abort_prob=args.abort_prob), rng)
    result = {
        "params": params.to_json_dict(),
        "rounds": args.rounds,
        "abort_prob": args.abort_prob,
        "bits_emitted": log.bits_emitted,
        "total_retries": log.total_retries,
        "stored_final": log.stored_final,
        "consumed_final": log.consumed_final,
        "conservation_ok": True,
    }
    cli_params = {"rounds": args.rounds, "abort_prob": args.abort_prob}
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
        if not 1 <= args.n <= MAX_PAD_QUBITS:
            raise ValueError(f"n must lie in [1, {MAX_PAD_QUBITS}]")
        if not 0.0 <= args.declared_eps <= 1.0:  # NaN too
            raise ValueError("declared_eps must lie in [0, 1]")
        message = args.message if args.message is not None else "1" * (args.n + 1)
        estimate = attack_otp_advantage(args.n, message, mode=args.mode, trials=args.trials, rng=rng)
        violated = estimate.advantage > args.declared_eps + estimate.half_width + 1e-9
        result = {
            "pair": f"pad_encoding_attack_otp_{args.n}",
            "declared_eps": args.declared_eps,
            "distinguisher": f"pad_parity_{args.n}",
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


# The fields an auction outcome's rows hold fixed: every key of a sweep has a modulus
# of exactly --modulus-bits bits
_OUTCOME_FIXED = {"type": json.dumps(AuctionOutcome.JSON_TYPE), "winner": '"%s"'}


def cmd_rsa_demo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args, parser)
    rng = np.random.default_rng(seed)
    params = {"auctions": args.auctions, "bid": args.bid, "max_bid": args.max_bid, "modulus_bits": args.modulus_bits}
    # both bid options are checked whichever mode runs, the running mode's own first
    _check_modulus_bits(args.modulus_bits)
    for name in ("bid", "max_bid") if args.auctions == 1 else ("max_bid", "bid"):
        _check_bid(name, getattr(args, name), args.modulus_bits)
    if args.auctions == 1:
        outcome = rsa_malleability_demo(args.bid, args.modulus_bits, rng)
        _emit(_envelope("rsa-demo", seed, params, outcome.to_json_dict(), args.timestamp), args.out)
        return EXIT_OK if outcome.forgery_doubled else EXIT_FINDING
    auctions = _auction_sweep(args.auctions, args.modulus_bits, args.max_bid, rng)
    result = AuctionSweep(_ROWS_MARK, auctions.bob_win_rate, auctions.all_forgeries_doubled).to_json_dict()

    def rows(template) -> Iterator[bytes]:
        return _fill(template({**_OUTCOME_FIXED, "modulus_bits": str(args.modulus_bits)}), zip(
            _elements(auctions.alice_bid), _elements(auctions.bob_bid), _elements(auctions.e),
            ("true" if doubled else "false" for doubled in _elements(auctions.forgery_doubled)),
            _elements(auctions.n), _elements(auctions.winner),
        ))

    _write(_rows_json(_envelope("rsa-demo", seed, params, result, args.timestamp), AuctionOutcome, rows), args.out)
    return EXIT_OK if auctions.all_forgeries_doubled else EXIT_FINDING


# ---------------------------------------------------------------------------


def _attack_demo_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=4, help="pad length (key has n+1 bits)")
    p.add_argument("--message", type=_bitstring, default=None, help="n+1 bit message (default: random)")
    p.add_argument("--trials", type=_at_most(MAX_TRIALS), default=200,
                   help=f"attack rounds (at most {MAX_TRIALS})")
    p.add_argument("--wrong-basis", action="store_true", help="control run with complementary bases")
    p.add_argument("--curve-csv", default=None, help="also write the parity guess curve as CSV")


def _secrecy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=3, help=f"pad qubits (2..{MAX_ATTACK_QUBITS})")
    p.add_argument("--families", type=_families, default=",".join(IACC_FAMILIES),
                   help="I_acc families, comma-separated: per_qubit, declared (the even-X eigenbasis)")
    p.add_argument("--correctness-file", default=None, help="JSON with 'samples' or 'distribution'")


def _keystream_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target-eps", type=float, required=True)
    _add_rate_args(p)
    p.add_argument("--horizon", type=_at_most(MAX_HORIZON), default=200,
                   help=f"rounds summed before the tail bound (at most {MAX_HORIZON})")
    p.add_argument("--max-n0", type=_positive_int, default=2**40)


def _keystream_schedule_args(p: argparse.ArgumentParser) -> None:
    _add_stream_args(p)
    p.add_argument("--rounds", type=_at_most(MAX_ROUNDS), default=20,
                   help=f"rounds to schedule (at most {MAX_ROUNDS})")
    p.add_argument("--real-valued", action="store_true", help="drop the integer ceilings")
    p.add_argument("--csv", default=None, help="write the schedule as CSV to this path")


def _keystream_simulate_args(p: argparse.ArgumentParser) -> None:
    _add_stream_args(p)
    p.add_argument("--rounds", type=_at_most(MAX_ROUNDS), default=50,
                   help=f"rounds to simulate (at most {MAX_ROUNDS})")
    p.add_argument("--abort-prob", type=float, default=0.0)


def _verify_composition_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", choices=("biased-otp", "attack-otp"), default="biased-otp")
    p.add_argument("--message", type=_bitstring, default=None)
    p.add_argument("--n", type=int, default=4, help="pad length for attack-otp")
    p.add_argument("--p-zero", type=float, default=0.6, help="zero bias for biased-otp")
    p.add_argument("--declared-eps", type=float, default=0.25,
                   help="claimed source epsilon for attack-otp")
    p.add_argument("--mode", choices=("auto", "exact", "sample"), default="auto")
    p.add_argument("--trials", type=_at_most(MAX_TRIALS), default=20_000,
                   help=f"samples per world in sample mode (at most {MAX_TRIALS})")


def _rsa_demo_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bid", type=int, default=100)
    p.add_argument("--auctions", type=_at_most(MAX_AUCTIONS), default=1,
                   help=f"auctions to run, each with a fresh key (at most {MAX_AUCTIONS})")
    p.add_argument("--max-bid", type=int, default=1000)
    p.add_argument("--modulus-bits", type=int, default=32,
                   help="bits of each toy RSA modulus (16..32, so every product mod n fits in 64 bits)")


# Each subcommand: its help line, the function that adds its own arguments, and its command
_COMMANDS = {
    "attack-demo": ("run the encode-the-pad attack end to end", _attack_demo_args, cmd_attack_demo),
    "secrecy": ("security report and I_acc gap for the attack state", _secrecy_args, cmd_secrecy),
    "keystream-plan": ("find schedule parameters meeting a target epsilon", _keystream_plan_args, cmd_keystream_plan),
    "keystream-schedule": ("evaluate a schedule round by round", _keystream_schedule_args, cmd_keystream_schedule),
    "keystream-simulate": ("run the bit-conservation ledger simulation", _keystream_simulate_args, cmd_keystream_simulate),
    "verify-composition": ("check the additive epsilon bound on examples", _verify_composition_args, cmd_verify_composition),
    "rsa-demo": ("textbook RSA sealed-bid malleability", _rsa_demo_args, cmd_rsa_demo),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qkdlab`` parser, with every subcommand, or with ``command``'s alone.

    A run parses one subcommand, and building the other six sub-parsers takes
    milliseconds.  With ``command`` given, the subcommand metavar spells every
    name, so the usage line that errors print is that of the full parser; the
    full parser's own errors name the argument ``command``, so it keeps the
    default metavar.
    """
    # argparse asks the terminal for its width once per argument added unless the formatter has one
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="qkdlab",
        description="desk-scale laboratory for composable key security",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"qkdlab {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments, func = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text, formatter_class=formatter)
        add_arguments(sub)
        _add_common(sub)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run parses one subcommand: build its parser alone when the first argument
    # names it; -h, --version and a missing or unknown subcommand get the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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


# Everything loaded by now, numpy included (about 22,500 objects), lives until the process
# exits: freeze it so that no later collection walks it, the one at exit included.
# Process-wide, like the OpenBLAS default above, so not in main, which tests also call.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
