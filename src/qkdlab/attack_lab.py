"""The basis-encoded parity counterexample.

A uniform (n+1)-bit key S is produced while the adversary keeps an
n-qubit register prepared as follows: a uniformly random pad R with
``R_1 xor ... xor R_n = S_{n+1}`` is BB84-encoded qubit by qubit, with
the basis of qubit i given by key bit S_i.  Conditioned on any value of
the first n key bits the register is exactly fully mixed, so every
fixed measurement extracts little about the key and
accessible-information figures look excellent.  Yet the moment the key
is used as a one-time pad on a message whose first n bits are known,
the published ciphertext hands the adversary the bases: measuring
qubit i in basis ``M_i xor C_i`` recovers R_i with certainty and the
parity of the pad reveals the unknown message bit ``M_{n+1}``.

This module builds the state, runs the attack, and quantifies the gap
between the accessible-information story and the distinguisher story.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .quantum_core import (
    CqState,
    DensityOperator,
    Povm,
    bb84_encode,
    cq_trace_distance,
    qubit_basis,
)
from .security_metrics import (
    IaccSearchResult,
    SecurityReport,
    Strategy,
    _evaluate,
    accessible_info_lower,
    canonical_ideal,
    distinguishing_advantage,
    prefix_basis_povm,
)

__all__ = [
    "MAX_ATTACK_QUBITS",
    "AttackState",
    "AttackTranscript",
    "AttackTally",
    "MarginalCheck",
    "GuessOracle",
    "SecrecyGapReport",
    "build_attack_state",
    "fully_mixed_marginal_check",
    "run_otp_attack",
    "run_otp_attacks",
    "measure_encoded_qubit",
    "sample_pad",
    "parity_strategy",
    "single_qubit_guess_oracle",
    "basis_guess_probability",
    "parity_guess_curve",
    "parity_guess_curve_csv",
    "secrecy_gap_report",
    "secrecy_reports",
]

# Branch dimension is 2^n and there are 2^(n+1) branches, so the cap
# keeps the full state around 100 MB of dense matrices.
MAX_ATTACK_QUBITS = 7

# Batched rounds and samples are drawn about this many random bits at a
# time (as many whole rows as fit, at least one), so memory stays flat
# whatever the number of trials.
_CHUNK_BITS = 2**15


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` random bits that make up one draw."""
    return max(1, _CHUNK_BITS // max(1, width))


def _bit_rows(n: int) -> np.ndarray:
    """Every n-bit 0/1 row, as uint8, in lexicographic order: row v spells v in binary."""
    values = (np.arange(1 << n, dtype=np.uint32) << (32 - n)).astype(">u4")
    return np.unpackbits(values[:, None].view(np.uint8), axis=1, count=n)


def _bits_from(value, width: int) -> tuple[int, ...]:
    bits = tuple(map(int, value))
    if len(bits) != width or not {0, 1}.issuperset(bits):
        raise ValueError(f"expected {width} bits, got {value!r}")
    return bits


def _parity(bits: Sequence[int]) -> int:
    return sum(bits) & 1


# _BB84_AMPS[s, r] holds the amplitudes of data bit r encoded in basis s
_BB84_AMPS = np.array([[bb84_encode(r, s).amplitudes for r in (0, 1)] for s in (0, 1)])


@dataclass(frozen=True, eq=False)
class AttackState:
    """The counterexample state for ``n`` register qubits (key length n+1)."""

    n: int
    cq: CqState

    def __post_init__(self):
        if self.cq.key_len != self.n + 1 or self.cq.dim != 2**self.n:
            raise ValueError("cq-state shape does not match n")
        if self.cq.p_perp != 0.0:
            raise ValueError("attack state has no abort branch")


def build_attack_state(n: int, max_qubits: int = MAX_ATTACK_QUBITS) -> AttackState:
    """Construct the basis-encoded parity state for ``n`` qubits.

    Every key value ``s`` has probability 2^-(n+1); its register branch
    is the uniform mixture, weight 2^-(n-1) each, of the product states
    encoding the parity-constrained pads in the bases ``s_1 .. s_n``.
    """
    if not 2 <= n <= max_qubits:
        raise ValueError(f"n must lie in [2, {max_qubits}]")
    p_branch = 2.0 ** -(n + 1)
    weight = 2.0 ** -(n - 1)
    keys = _bit_rows(n + 1)
    pads = np.stack([_complete_pads(_bit_rows(n - 1), parity) for parity in (0, 1)])[keys[:, -1]]
    # rows[s, k] is the product state of pad k in the bases of key s,
    # built qubit by qubit as a Kronecker product
    rows = np.ones((len(keys), pads.shape[1], 1), dtype=np.complex128)
    for i in range(n):
        factor = _BB84_AMPS[keys[:, i, None], pads[:, :, i]]
        rows = (rows[:, :, :, None] * factor[:, :, None, :]).reshape(len(keys), pads.shape[1], -1)
    branches = {
        "".join(map(str, s)): (p_branch, DensityOperator(weight * (r.T @ r.conj())))
        for s, r in zip(keys.tolist(), rows)
    }
    return AttackState(n=n, cq=CqState(key_len=n + 1, branches=branches))


class MarginalCheck(NamedTuple):
    passed: bool
    max_deviation: float


def fully_mixed_marginal_check(state: AttackState | CqState, tol: float = 1e-9) -> MarginalCheck:
    """Verify the register is fully mixed given any first-n-bits prefix.

    For every prefix, the half/half mixture of the two branches that
    extend it must equal I / 2^n elementwise.  This is the property
    that makes every prefix-oblivious secrecy statistic look perfect.
    """
    cq = state.cq if isinstance(state, AttackState) else state
    n = cq.key_len - 1
    mixed = np.eye(cq.dim, dtype=np.complex128) / cq.dim
    worst = 0.0
    for row in _bit_rows(n).tolist():
        prefix = "".join(map(str, row))
        acc = np.zeros((cq.dim, cq.dim), dtype=np.complex128)
        mass = 0.0
        for last in "01":
            label = prefix + last
            if label not in cq.branches:
                raise ValueError(f"state is missing branch {label!r}")
            p, rho = cq.branches[label]
            acc += p * rho.matrix
            mass += p
        if mass <= 0.0:
            raise ValueError(f"prefix {prefix!r} carries no probability")
        worst = max(worst, float(np.abs(acc / mass - mixed).max()))
    return MarginalCheck(passed=worst < tol, max_deviation=worst)


def measure_encoded_qubit(r: int, s: int, basis: int, rng: np.random.Generator) -> int:
    """Measure the BB84 state |r>_s in BB84 basis ``basis``; return the outcome bit.

    The Born rule gives outcome r with probability exactly 1 when the
    bases match and a uniform bit otherwise, so the sampling dispatches
    on basis equality; the numeric Born probabilities are verified
    separately in the test suite.
    """
    if r not in (0, 1) or s not in (0, 1) or basis not in (0, 1):
        raise ValueError("r, s and basis must be bits")
    if basis == s:
        return r
    return int(rng.integers(0, 2))


def _complete_pads(prefix: np.ndarray, parity) -> np.ndarray:
    """Each row of the 0/1 array ``prefix`` extended by the bit that makes its XOR ``parity``."""
    last = np.bitwise_xor.reduce(prefix, axis=1) ^ parity
    return np.concatenate((prefix, last[:, None]), axis=1)


def sample_pad(n: int, parity: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform n-bit pad with the given XOR, via n-1 free bits."""
    return tuple(_complete_pads(rng.integers(0, 2, size=(1, n - 1)), parity)[0].tolist())


@dataclass(frozen=True)
class AttackTranscript:
    n: int
    message: tuple[int, ...]
    key: tuple[int, ...]
    pad: tuple[int, ...]
    ciphertext: tuple[int, ...]
    recovered_bases: tuple[int, ...]
    measured_pad: tuple[int, ...]
    recovered_bit: int
    success: bool


class AttackTally(NamedTuple):
    successes: int
    last: AttackTranscript


def run_otp_attack(
    n: int,
    message,
    rng: np.random.Generator,
    *,
    wrong_basis: bool = False,
) -> AttackTranscript:
    """One round of key generation, one-time-pad use, and the attack.

    Samples a fresh key and register (the register as a pure product
    state per sampled pad; the joint density operator is never
    materialised), publishes ``C = M xor S``, then plays the adversary:
    with the first n message bits known, ``S_i = M_i xor C_i`` recovers
    the bases, measuring yields the pad, and the pad parity decodes the
    hidden bit ``M_{n+1} = parity(R) xor C_{n+1}``.

    ``wrong_basis`` is a control run measuring in the complementary
    bases, which degrades the attack to a coin flip.  This is the
    one-round case of :func:`run_otp_attacks`.
    """
    return run_otp_attacks(n, message, rng, 1, wrong_basis=wrong_basis).last


def run_otp_attacks(
    n: int,
    message,
    rng: np.random.Generator,
    trials: int,
    *,
    wrong_basis: bool = False,
) -> AttackTally:
    """``trials`` rounds of :func:`run_otp_attack`, simulated as arrays.

    A round draws its n+1 key bits, then the n-1 free pad bits, then
    one coin per qubit measured outside its own basis (the Born rule
    gives the pad bit in the right basis and a uniform bit in the
    complementary one, see :func:`measure_encoded_qubit`).  Recovered
    bases are all right, or with ``wrong_basis`` all wrong, so a round
    draws 2n or 3n bits; the rounds are drawn as rows of one array, which
    consumes ``rng`` exactly as ``trials`` one-round calls would.
    Returns the number of successful rounds and the last transcript.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if trials < 1:
        raise ValueError("trials must be positive")
    m = _bits_from(message, n + 1)
    m_row = np.array(m)
    width = (3 if wrong_basis else 2) * n
    rows = _chunk_rows(width)
    successes = 0
    for start in range(0, trials, rows):
        draws = rng.integers(0, 2, size=(min(rows, trials - start), width))
        s = draws[:, : n + 1]
        r = _complete_pads(draws[:, n + 1 : 2 * n], s[:, n])
        c = s ^ m_row
        r_hat = draws[:, 2 * n :] if wrong_basis else r
        recovered = np.bitwise_xor.reduce(r_hat, axis=1) ^ c[:, n]
        successes += len(draws) - int(np.count_nonzero(recovered ^ m[n]))
    c_last = tuple(c[-1].tolist())
    recovered_bit = int(recovered[-1])
    # the adversary read the bases S_i = M_i xor C_i off the ciphertext
    last = AttackTranscript(
        n=n,
        message=m,
        key=tuple(s[-1].tolist()),
        pad=tuple(r[-1].tolist()),
        ciphertext=c_last,
        recovered_bases=tuple(mi ^ ci ^ wrong_basis for mi, ci in zip(m[:n], c_last)),
        measured_pad=tuple(r_hat[-1].tolist()),
        recovered_bit=recovered_bit,
        success=recovered_bit == m[n],
    )
    return AttackTally(successes, last)


def parity_strategy(n: int) -> Strategy:
    """The parity-consistency distinguisher for the attack state.

    Reads the first n key bits off the classical register, measures
    qubit i in basis ``S_i``, and accepts when the measured pad parity
    matches ``S_{n+1}``.  The real state always passes; under any ideal
    state the check is a coin flip.
    """

    def measurement(label: str) -> Povm:
        return prefix_basis_povm(label[:n])

    def decide(label: str, outcome: str) -> int:
        return int(_parity([int(b) for b in outcome]) == int(label[n]))

    return (measurement, decide)


class GuessOracle(NamedTuple):
    p_star: float
    angle: float


# the four encodings as (data bit, amplitudes), hoisted so the angle
# sweep stays cheap
_BB84_TABLE = tuple((r, _BB84_AMPS[s, r]) for s in (0, 1) for r in (0, 1))


def basis_guess_probability(theta: float) -> float:
    """Probability of guessing the BB84 data bit with one fixed basis.

    Measures in the basis rotated by ``theta`` and reads the outcome as
    the guess, averaged over the four equally likely encodings.  The
    computational basis (theta = 0) achieves 0.75.
    """
    v = qubit_basis(theta)
    total = 0.0
    for r, amps in _BB84_TABLE:
        total += abs(np.vdot(v[r], amps)) ** 2
    return float(total) / 4.0


def _basis_guess_probabilities(thetas: np.ndarray) -> np.ndarray:
    """:func:`basis_guess_probability` at every angle of ``thetas`` at once."""
    c, s = np.cos(thetas), np.sin(thetas)
    rows = ((c, s), (-s, c))  # the rows of qubit_basis(theta), angle by angle
    return sum(np.abs(rows[r][0] * a0 + rows[r][1] * a1) ** 2 for r, (a0, a1) in _BB84_TABLE) / 4.0


@functools.lru_cache(maxsize=None)
def single_qubit_guess_oracle(sweep_step: float = 1e-4) -> GuessOracle:
    """Best single-basis guess probability, found numerically.

    Sweeps the rotation angle over [0, pi) at ``sweep_step`` and then
    refines the best candidate by ternary search.  The optimum sits at
    the intermediate (Breidbart) angle pi/8 with value cos^2(pi/8); the
    numeric search is kept independent of that closed form so it can
    serve as an oracle for it.
    """
    if not 0 < sweep_step <= 1e-4:
        raise ValueError("sweep_step must be in (0, 1e-4]")
    thetas = np.arange(0.0, math.pi, sweep_step)
    k = int(np.argmax(_basis_guess_probabilities(thetas)))
    lo = thetas[max(k - 1, 0)]
    hi = thetas[min(k + 1, len(thetas) - 1)]
    while hi - lo > 1e-12:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if basis_guess_probability(m1) < basis_guess_probability(m2):
            lo = m1
        else:
            hi = m2
    angle = (lo + hi) / 2
    return GuessOracle(p_star=basis_guess_probability(angle), angle=angle)


def parity_guess_curve(n_max: int, p_star: float | None = None) -> list[tuple[int, float]]:
    """Best product-measurement guess rate for the pad parity, per n.

    With per-qubit guess probability p*, n independent guesses recover
    the parity with probability ``(1 + (2 p* - 1)^n) / 2``; the curve
    decays geometrically to a coin flip, which is why per-qubit figures
    suggest the hidden bit is safe.
    """
    if not 1 <= n_max <= 16:
        raise ValueError("n_max must lie in [1, 16]")
    if p_star is None:
        p_star = single_qubit_guess_oracle().p_star
    edge = 2.0 * p_star - 1.0
    return [(n, 0.5 * (1.0 + edge**n)) for n in range(1, n_max + 1)]


def parity_guess_curve_csv(n_max: int, p_star: float | None = None) -> str:
    """RFC 4180 CSV of :func:`parity_guess_curve`, ready for plotting."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["n", "parity_guess_probability"])
    for n, p in parity_guess_curve(n_max, p_star=p_star):
        writer.writerow([n, repr(p)])
    return buf.getvalue()


@dataclass(frozen=True)
class SecrecyGapReport:
    """Side-by-side: what I_acc suggests vs what a distinguisher achieves."""

    n: int
    eps_secret_lower: float
    eps_secret_upper: float
    iacc_lower_bits: float
    iacc_family: tuple[str, ...]
    iacc_best_strategy: str
    ben_or_required_iacc: float
    search_budget: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "type": "secrecy_gap_report",
            "n": self.n,
            "eps_secret_lower": self.eps_secret_lower,
            "eps_secret_upper": self.eps_secret_upper,
            "iacc_lower_bits": self.iacc_lower_bits,
            "iacc_family": list(self.iacc_family),
            "iacc_best_strategy": self.iacc_best_strategy,
            "ben_or_required_iacc": self.ben_or_required_iacc,
            "search_budget": self.search_budget,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SecrecyGapReport":
        if data.get("type") != "secrecy_gap_report":
            raise ValueError(f"expected a secrecy_gap_report object, got {data.get('type')!r}")
        return cls(
            n=int(data["n"]),
            eps_secret_lower=float(data["eps_secret_lower"]),
            eps_secret_upper=float(data["eps_secret_upper"]),
            iacc_lower_bits=float(data["iacc_lower_bits"]),
            iacc_family=tuple(data["iacc_family"]),
            iacc_best_strategy=str(data["iacc_best_strategy"]),
            ben_or_required_iacc=float(data["ben_or_required_iacc"]),
            search_budget=int(data["search_budget"]),
            seed=int(data["seed"]),
        )


def secrecy_gap_report(
    n: int,
    search_budget: int = 32,
    seed: int = 0,
    families: Sequence[str] = ("per_qubit", "random", "hill_climb"),
) -> SecrecyGapReport:
    """Quantify the counterexample gap for ``n`` register qubits.

    The secrecy bracket comes from the parity distinguisher (lower) and
    the canonical-ideal trace distance (upper); the accessible
    information is searched over the configured families.  The
    ``ben_or_required_iacc`` field is the threshold ``2^-(key_len + 2)``
    at epsilon = 1, i.e. the accessible information would have to
    exceed it before the sufficiency bound could even flag the state as
    fully insecure.
    """
    state = build_attack_state(n)
    ideal = canonical_ideal(state.cq).to_cq(state.cq.key_len)
    iacc = accessible_info_lower(state.cq, search_budget=search_budget, rng_seed=seed, families=families)
    return _gap_report(state, ideal, cq_trace_distance(state.cq, ideal), iacc)


def secrecy_reports(
    n: int,
    search_budget: int = 32,
    seed: int = 0,
    families: Sequence[str] = ("per_qubit", "random", "hill_climb"),
    correctness=None,
) -> tuple[SecurityReport, SecrecyGapReport]:
    """:func:`~qkdlab.security_metrics.evaluate_cq_security` of the attack
    state together with its :func:`secrecy_gap_report`.

    The attack state, its canonical ideal, the accessible-information
    search and the upper secrecy bound are computed once and shared by
    both reports; ``correctness`` is passed to the security report.
    """
    state = build_attack_state(n)
    report, ideal, iacc = _evaluate(
        state.cq,
        strategies=None,
        num_random_strategies=8,
        search_budget=search_budget,
        seed=seed,
        iacc_families=families,
        correctness=correctness,
    )
    return report, _gap_report(state, ideal, report.eps_secret_upper, iacc)


def _gap_report(state: AttackState, ideal: CqState, upper: float, iacc: IaccSearchResult) -> SecrecyGapReport:
    advantage = distinguishing_advantage(state.cq, ideal, parity_strategy(state.n))
    return SecrecyGapReport(
        n=state.n,
        eps_secret_lower=min(1.0, max(0.0, advantage)),
        eps_secret_upper=upper,
        iacc_lower_bits=iacc.bits,
        iacc_family=iacc.family,
        iacc_best_strategy=iacc.best_strategy,
        ben_or_required_iacc=2.0 ** -(state.n + 3),
        search_budget=iacc.budget,
        seed=iacc.seed,
    )
