"""The basis-encoded parity counterexample.

A uniform (n+1)-bit key S is produced while the adversary keeps an
n-qubit register: a uniformly random pad R with ``R_1 xor ... xor R_n =
S_{n+1}`` is BB84-encoded qubit by qubit, qubit i in the basis given by
key bit S_i.  Given any value of the first n key bits the register is
fully mixed, so per-qubit (product) measurements learn at most 2^-n bits
about the key (acceptance criterion 03).  Yet once the key is used as a
one-time pad on a message whose first n bits are known, the ciphertext
hands the adversary the bases: measuring qubit i in basis ``M_i xor C_i``
recovers R_i, and the pad's parity reveals the message bit ``M_{n+1}``.

A joint measurement learns exactly 1/2 bit, the accessible information
itself, at every n >= 2.  With s the first n key bits, p the last one and
``P_s`` the string of Z (s_i = 0) and X (s_i = 1), the branch of (s, p) is
``(I + (-1)^p P_s) / 2^n``.  The 2^(n-1) strings with an even number of X
commute, and their joint eigenbasis (:func:`even_x_eigenbasis`, the Bell
basis at n = 2) learns 1/2 bit.  It has a closed form: ``X = -i Y Z``, so
``P_s = (-i)^|s| Y^s Z^(x)n``; for even |s|, ``Y^s`` has one sign on each pair
``{|y>_Y, |not y>_Y}`` of Y-basis product states and ``Z^(x)n`` swaps the two,
so the real and imaginary parts of ``|y>_Y`` (``y_1 = 0``), each times sqrt 2,
are eigenvectors of all of them: real 0/+-2^(-(n-1)/2) rows.  No measurement
learns more:

1. The ensemble is covariant under {I, H, Y, HY}^(x)n, which acts
   irreducibly; twirling an optimal POVM and refining it to rank one
   (Davies, IEEE TIT 24, 596 (1978)) gives ``I_acc = max_phi 1 - 2^-n
   sum_s h((1 + <P_s>_phi) / 2)`` over pure phi, h the binary entropy.
2. ``1 - h((1 + x) / 2) = sum_k x^(2k) / (2 ln 2 k (2k - 1)) <= x^2``,
   as ``sum_k 1 / (k (2k - 1)) = 2 ln 2``.
3. Even-X strings anticommute with odd-X ones.  So with ``A = sum_even
   <P_s> P_s`` and ``B = sum_odd <P_s> P_s``, ``||A + B||^2 <= ||A||^2 +
   ||B||^2 <= 2^(n-1) sum_s <P_s>^2`` (Cauchy-Schwarz), and since
   ``sum_s <P_s>^2 = <A + B> <= ||A + B||``, ``sum_s <P_s>^2 <= 2^(n-1)``.

Hence ``I_acc <= 2^-n sum_s <P_s>^2 <= 1/2`` bit (``IACC_UPPER_BITS``).

The same covariance fixes every figure that ``secrecy`` prints.  H on qubit i
takes the branch of (s, p) to that of s with s_i toggled, and X on the last
qubit takes (0...0, 0) to (0...0, 1); both fix the declared ideal I / 2^n and
map each label's product basis onto another label's.  So the branches are the
orbit of branch 0 under the group they generate, and each figure is 2^(n+1)
times branch 0's term.  :func:`secrecy_reports` reads them off closed forms: the
factor W_0 of branch 0 (:func:`_representative`) and the declared basis's sign
table (:func:`_sign_table`).  That :func:`build_attack_state` gives exactly this
orbit is checked by the tests, branch by branch, at every n it accepts.

The per-qubit family has a closed form too.  A product of qubit bases at angles
``theta_i`` gives outcome z of branch (s, p) the probability ``(1 + (-1)^p prod_i
(-1)^(z_i) c_i) / 2^n``, with ``c_i = cos 2 theta_i`` where ``s_i = 0`` and ``sin 2
theta_i`` where ``s_i = 1``, so ``I(S : Z) = 1 - 2^-n sum_s h((1 + m_s) / 2)`` with ``m_s
= prod_i |c_i|`` (:func:`_per_qubit_search`).  And a prefix's two branches average to
I / 2^n, so the marginal check reads one pair (:func:`_orbit_marginal_check`).  No
command builds the state.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from ._json import JsonRecord, Record
from .quantum_core import (
    CqState,
    Povm,
    _bit_strings,
    _chunks,
    _kron_rows,
    _ordered_sum,
    mutual_information,
)
from .security_metrics import (
    IACC_FAMILIES,
    IaccSearchResult,
    SecurityReport,
    Strategy,
    _report,
    check_families,
    correctness_figures,
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
    "parity_strategy",
    "single_qubit_guess_oracle",
    "BREIDBART",
    "basis_guess_probability",
    "parity_guess_curve",
    "parity_guess_curve_csv",
    "secrecy_gap_report",
    "secrecy_reports",
    "even_x_eigenbasis",
    "IACC_UPPER_BITS",
]

# There are 2^(n+1) branches of dimension 2^n and rank 2^(n-1): at the cap the
# state's dense stack takes 34 MB, formed from 17 MB of real factors that it does not keep.
MAX_ATTACK_QUBITS = 7

IACC_UPPER_BITS = 0.5  # the attack key's accessible information, at every n

# Batched rounds and samples are drawn about this many random bits at a
# time (as many whole rows as fit, at least one), so memory stays flat
# whatever the number of trials.
_CHUNK_BITS = 2**15


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` random bits that make up one draw."""
    return max(1, _CHUNK_BITS // max(1, width))


def _bit_rows(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Every n-bit 0/1 row, or rows ``start`` to ``stop`` (exclusive) of them, as uint8,
    in lexicographic order: row v spells v in binary."""
    values = (np.arange(start, 1 << n if stop is None else stop, dtype=np.uint32) << (32 - n)).astype(">u4")
    return np.unpackbits(values[:, None].view(np.uint8), axis=1, count=n)


def _bits_from(value, width: int) -> tuple[int, ...]:
    bits = tuple(map(int, value))
    if len(bits) != width or not {0, 1}.issuperset(bits):
        raise ValueError(f"expected {width} bits, got {value!r}")
    return bits


# _BB84_AMPS[s, r] holds the amplitudes of data bit r encoded in basis s:
# basis 0 is computational (|0>, |1>), basis 1 diagonal (|+>, |->)
_H = 1.0 / math.sqrt(2.0)
_BB84_AMPS = np.array([[(1.0, 0.0), (0.0, 1.0)], [(_H, _H), (_H, -_H)]])
_ZX = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])  # Z for key bit 0, X for 1
_I_POWERS = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])  # Re and Im of i^k, k = 0..3


class AttackState(Record, eq=False):
    """The counterexample state for ``n`` register qubits (key length n+1)."""

    n: int
    cq: CqState

    def __post_init__(self):
        if self.cq.key_len != self.n + 1 or self.cq.dim != 2**self.n:
            raise ValueError("cq-state shape does not match n")
        if self.cq.p_perp != 0.0:
            raise ValueError("attack state has no abort branch")


def build_attack_state(n: int) -> AttackState:
    """Construct the basis-encoded parity state for ``n`` qubits.

    Every key value ``s`` has probability 2^-(n+1); its register branch
    is the uniform mixture, weight 2^-(n-1) each, of the product states
    encoding the parity-constrained pads in the bases ``s_1 .. s_n``.
    The stack is formed from each branch's factor, the weighted pad states as
    columns (:meth:`~qkdlab.quantum_core.CqState.from_factors`).  The
    BB84 amplitudes are real, so the factors and stack are float64.
    """
    if not 2 <= n <= MAX_ATTACK_QUBITS:
        raise ValueError(f"n must lie in [2, {MAX_ATTACK_QUBITS}]")
    return AttackState(n=n, cq=CqState.from_factors(n + 1, *_attack_factors(n)))


def _attack_factors(n: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The branch labels, probabilities and real ``(B, d, r)`` factors of :func:`build_attack_state`."""
    p_branch = 2.0 ** -(n + 1)
    weight = 2.0 ** -(n - 1)
    keys = _bit_rows(n + 1)
    pads = np.stack([_complete_pads(_bit_rows(n - 1), parity) for parity in (0, 1)])[keys[:, -1]]
    # column k of factor s is the product state of pad k in the bases of key s, built
    # qubit by qubit as a Kronecker product in place: after qubit i, the rows whose
    # last n - i - 1 bits are 0 hold the product of the first i + 1 amplitudes
    w = np.empty((len(keys), 2**n, pads.shape[1]))
    w[:, 0] = 1.0
    for i in range(n):
        factor = _BB84_AMPS[keys[:, i, None], pads[:, :, i]]
        grid = w.reshape(len(keys), 2**i, 2, -1, pads.shape[1])[:, :, :, 0]
        for bit in (1, 0):  # the rows of bit 0 are the source
            np.multiply(grid[:, :, 0], factor[:, None, :, bit], out=grid[:, :, bit])
    # weighted: W_s W_s^dagger is the branch of s
    w *= math.sqrt(weight)
    return _bit_strings(n + 1), np.full(len(keys), p_branch), w


def even_x_eigenbasis(n: int) -> Povm:
    """Joint eigenbasis of the strings ``P_s`` with an even number of X (module docstring),
    in closed form, real float64.

    As ``X = -i Y Z``, ``P_s = (-i)^|s| Y^s Z^(x)n``.  For even ``|s|``, ``Y^s`` has one sign
    on both of the Y-basis product states ``|y>_Y`` and ``|not y>_Y``, and ``Z^(x)n`` swaps
    them, so ``sqrt 2 Re`` and ``sqrt 2 Im`` of ``|y>_Y``, over the y with ``y_1 = 0``, are
    eigenvectors of every such string.  ``|y>_Y`` has the amplitudes ``2^(-n/2) i^|x|
    (-1)^(x.y)``, so the rows, the real parts and then the imaginary parts, are
    ``2^(-(n-1)/2) (-1)^(x.y) (-1)^floor(|x|/2)`` on the even-weight x or on the odd-weight
    x, and 0 elsewhere.
    """
    return Povm.from_basis(_even_x_signs(n) * 2.0 ** (-(n - 1) / 2))


def _even_x_signs(n: int) -> np.ndarray:
    """The rows of :func:`even_x_eigenbasis` times ``2^((n-1)/2)``: float64 entries 0 and +-1."""
    x = _bit_rows(n)
    signs = 1.0 - 2.0 * ((x[: 2 ** (n - 1)] @ x.T) & 1)  # (-1)^(x.y), y the rows with y_1 = 0
    parts = _I_POWERS[x.sum(axis=1) % 4].T  # Re and Im of i^|x|
    return (parts[:, None, :] * signs).reshape(2**n, 2**n)


class MarginalCheck(NamedTuple):
    passed: bool
    max_deviation: float


def fully_mixed_marginal_check(state: AttackState | CqState) -> MarginalCheck:
    """Verify the register is fully mixed given any first-n-bits prefix.

    For every prefix, the half/half mixture of the two branches that
    extend it must equal I / 2^n elementwise, to within 1e-9.  This is
    the property that makes every prefix-oblivious secrecy statistic
    look perfect.
    """
    cq = state.cq if isinstance(state, AttackState) else state
    every = _bit_strings(cq.key_len)
    missing = sorted(set(every) - set(cq.labels))
    if missing:
        raise ValueError(f"state is missing branch {missing[0]!r}")
    d = cq.dim
    p = cq.probs[: len(every)].reshape(-1, 2, 1, 1)  # prefix, last bit
    mats = cq.matrices[: len(every)].reshape(-1, 2, d, d)
    mass = p[:, 0] + p[:, 1]
    empty = np.flatnonzero(mass.ravel() <= 0.0)
    if empty.size:
        raise ValueError(f"prefix {every[2 * empty[0]][:-1]!r} carries no probability")
    fully_mixed, worst = np.eye(d) / d, 0.0
    for part in _chunks(len(mass), d):  # a few prefixes at a time
        mixture = (p[part, 0] * mats[part, 0] + p[part, 1] * mats[part, 1]) / mass[part]
        worst = max(worst, float(np.abs(mixture - fully_mixed).max()))
    return MarginalCheck(passed=worst < 1e-9, max_deviation=worst)


def _complete_pads(prefix: np.ndarray, parity) -> np.ndarray:
    """Each row of the 0/1 array ``prefix`` extended by the bit that makes its XOR ``parity``."""
    last = np.bitwise_xor.reduce(prefix, axis=1) ^ parity
    return np.concatenate((prefix, last[:, None]), axis=1)


class AttackTranscript(Record):
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


def _otp_rounds(draws: np.ndarray, m: np.ndarray, wrong_basis: bool = False):
    """The attack on each row of ``draws``, the bits of one round of :func:`run_otp_attacks`,
    for the (n+1)-bit message row ``m``: the rounds' keys, pads, ciphertexts, measured pads
    and recovered bits ``M_{n+1}``, as arrays of the dtype of ``draws`` and ``m``."""
    n = len(m) - 1
    s = draws[:, : n + 1]
    r = _complete_pads(draws[:, n + 1 : 2 * n], s[:, n])
    c = s ^ m
    r_hat = draws[:, 2 * n :] if wrong_basis else r
    return s, r, c, r_hat, np.bitwise_xor.reduce(r_hat, axis=1) ^ c[:, n]


def run_otp_attacks(
    n: int,
    message,
    rng: np.random.Generator,
    trials: int,
    *,
    wrong_basis: bool = False,
) -> AttackTally:
    """``trials`` rounds of :func:`run_otp_attack` for ``n >= 1`` qubits, simulated as arrays.

    A round draws its n+1 key bits, then the n-1 free pad bits, then
    one coin per qubit measured outside its own basis (the Born rule
    gives the pad bit in the right basis and a uniform bit in the
    complementary one).  Recovered bases are all right, or with
    ``wrong_basis`` all wrong, so a round draws 2n or 3n bits; the rounds
    are drawn as rows of one array, which consumes ``rng`` exactly as
    ``trials`` one-round calls would; each batch is one :func:`_otp_rounds`.
    Returns the number of successful rounds and the last transcript.
    These rounds are also the real world of ``verify-composition --example
    attack-otp`` (:func:`~qkdlab.composition_harness.attack_otp_advantage`).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("trials must be positive")
    m = _bits_from(message, n + 1)
    m_row = np.array(m)
    width = (3 if wrong_basis else 2) * n
    rows = _chunk_rows(width)
    successes = 0
    for start in range(0, trials, rows):
        draws = rng.integers(0, 2, size=(min(rows, trials - start), width))
        s, r, c, r_hat, recovered = _otp_rounds(draws, m_row, wrong_basis)
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
    state the check is a coin flip: the accepted effect on label (s, p) is
    ``(I + (-1)^p P_s) / 2`` (module docstring), exact, and they sum to ``2^n I``.
    """
    keys = _bit_rows(n + 1)
    factors = _ZX[keys[:, :n]]
    factors[:, 0] *= (0.5 - keys[:, n]).reshape(-1, 1, 1)  # (-1)^p / 2
    effects = _kron_rows(factors)
    effects[:, range(2**n), range(2**n)] += 0.5
    return Strategy("parity", _bit_strings(n + 1), effects)


class GuessOracle(NamedTuple):
    p_star: float
    angle: float


# the best single-basis guess in closed form: the intermediate angle pi/8 guesses with cos^2(pi/8)
BREIDBART = GuessOracle(p_star=math.cos(math.pi / 8) ** 2, angle=math.pi / 8)


def basis_guess_probability(theta: float) -> float:
    """Probability of guessing the BB84 data bit with one fixed basis.

    Measures in the basis rotated by ``theta`` and reads the outcome as
    the guess, averaged over the four equally likely encodings.  The
    computational basis (theta = 0) achieves 0.75.  The one-angle case of
    :func:`_basis_guess_probabilities`.
    """
    return float(_basis_guess_probabilities(theta))


def _basis_guess_probabilities(thetas: np.ndarray) -> np.ndarray:
    """:func:`basis_guess_probability` at every angle of ``thetas`` at once."""
    c, s = np.cos(thetas), np.sin(thetas)
    rows = ((c, s), (-s, c))  # the rows of qubit_basis(theta), angle by angle
    encodings = [(r, a0, a1) for basis in _BB84_AMPS for r, (a0, a1) in enumerate(basis)]
    return sum(np.abs(rows[r][0] * a0 + rows[r][1] * a1) ** 2 for r, a0, a1 in encodings) / 4.0


@functools.cache
def single_qubit_guess_oracle() -> GuessOracle:
    """Best single-basis guess probability, found numerically.

    Sweeps the rotation angle over [0, pi) in steps of 1e-4 and then
    refines the best candidate by ternary search.  The optimum sits at
    the intermediate (Breidbart) angle pi/8 with value cos^2(pi/8)
    (:data:`BREIDBART`); the numeric search is kept independent of that
    closed form so it can serve as an oracle for it.
    """
    thetas = np.arange(0.0, math.pi, 1e-4)
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
    suggest the hidden bit is safe.  ``p_star`` defaults to the
    closed-form :data:`BREIDBART` value.
    """
    if not 1 <= n_max <= 16:
        raise ValueError("n_max must lie in [1, 16]")
    if p_star is None:
        p_star = BREIDBART.p_star
    edge = 2.0 * p_star - 1.0
    return [(n, 0.5 * (1.0 + edge**n)) for n in range(1, n_max + 1)]


def parity_guess_curve_csv(n_max: int) -> str:
    """RFC 4180 CSV of :func:`parity_guess_curve`, ready for plotting: no field needs quoting, and
    ``csv`` writes a number as its ``repr``, so each row fills a template, as ``keystream._csv`` does."""
    return "n,parity_guess_probability\r\n" + "".join("%s,%s\r\n" % row for row in parity_guess_curve(n_max))


class SecrecyGapReport(JsonRecord):
    """Side-by-side: what I_acc suggests vs what a distinguisher achieves; all but
    ``ben_or_required_iacc`` and ``iacc_upper_bits`` is the security report's (:func:`secrecy_reports`)."""

    JSON_TYPE = "secrecy_gap_report"

    n: int
    eps_secret_lower: float
    eps_secret_upper: float
    iacc_lower_bits: float
    iacc_family: tuple[str, ...]
    iacc_best_strategy: str
    ben_or_required_iacc: float
    seed: int
    iacc_upper_bits: float | None = None  # IACC_UPPER_BITS where the declared family was searched


def secrecy_gap_report(
    n: int,
    seed: int = 0,
    families: Sequence[str] = IACC_FAMILIES,
) -> SecrecyGapReport:
    """Quantify the counterexample gap for ``n`` register qubits: the second report of
    :func:`secrecy_reports`.

    The secrecy bracket comes from the parity distinguisher (lower) and
    the trace distance to the declared ideal, the register I / 2^n on
    every key (upper); the I_acc bracket from the
    selected families (clamped to the upper end) and ``IACC_UPPER_BITS``,
    which :func:`even_x_eigenbasis`, the declared family, attains.  The
    ``ben_or_required_iacc`` field is the threshold ``2^-(key_len + 2)``
    at epsilon = 1, i.e. the accessible information would have to
    exceed it before the sufficiency bound could even flag the state as
    fully insecure.
    """
    return secrecy_reports(n, seed, families)[1]


def secrecy_reports(
    n: int,
    seed: int = 0,
    families: Sequence[str] = IACC_FAMILIES,
    correctness: tuple[float, str] | None = None,
) -> tuple[SecurityReport, SecrecyGapReport]:
    """The security report of the attack state together with its :func:`secrecy_gap_report`,
    scored from one branch per orbit, in closed form.

    Every figure is B times branch 0's term, B = 2^(n+1) (module docstring), each branch
    of probability 1/B and no abort: the trace distance to the declared ideal, the
    register I / 2^n on every key (by the covariance it is the exact branch average,
    and any ideal gives an upper end, epsilon being a minimum over ideals), and the
    trivial and label-basis advantages, scored from the factor W_0 of
    :func:`_representative` in order until one meets that distance, as
    :func:`~qkdlab.security_metrics.evaluate_cq_security` stops its default stock; the
    label-basis strategy is :func:`parity_strategy`, effect for effect, and meets it.
    With ``declared`` among ``families``, the I_acc figure is the declared basis's, read
    from :func:`_sign_table`: exactly ``IACC_UPPER_BITS`` at every n, which closes the
    bracket, so no other family runs.  Without it, the per-qubit family is scored in
    closed form, every member counted (:func:`_per_qubit_search`); either I_acc figure is
    clamped to ``IACC_UPPER_BITS``.  No state is built and nothing is sampled, so
    ``seed`` is only recorded.  The tests hold every figure to
    the dense primitives on the built state, bit for bit: the trace distance to the
    declared ideal's copies, the acceptance of :func:`parity_strategy` on the state and
    on that ideal, and the mutual information of :func:`even_x_eigenbasis`'s Born table
    or the per-qubit search of :func:`~qkdlab.security_metrics.accessible_info_lower`;
    they check that the built state is the orbit of W_0.

    ``correctness`` is the pair that :func:`~qkdlab.security_metrics.correctness_figures`
    scores, so a caller checks it before any figure is scored; None reports 0.  The gap
    report reads its secrecy bracket, I_acc lower end and search provenance off the
    security report.
    """
    families = check_families(families)
    if not 2 <= n <= MAX_ATTACK_QUBITS:
        raise ValueError(f"n must lie in [2, {MAX_ATTACK_QUBITS}]")
    upper, advantages = _orbit_bracket(_representative(n), n)
    if "declared" in families:
        iacc = IaccSearchResult(mutual_information(_sign_table(n)), ("declared",), "declared:even_x_eigenbasis", 1)
    else:
        iacc = _per_qubit_search(n)
    report = _report(n + 1, correctness or correctness_figures(None), 0.0, upper,
                     advantages, iacc, IACC_UPPER_BITS, {"seed": seed})
    searched = tuple(report.provenance["iacc_family"])
    return report, SecrecyGapReport(
        n=n,
        eps_secret_lower=report.eps_secret_lower,
        eps_secret_upper=report.eps_secret_upper,
        iacc_lower_bits=report.iacc_lower_bits,
        iacc_family=searched,
        iacc_best_strategy=report.provenance["iacc_best_strategy"],
        ben_or_required_iacc=2.0 ** -(n + 3),
        seed=report.provenance["seed"],
        iacc_upper_bits=IACC_UPPER_BITS if "declared" in searched else None,
    )


def _pad_columns(n: int, parity: int) -> np.ndarray:
    """The 0/1 ``(d, r)`` matrix whose column k is the computational state of the k-th pad
    of parity ``parity`` (k's n - 1 bits, then the bit that makes the parity): the factor of
    branch ``(0...0, parity)`` over the square root of its weight 2^-(n-1)."""
    r = 2 ** (n - 1)
    pads = 2 * np.arange(r) + ((_bit_rows(n - 1).sum(axis=1, dtype=np.intp) + parity) & 1)
    columns = np.zeros((2**n, r))
    columns[pads, np.arange(r)] = 1.0
    return columns


def _representative(n: int) -> np.ndarray:
    """The factor W_0 of branch ``0...0`` in closed form: the even-parity pad states, weight
    2^-(n-1), so ``W_0 W_0^T`` is the branch."""
    return _pad_columns(n, 0) * math.sqrt(2.0 ** -(n - 1))


def _orbit_marginal_check(n: int) -> MarginalCheck:
    """:func:`fully_mixed_marginal_check` on the two branches that extend the prefix
    ``0...0``, from their factors in closed form.

    H on qubit i takes the pair of prefix s to that of s with s_i toggled and fixes
    I / 2^n (module docstring), so every prefix's mixture is I / 2^n when this one is;
    the tests check that :func:`build_attack_state` is that orbit.  The factors are kept
    0/1 and their weight applied to the products, so the mixture is exact and the
    deviation 0.0, where the built state's stack carries rounding.
    """
    mixture = sum(np.einsum("ik,jk->ij", a, a) for a in (_pad_columns(n, 0), _pad_columns(n, 1)))
    worst = float(np.abs(mixture * 2.0**-n - np.eye(2**n) / 2**n).max())
    return MarginalCheck(passed=worst < 1e-9, max_deviation=worst)


def _per_qubit_search(n: int) -> IaccSearchResult:
    """The exhaustive per-qubit search of :func:`~qkdlab.security_metrics.accessible_info_lower`
    on the attack state, in closed form.

    Over the std, diag and Breidbart bases, ``c_i`` (module docstring) is ``1 - s_i`` on a std
    qubit, ``s_i`` on a diag one and ``2^-1/2`` on a Breidbart one.  So ``m_s = 0`` unless
    ``s_i = 0`` on every std qubit and 1 on every diag one, and then ``2^(-b/2)``, b the number
    of Breidbart qubits: a product learns ``2^-(n-b) (1 - h((1 + 2^(-b/2)) / 2))`` bits.  As
    ``1 - h((1 + x) / 2) <= x^2``, with equality at x = 1, b = 0 scores most, exactly 2^-n, and
    the first of the 3^n members in the search's order is std on every qubit.
    """
    return IaccSearchResult(2.0**-n, ("per_qubit_exhaustive",), "per_qubit:" + ",".join(["std"] * n), 3**n)


def _orbit_bracket(w0: np.ndarray, n: int) -> tuple[float, list[float]]:
    """The trace distance from the attack state to the declared ideal and the advantages of
    the default strategies scored up to it, each B times branch 0's term (factor ``w0``).

    Each branch and the ideal weigh p = 2^-(n+1).  The block ``p W_0 W_0^T / tr - c I`` has
    the eigenvalues ``p lambda - c``, lambda those of the ``(r, r)`` Gram matrix
    ``W_0^T W_0 / tr``, and ``-c`` on the rest of its d: dividing the Gram, not the factor,
    by the trace keeps its eigenvalues exact.  Branch 0's label basis is the
    computational one, in which it reads ``Pr[z] = ||row z of W_0||^2 / tr``; the trivial
    measurement reads the trace, 1.  The spectrum is read from ``w0`` (:func:`_gram_spectrum`),
    not taken from the closed form ``W_0^T W_0 = 2^-(n-1) I``, so column weights that are not a
    branch's show in the figure; no BLAS or LAPACK routine runs.
    """
    d, r = w0.shape
    count, p = 2 ** (n + 1), 2.0 ** -(n + 1)
    c = p / d  # the ideal's block, c I
    spectrum, trace = _gram_spectrum(w0)
    block = np.abs(p * spectrum - c).sum() + (d - r) * c
    upper = min(1.0, max(0.0, count * (0.5 * block)))
    rows = (w0 * w0).sum(axis=1) / trace
    advantages = []
    for real, fake in ((rows.sum(keepdims=True), np.ones(1)), (rows, np.full(d, 1.0 / d))):  # trivial, label basis
        accept = p * real - p * fake > 0.0
        advantages.append(count * (p * float(_ordered_sum(real * accept, 0)) - p * float(_ordered_sum(fake * accept, 0))))
        if advantages[-1] >= upper:
            break
    return upper, advantages


def _gram_spectrum(w: np.ndarray) -> tuple[np.ndarray, float]:
    """The eigenvalues of ``W^T W / tr``, ascending, and the trace ``tr`` of ``W^T W``, for a
    ``w`` with one nonzero per column, in distinct rows, as a branch's factor has.

    Its Gram is then diagonal, the squared column norms, so the eigenvalues are those norms,
    sorted, over their sum, bit for bit what ``eigvalsh`` returns; any other ``w`` is refused.
    The structure is r nonzeros, in r columns and in r rows, r the number of columns: three
    counts of nonzeros, with no Gram formed (an entry whose square underflows counts as zero).
    """
    squares = w * w
    norms = squares.sum(axis=0)
    if not np.count_nonzero(w) == np.count_nonzero(norms) == np.count_nonzero(squares.sum(axis=1)) == w.shape[1]:
        raise ValueError("w must have one nonzero per column, in distinct rows")
    trace = norms.sum()
    return np.sort(norms / trace), trace


def _sign_table(n: int) -> np.ndarray:
    """The ``(B, d)`` joint distribution of key and outcome that :func:`even_x_eigenbasis`
    gives on the attack state, in closed form.

    Branch (s, p) is ``(I + (-1)^p P_s) / 2^n`` (module docstring), so outcome j has
    probability ``(1 + (-1)^p <P_s>_j) / d``, times the branch's 1/B.  Row j is ``sqrt 2 Re``
    or ``sqrt 2 Im`` of ``|y_j>_Y``, on which ``P_s = (-i)^|s| Y^s Z^(x)n`` has
    ``<P_s>_j = Re(i^|s|) (-1)^(s.y_j)``, negated on the imaginary rows: 0 for odd ``|s|``.
    One GF(2) product ``s.y`` gives the table; its entries are dyadic and sum to 1 exactly.
    """
    d = 2**n
    s = _bit_rows(n)
    real = _I_POWERS[s.sum(axis=1) % 4, :1] * (1.0 - 2.0 * ((s @ s[: d // 2].T) & 1))  # y_j: the rows with y_1 = 0
    expect = np.concatenate((real, -real), axis=1)  # expect[s, j] = <P_s>_j
    return 2.0 ** -(n + 1) * ((1.0 + np.stack((expect, -expect), axis=1).reshape(2 * d, d)) / d)
