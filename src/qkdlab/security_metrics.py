"""Epsilon-style security metrics for keys with quantum side information.

The functions here quantify, for a cq-state describing a produced key
and the adversary register:

* correctness (probability the two parties' keys differ),
* robustness (abort probability),
* secrecy, between the best explicit-distinguisher advantage and the
  trace distance to a canonical ideal state (an upper bound),
* an accessible-information lower bound, from a search over per-qubit
  product measurements,
* the Ben-Or style sufficiency threshold relating accessible
  information to a secrecy epsilon, and
* the union-bound total epsilon.

The true secrecy epsilon minimises the trace distance over all ideal
states.  The distance to the canonical ideal (same abort mass,
branch-averaged register) bounds it from above; the best advantage of
concrete measure-then-decide strategies against that *canonical* ideal
is the lower figure, which is not yet a certified lower bound on epsilon.

The ideal is uniform key tensor one register rho', and every figure reads
the state laid out once against its :class:`IdealForm` on their label
union (:func:`_ideal`): the ideal's side is the stack (rho', rho''), which
each label indexes, never a ``(2^l, d, d)`` stack: rho' is read for
one batch of keys at a time.  The arithmetic is that of
the copies, so each figure equals, bit for bit, the one computed against
:meth:`IdealForm.to_cq`, which the tests keep as the oracle.  Every figure
reads the state's ``(B, d, d)`` stack ``matrices``; only ``secrecy``'s
attack key is scored from closed forms, one branch per orbit, with no
state built (``attack_lab.secrecy_reports``).
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ._json import JsonRecord, Record, field
from .quantum_core import (
    EIG_TOL,
    PERP,
    DEFAULT_DIM_CAP,
    _STACK_CHUNK,
    CqState,
    DensityOperator,
    Povm,
    _Pair,
    _as_square,
    _bit_strings,
    _block_distance,
    _chunks,
    _gaps,
    _hermitian_psd,
    _kron_rows,
    _ordered_sum,
    _pair,
    _rows,
    born_table,
    cq_measure,
    mutual_information,
    product_qubit_povm,
)

__all__ = [
    "IdealForm",
    "SecurityReport",
    "IaccSearchResult",
    "correctness_eps",
    "correctness_figures",
    "clopper_pearson_upper",
    "canonical_ideal",
    "secrecy_eps_upper",
    "secrecy_eps_lower",
    "strategy_acceptance",
    "default_strategies",
    "accessible_info_lower",
    "ben_or_sufficient_eps",
    "compose_report",
    "evaluate_cq_security",
    "IACC_FAMILIES",
    "check_families",
    "QUBIT_BASIS_ANGLES",
    "Strategy",
]

# Single-qubit measurement bases used by the accessible-information
# search: computational, diagonal, and the intermediate (Breidbart)
# basis halfway between them.
QUBIT_BASIS_ANGLES: dict[str, float] = {
    "std": 0.0,
    "diag": math.pi / 4,
    "breidbart": math.pi / 8,
}

# The accessible-information search's measurement families, in the order
# that ``secrecy --families`` prints as its default.
IACC_FAMILIES = ("per_qubit", "declared")


def check_families(families: Sequence[str]) -> tuple[str, ...]:
    """``families`` as a tuple, refusing a name that is not one of ``IACC_FAMILIES``
    or that is named twice."""
    unknown = set(families) - set(IACC_FAMILIES)
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")
    if len(set(families)) < len(families):
        raise ValueError(f"repeated families: {list(families)}")
    return tuple(families)


# Strategies are built and scored a batch of labels at a time: this many entries
# (256 KB of float64) per (b, d, d) temporary, such as the batch's per-label bases
_BATCH = 2**15


class Strategy(Record, eq=False):
    """A distinguisher, as its accepted effect on each key label.

    Whatever it measures, a strategy accepts a branch labelled ``labels[k]``
    with probability ``tr(M_k rho)``, ``M_k = effects[k]`` the sum of the
    effects of the outcomes it accepts there.  ``effects`` is a read-only
    ``(B, d, d)`` stack, each effect checked Hermitian with its spectrum in
    [0, 1] (``0 <= M_k <= I``) to the operator tolerances; a state with a
    branch whose label is not listed cannot be scored.
    """

    name: str
    labels: tuple[str, ...]
    effects: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        effects = _as_square(self.effects, stacked=True).view()
        if len(effects) != len(labels) or len(set(labels)) != len(labels):
            raise ValueError(f"need one effect per distinct label: {len(effects)} effects, "
                             f"{len(labels)} labels ({len(set(labels))} distinct)")
        for part in _chunks(len(labels), effects.shape[1], _BATCH):
            names = [f"effect of strategy {self.name!r} on label {label!r}" for label in labels[part]]
            spectra = _hermitian_psd(effects[part], names)[1]
            bad = np.flatnonzero(spectra[:, -1] > 1.0 + EIG_TOL)
            if bad.size:
                raise ValueError(f"{names[bad[0]]} exceeds I (max eigenvalue {spectra[bad[0], -1]:.3e})")
        effects.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "effects", effects)


def correctness_eps(outcomes) -> float:
    """Probability that the two parties' outputs disagree.

    Accepts either an explicit distribution (mapping ``(s_a, s_b) ->
    prob``, evaluated exactly) or a sample set (iterable of ``(s_a,
    s_b)`` pairs).  For samples the return value is a one-sided 99%
    Clopper-Pearson upper confidence bound on the disagreement
    probability: epsilon_c guards a failure event, so only
    overestimates are safe.
    """
    if isinstance(outcomes, Mapping):
        total = 0.0
        bad = 0.0
        for (sa, sb), p in outcomes.items():
            p = float(p)
            if math.isnan(p):
                raise ValueError("correctness probability is not a number")
            if p < -1e-12:
                raise ValueError(f"correctness probability {p!r} is negative")
            total += p
            if sa != sb:
                bad += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"correctness probabilities sum to {total!r}, not 1")
        return min(1.0, max(0.0, bad))
    samples = list(outcomes)
    if not samples:
        raise ValueError("correctness sample set is empty")
    failures = sum(1 for sa, sb in samples if sa != sb)
    return clopper_pearson_upper(failures, len(samples))


def correctness_figures(outcomes) -> tuple[float, str]:
    """The ``eps_correct`` of :func:`correctness_eps` and the ``correctness_source`` a report
    names for ``outcomes``: ``distribution``, ``samples``, or for None, 0 and ``assumed_zero``."""
    if outcomes is None:
        return 0.0, "assumed_zero"
    return correctness_eps(outcomes), "distribution" if isinstance(outcomes, Mapping) else "samples"


def clopper_pearson_upper(failures: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided exact binomial (Clopper-Pearson) upper bound, rounded up:
    P[Binomial(trials, bound) <= failures] <= 1 - confidence."""
    if trials <= 0 or failures < 0 or failures > trials:
        raise ValueError("need 0 <= failures <= trials, trials > 0")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    return _cp_upper(failures, trials, confidence)


def _cp_upper(k: int, n: int, conf: float) -> float:
    """The exact one-sided Clopper-Pearson upper bound on a binomial p from k
    successes in n trials, rounded up: P[X <= k] <= 1 - conf at the result;
    the lower bound is ``1 - _cp_upper(n - k, n, conf)``.  The search aims at
    (1 - conf)(1 - 1e-8), far above the error of the computed CDF, and
    returns the end of its bracket past that value.
    """
    if k >= n:
        return 1.0
    target = (1.0 - conf) * (1.0 - 1e-8)
    if k == 0:
        return -math.expm1(math.log(target) / n)

    # P[X = j] in Loader's saddle-point form (as R's dbinom): no lgamma of n,
    # whose rounding grows with n
    def stirlerr(m: int) -> float:  # log(m!) - log(sqrt(2 pi m) (m/e)^m)
        if m <= 15:
            return math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2.0 * math.pi)
        mm = m * m
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m

    def bd0(x: float, mean: float) -> float:  # x log(x/mean) + mean - x, without cancellation
        v = (x - mean) / (x + mean)
        if abs(v) >= 0.1:
            return x * math.log(x / mean) + mean - x
        return (x - mean) * v + 2.0 * x * sum(v**j / j for j in range(19, 1, -2))  # v^21 term < 1e-18 v^3

    def log_pmf(j: int, p: float, q: float) -> float:  # log P[X = j], 0 < j <= n
        if j == n:
            return n * math.log1p(-q)
        lc = stirlerr(n) - stirlerr(j) - stirlerr(n - j) - bd0(j, n * p) - bd0(n - j, n * q)
        return lc - 0.5 * math.log(2.0 * math.pi * j * (n - j) / n)

    def beta_cf(a: float, b: float, x: float) -> float:  # fast for x < (a + 1)/(a + b + 2)
        c, d = 1.0, 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or 1e-300)
        h = d
        for m in range(1, 1 << 20):
            for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                       -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
                d, c = 1.0 / ((1.0 + aa * d) or 1e-300), (1.0 + aa / c) or 1e-300
                h *= d * c
            if abs(d * c - 1.0) < 1e-15:
                return h
        raise ArithmeticError("continued fraction did not converge")

    # P[X <= k] = I_{1-p}(n - k, k + 1), from the side where its fraction converges fast;
    # sqrt(-2 log P[X <= k]) grows about linearly in p, which suits false position
    def g(p: float) -> float:
        q = 1.0 - p
        if q * (n + 3) < n - k + 1:
            log_cdf = math.log(p) + log_pmf(k, p, q) + math.log(beta_cf(n - k, k + 1, q))
        else:
            log_cdf = math.log1p(-q * math.exp(log_pmf(k + 1, p, q)) * beta_cf(k + 1, n - k, p))
        return math.sqrt(max(0.0, -2.0 * log_cdf)) - aim

    aim = math.sqrt(-2.0 * math.log(target))
    # k/n is a median of X, so the CDF there is at least 1/2; at p = 0 it is 1
    lo, glo = (k / n, math.sqrt(2.0 * math.log(2.0)) - aim) if target < 0.5 else (0.0, -aim)
    hi = min(k / n + aim * math.sqrt(k * (n - k) / n) / n + aim * aim / n, 0.5 + 0.5 * k / n)
    while (ghi := g(hi)) < 0.0:
        lo, glo, hi = hi, ghi, 0.5 + 0.5 * hi
        if hi == 1.0:  # the bound lies within an ulp of 1
            return 1.0
    side, tol = 0, 1e-10  # Illinois: the value at an end kept twice is halved
    while hi - lo > tol * hi:
        p = min(max(hi - ghi * (hi - lo) / (ghi - glo), lo + 0.4 * tol * hi), hi - 0.4 * tol * hi)
        if (gp := g(p)) >= 0.0:
            hi, ghi, glo, side = p, gp, glo * 0.5 if side > 0 else glo, 1
        else:
            lo, glo, ghi, side = p, gp, ghi * 0.5 if side < 0 else ghi, -1
    return hi


class IdealForm(Record, eq=False):
    """Ideal-state template: uniform key tensor one fixed register.

    ``p_perp`` of the mass sits on the abort branch with register
    ``rho_dblprime``; the rest is uniform over all keys, c = (1 - p_perp) / 2^l
    on each key of an l-bit register, with the single register state
    ``rho_prime``.  The secrecy figures read the form itself: rho' is one
    matrix that each batch of keys indexes, never 2^l copies of it.
    """

    p_perp: float
    rho_prime: DensityOperator
    rho_dblprime: DensityOperator

    def __post_init__(self):
        if not 0.0 <= self.p_perp <= 1.0:
            raise ValueError("p_perp must lie in [0, 1]")
        if self.rho_prime.dim != self.rho_dblprime.dim:
            raise ValueError("register dimensions differ")

    def to_cq(self, key_len: int) -> CqState:
        """Materialise the template as a cq-state over ``key_len`` bits, one copy of
        ``rho_prime`` per key.  No command calls it: it is the dense oracle that the
        tests hold the one-matrix figures to, bit for bit."""
        branches: dict[str, tuple[float, DensityOperator]] = {}
        key_mass = 1.0 - self.p_perp
        if key_mass > 0.0:
            p = key_mass / 2**key_len
            for label in _bit_strings(key_len):
                branches[label] = (p, self.rho_prime)
        if self.p_perp > 0.0:
            branches[PERP] = (self.p_perp, self.rho_dblprime)
        return CqState(key_len=key_len, branches=branches)


def _ideal(cq: CqState, form: IdealForm | None = None) -> _Pair:
    """``cq`` laid out against the ideal ``form`` on its key register, by default the canonical
    one: the branches of :meth:`IdealForm.to_cq`, read from the ``stack`` (rho', rho'') of the
    two matrices in their common dtype, as the copies would be, index 0 on keys, 1 on abort."""
    form = form or canonical_ideal(cq)
    key_mass = 1.0 - form.p_perp
    keys = _bit_strings(cq.key_len) if key_mass > 0.0 else []
    abort = [PERP] if form.p_perp > 0.0 else []
    probs = np.array([key_mass / 2**cq.key_len] * len(keys) + [form.p_perp] * len(abort))
    stack = np.array([form.rho_prime.matrix, form.rho_dblprime.matrix])
    return _pair(cq, (*keys, *abort), probs, stack, [0] * len(keys) + [1] * len(abort))


def canonical_ideal(cq: CqState) -> IdealForm:
    """Canonical ideal template for a given cq-state.

    Keeps the input's abort mass, replaces the keyed branches by their
    probability-weighted average register (fully mixed when no key mass
    exists), and reuses the input's abort register (fully mixed when
    there is none).  This pins down one explicit member of the ideal
    family; the distance to it upper-bounds the true secrecy epsilon.
    Its register rho' is one ``(d, d)`` matrix, whatever the key length.
    """
    keyed = len(cq.labels) - (cq.labels[-1] == PERP)
    key_mass = float(_ordered_sum(cq.probs[:keyed], 0)) if keyed else 0.0  # left to right, as sum did before 3.12
    if key_mass > 1e-12:
        # the weighted sum in label order, as a loop over the branches adds it,
        # a few branches at a time; each chunk's first term adds the running sum
        probs, matrices, acc = cq.probs[:keyed, None, None], cq.matrices[:keyed], None
        for part in _chunks(keyed, cq.dim):
            weighted = probs[part] * matrices[part]
            if acc is not None:
                weighted[0] += acc
            acc = _ordered_sum(weighted, 0)
        rho_prime = DensityOperator(acc / key_mass)
    else:
        rho_prime = DensityOperator.fully_mixed(cq.dim)
    if cq.p_perp > 0.0:
        rho_dblprime = DensityOperator._view(cq.matrices[-1])  # the validated abort register
    else:
        rho_dblprime = DensityOperator.fully_mixed(cq.dim)
    return IdealForm(p_perp=cq.p_perp, rho_prime=rho_prime, rho_dblprime=rho_dblprime)


def secrecy_eps_upper(cq: CqState) -> float:
    """Trace distance from the cq-state to its canonical ideal."""
    return _distance(cq, _ideal(cq))


def _distance(cq: CqState, ideal: _Pair) -> float:
    """:func:`~qkdlab.quantum_core.cq_trace_distance` from ``cq`` to the side of its pair ``ideal``,
    from the eigenvalues of their gaps, a batch of labels at a time."""
    return _block_distance(gap for _, gap in _gaps(cq, ideal, _STACK_CHUNK))


def strategy_acceptance(cq: CqState, strategy: Strategy) -> float:
    """Exact acceptance probability ``sum_b p_b tr(M_b rho_b)``, M_b the strategy's effect on label b."""
    if strategy.effects.shape[1] != cq.dim:
        raise ValueError(f"dimension mismatch: state {cq.dim}, strategy {strategy.effects.shape[1]}")
    return _acceptance(strategy, cq.labels, cq.probs, cq.matrices.__getitem__)


def _acceptance(strategy: Strategy, labels: Sequence[str], probs: np.ndarray, stack: Callable) -> float:
    # the acceptance of the branches (labels[b], probs[b], stack(part)[b]), a batch of them at a time
    effects = strategy.effects
    rows = _rows(strategy.labels, labels)
    if rows.min() < 0:
        raise ValueError(f"strategy {strategy.name!r} has no effect for label {labels[rows.argmin()]!r}")
    # tr(M rho) = sum_ij M_ij conj(rho_ij) for a Hermitian rho
    parts = _chunks(len(rows), effects.shape[1], _BATCH)
    traces = [np.einsum("bij,bij->b", effects[rows[p]], stack(p).conj()).real for p in parts]
    return float(probs @ np.concatenate(traces))


def _advantage(cq: CqState, ideal: _Pair, strategy: Strategy) -> float:
    # the acceptance gap between cq and the ideal's cq-state, whose branches are the labels
    # the ideal gives a probability, read from rho' and rho''
    own = np.flatnonzero(ideal.q > 0.0)
    labels = [ideal.labels[k] for k in own]
    ideal_acceptance = _acceptance(strategy, labels, ideal.q[own], lambda part: ideal.stack[ideal.index[own[part]]])
    return strategy_acceptance(cq, strategy) - ideal_acceptance


def secrecy_eps_lower(cq: CqState, strategies: Sequence[Strategy]) -> float:
    """Best exact distinguishing advantage against the canonical ideal.

    Every strategy is a physically realisable distinguisher, so its
    advantage cannot exceed the trace distance to the canonical ideal
    (:func:`secrecy_eps_upper`); the two are computed by different
    roundings, so the result is clamped to that distance.  The true secrecy
    epsilon is the distance to the *closest* ideal state, which can lie below
    this figure, so it is not yet a certified lower bound on epsilon.
    Computed by exact enumeration, no sampling.
    """
    ideal = _ideal(cq)
    lower = _lower_end([_advantage(cq, ideal, s) for s in strategies])
    return min(lower, _distance(cq, ideal))


def _lower_end(advantages: Sequence[float]) -> float:
    if not advantages:
        raise ValueError("need at least one strategy")
    return min(1.0, max(0.0, max(advantages)))


def _optimal_strategy(name: str, cq: CqState, ideal: _Pair, bases: Callable | None) -> Strategy:
    """The strategy that accepts outcome z on label k where ``tr(E_z (p_k rho_k - q_k
    sigma_k)) > 0``, i.e. where the real state's (label, outcome) table exceeds the
    ideal's, a missing label weighing 0.  The effects are ``weight |v_z><v_z|`` for the
    rows and weights ``v, weight = bases(labels)`` of a batch of labels: the orthogonal
    rows of one ``(d, d)`` basis or of a ``(b, d, d)`` stack of them, one per label, each
    row of squared norm ``1 / weight`` (a scalar or a ``(b, 1)`` column), so a per-label
    basis exists only for its batch.  None is the trivial measurement, its one effect I."""
    trivial = Povm((("0", np.eye(cq.dim)),)) if bases is None else None
    effects = None
    for part, gap in _gaps(cq, ideal, _BATCH):
        if bases is None:
            m = np.tensordot(born_table(gap, trivial) > 0.0, trivial.stacked(), 1)
        else:
            v, weight = bases(ideal.labels[part])
            accept = np.einsum("...kj,...kj->...k", v.conj() @ gap, v).real > 0.0  # <v_z| X |v_z> > 0
            m = (np.swapaxes(v, -1, -2) * (accept * weight)[:, None, :]) @ v.conj()
        if effects is None:
            effects = np.empty((len(ideal.labels), *m.shape[1:]), dtype=m.dtype)
        effects[part] = m
    return Strategy(name, ideal.labels, effects)


def _haar_basis(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is Haar
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q.T.conj()


# BB84 basis rows of squared norm 2^bit: bit 0 computational, 1 diagonal (qubit_basis times sqrt 2)
_BB84_ROWS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [-1.0, 1.0]]])


def _label_bases(labels: Sequence[str], nq: int) -> tuple[np.ndarray, np.ndarray]:
    """The product bases that read the first ``nq`` qubits' BB84 bases off each key label
    (computational for PERP), with their weights as :func:`_optimal_strategy` takes them;
    the rows are 0/1/-1 vectors, so every sum of effects comes out exact."""
    bits = np.array([[b == "1" for b in label[:nq]] if label != PERP else [False] * nq for label in labels])
    return _kron_rows(_BB84_ROWS[bits.astype(np.intp)]), 0.5 ** bits.sum(axis=1, keepdims=True)


def default_strategies(cq: CqState, num_random: int = 8, seed: int = 0) -> list[Strategy]:
    """A reasonable stock of distinguishers for ``secrecy_eps_lower``.

    Includes the classical-register-only test (trivial measurement plus
    the optimal label rule), the label-conditioned per-qubit measurement
    that reads the first qubits' bases off the key label (this is what
    breaks basis-encoded states), and ``num_random`` Haar-random basis
    measurements, each with the optimal rule for the canonical ideal.
    """
    ideal = _ideal(cq)
    return [_optimal_strategy(name, cq, ideal, bases) for name, bases in _default_rules(cq, num_random, seed)]


def _default_rules(cq: CqState, num_random: int, seed: int) -> Iterator[tuple[str, Callable | None]]:
    """The names of :func:`default_strategies`, in order, each with the bases it measures a batch
    of labels in, ``bases(labels)`` the rows and weights that :func:`_optimal_strategy` takes;
    None for the trivial measurement.  A Haar basis is drawn when its rule is reached."""
    dim, nq = cq.dim, cq.dim.bit_length() - 1
    yield "trivial", None
    if dim == 2**nq and 1 <= nq <= cq.key_len:
        yield "label_basis", lambda labels: _label_bases(labels, nq)
    rng = np.random.default_rng(seed)
    for i in range(num_random):
        yield f"haar:{i}", lambda labels, v=_haar_basis(dim, rng): (v, 1.0)


def _default_advantages(
    cq: CqState, ideal: _Pair, num_random: int, seed: int, *, upper: float = math.inf
) -> Iterator[float]:
    """The advantage against ``ideal`` of each of :func:`default_strategies`, one at a time.

    The stock is built and scored in order: trivial, label-basis, then Haar.  Once
    an advantage reaches ``upper`` (a known upper end, such as the trace distance to
    ``ideal``) no more is built, since no advantage can move a lower end clamped to
    ``upper``; the Haar bases drawn are those of the full stock.  Each strategy is
    dropped once scored, so one effect stack is alive at a time.
    """
    for name, bases in _default_rules(cq, num_random, seed):
        advantage = _advantage(cq, ideal, _optimal_strategy(name, cq, ideal, bases))
        yield advantage
        if advantage >= upper:
            return


class IaccSearchResult(Record):
    """Outcome of an accessible-information search (a lower bound)."""

    bits: float
    family: tuple[str, ...]
    best_strategy: str
    evaluations: int


# Scores up to this many bits are rounding noise (a fully mixed register
# shows 9e-16) and count as 0: rounding a lower bound down keeps it certified.
IACC_FLOOR_BITS = 1e-12

# The per-qubit family is enumerated while its estimated work stays under this,
# else sampled; accessible_info_lower reads it at each call.
EXHAUSTIVE_WORK_CAP = 10**9


def accessible_info_lower(
    cq: CqState,
    search_budget: int = 64,
    rng_seed: int = 0,
    families: Sequence[str] = IACC_FAMILIES,
) -> IaccSearchResult:
    """Lower-bound the accessible information ``max_Z I(S : Z)`` by search.

    Of the families in ``families``, the search runs ``per_qubit``: products of
    computational / diagonal / Breidbart single-qubit bases, when the register is a
    qubit register.  Its 3^n members are enumerated while the estimated work stays
    under ``EXHAUSTIVE_WORK_CAP``; beyond that, ``search_budget`` of them are sampled.
    ``declared`` names a measurement that a state's builder scores itself, in closed
    form (``attack_lab.secrecy_reports``); the search has none to score, so it skips it.

    Each member is scored once, in enumeration order, by the exact mutual
    information of its dense Born table (:func:`cq_measure`), so the maximum
    found is a certified lower bound on the accessible information; of equal
    scores the first is kept.  Only scores above ``IACC_FLOOR_BITS`` count;
    when none does, the result is 0.0 bits with strategy ``"none"``.
    """
    if search_budget <= 0:
        raise ValueError("search_budget must be positive")
    if cq.dim > DEFAULT_DIM_CAP:
        raise ValueError(f"register dimension {cq.dim} exceeds cap {DEFAULT_DIM_CAP}")
    check_families(families)

    best_bits, best_desc, evaluations, searched = IACC_FLOOR_BITS, "none", 0, ()
    nq = cq.dim.bit_length() - 1
    if "per_qubit" in families and cq.dim == 2**nq and nq >= 1:
        basis_names = list(QUBIT_BASIS_ANGLES)
        work = (3**nq) * len(cq.labels) * (2**nq) * cq.dim
        if work <= EXHAUSTIVE_WORK_CAP:
            searched = ("per_qubit_exhaustive",)
            assignments = list(itertools.product(basis_names, repeat=nq))
        else:
            searched = ("per_qubit_sampled",)
            rng = np.random.default_rng(rng_seed)
            assignments = [tuple(basis_names[i] for i in rng.integers(0, 3, size=nq)) for _ in range(search_budget)]
        evaluations = len(assignments)
        for names in assignments:
            bits = mutual_information(cq_measure(cq, product_qubit_povm([QUBIT_BASIS_ANGLES[b] for b in names])))
            if bits > best_bits:
                best_bits, best_desc = bits, "per_qubit:" + ",".join(names)

    return IaccSearchResult(
        bits=0.0 if best_desc == "none" else best_bits,
        family=searched,
        best_strategy=best_desc,
        evaluations=evaluations,
    )


def ben_or_sufficient_eps(iacc_bits: float, key_len: int) -> float:
    """Smallest epsilon certified by an accessible-information bound.

    Inverts the sufficiency condition ``iacc <= 2^-(key_len + 2) *
    eps^2``: a key whose accessible information is below that threshold
    is eps-secret.  Clamped to 1 when no epsilon in [0, 1] is certified.
    """
    if not iacc_bits >= 0:
        raise ValueError("iacc_bits must be nonnegative")
    if key_len < 0:
        raise ValueError("key_len must be nonnegative")
    return min(1.0, math.sqrt(iacc_bits * 2.0 ** (key_len + 2)))


def compose_report(eps_correct: float, eps_secret: float, eps_robust: float) -> float:
    """Union-bound total epsilon, clamped to 1."""
    for name, value in (("eps_correct", eps_correct), ("eps_secret", eps_secret), ("eps_robust", eps_robust)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value!r} outside [0, 1]")
    return min(1.0, eps_correct + eps_secret + eps_robust)


class SecurityReport(JsonRecord):
    """Bundle of the security figures for one produced key."""

    JSON_TYPE = "security_report"

    key_len: int
    eps_correct: float
    eps_robust: float
    eps_secret_lower: float
    eps_secret_upper: float
    iacc_lower_bits: float
    eps_total: float
    provenance: Mapping[str, Any] = MappingProxyType({})

    def __post_init__(self):
        for name in ("eps_correct", "eps_robust", "eps_secret_lower", "eps_secret_upper", "eps_total"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value!r} outside [0, 1]")
        if self.eps_secret_lower > self.eps_secret_upper + 1e-9:
            raise ValueError("secrecy lower bound exceeds upper bound")
        if not -1e-9 <= self.iacc_lower_bits <= self.key_len + 1e-9:
            raise ValueError("iacc_lower_bits outside [0, key_len]")
        object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))


def evaluate_cq_security(
    cq: CqState,
    *,
    num_random_strategies: int = 8,
    search_budget: int = 64,
    seed: int = 0,
    iacc_families: Sequence[str] = IACC_FAMILIES,
    correctness=None,
) -> SecurityReport:
    """Assemble a full :class:`SecurityReport` for a cq-state.

    Correctness needs the joint distribution (or samples) of both
    parties' outputs, which a cq-state over one party does not carry;
    pass it via ``correctness`` or it is reported as 0 with a note in
    the provenance.  The total epsilon uses the conservative end of the
    secrecy bracket.

    The secrecy bracket is taken against the canonical ideal
    (:func:`canonical_ideal`); the state is laid out against it once
    (:func:`_ideal`), and every secrecy figure reads that layout.  The
    :func:`default_strategies` stock is scored in order only until an
    advantage reaches the trace distance (the upper end), so
    ``num_random_strategies`` and ``seed`` matter only while the secrecy
    bracket is open; ``strategy_count`` in the provenance counts the
    strategies scored.  The I_acc lower end is :func:`accessible_info_lower`
    over ``iacc_families``, whose families, best strategy, budget and seed
    the provenance names.  No command calls the evaluator: it is the
    general dense path, and ``attack_lab.secrecy_reports`` scores the attack
    key from closed forms.
    """
    # malformed correctness figures fail before any epsilon work
    correct = correctness_figures(correctness)
    ideal = _ideal(cq)
    upper = _distance(cq, ideal)
    advantages = list(_default_advantages(cq, ideal, num_random_strategies, seed, upper=upper))
    iacc = accessible_info_lower(cq, search_budget, seed, iacc_families)
    return _report(cq.key_len, correct, cq.p_perp, upper, advantages, iacc, math.inf,
                   {"search_budget": search_budget, "seed": seed})


def _report(
    key_len: int,
    correctness: tuple[float, str],
    eps_r: float,
    upper: float,
    advantages: Sequence[float],
    iacc: IaccSearchResult,
    iacc_upper: float,
    search: dict[str, int],
) -> SecurityReport:
    """The :class:`SecurityReport` of figures scored elsewhere, by :func:`evaluate_cq_security` or
    from one branch per orbit (``attack_lab.secrecy_reports``): ``correctness`` the pair of
    :func:`correctness_figures`, the trace distance ``upper`` to the ideal, the ``advantages``
    scored, and the I_acc search ``iacc``, whose figure is clamped to ``iacc_upper``, a known
    upper end on the accessible information (``math.inf`` where none is known), and ``search``
    the search's parameters that the provenance names: its budget and seed, or the seed alone
    where nothing was sampled."""
    eps_c, source = correctness
    return SecurityReport(
        key_len=key_len,
        eps_correct=eps_c,
        eps_robust=eps_r,
        eps_secret_lower=min(_lower_end(advantages), upper),
        eps_secret_upper=upper,
        iacc_lower_bits=min(iacc.bits, float(key_len), iacc_upper),
        eps_total=compose_report(eps_c, upper, eps_r),
        provenance={
            "strategy_count": len(advantages),
            "iacc_family": list(iacc.family),
            "iacc_best_strategy": iacc.best_strategy,
            "iacc_evaluations": iacc.evaluations,
            **search,
            "correctness_source": source,
        },
    )
