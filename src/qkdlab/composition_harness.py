"""Composable-security checks on small classical protocol pairs.

Everything here works on pairs of sampleable systems, a real one and an
ideal one.  A system draws many trials per call, as 0/1 arrays with one
row per trial, and a distinguisher decides a batch of rows in one call:
an exact advantage sums the probabilities of the accepted rows of a
:class:`SampleTable` (built on first use, for samples at most 21 bits
wide), a Monte Carlo one counts the accepted rows of each drawn chunk.
The harness verifies the additive composition bound through the
standard hybrid argument: for a key source with distance eps_source and
an application with distance eps_app, every distinguisher's advantage
against the composed system is bounded by eps_source + eps_app, because
the middle hybrid (real application on the ideal key) telescopes the
total difference into two single-step differences.

The module also carries the counterexample machinery: the encode-the-pad
key of :mod:`~qkdlab.attack_lab` used as a one-time pad
(:func:`attack_otp_advantage`, whose real world is the attack's own
rounds), where the pad-parity check achieves advantage 1/2 against a
source from which per-qubit measurements learn at most 2^-n bits, and a
textbook RSA malleability toy showing the same compositional failure
for computational assumptions.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from ._json import JsonRecord, Record, field
from .attack_lab import _bit_rows, _bits_from, _chunk_rows, _otp_rounds
from .security_metrics import _cp_upper

__all__ = [
    "Sample",
    "SampleTable",
    "ProtocolPair",
    "KeyApplication",
    "Distinguisher",
    "AdvantageEstimate",
    "DistinguisherRow",
    "CompositionReport",
    "estimate_advantage",
    "exact_optimal_advantage",
    "compose",
    "verify_composition_bound",
    "perfect_key_source",
    "biased_key_source",
    "iid_bits_total_variation",
    "otp_application",
    "otp_majority_zeros_distinguisher",
    "attack_otp_advantage",
    "AuctionOutcome",
    "AuctionSweep",
    "is_probable_prime",
    "rsa_malleability_demo",
    "rsa_auction_sweep",
]

# A sample is (output key bits, adversary view).  Distinguishers see both:
# for a key source the composable claim is exactly that key-plus-view is
# indistinguishable from uniform-plus-view.
Sample = tuple[str, tuple]  # one sample as bitstrings, as SampleTable.items gives it
# Samples are the same layout for many trials, one row per trial: a
# (trials, key bits) 0/1 array and a tuple of (trials, width) 0/1 arrays.
Samples = tuple[np.ndarray, tuple[np.ndarray, ...]]
Decide = Callable[[np.ndarray, tuple[np.ndarray, ...]], np.ndarray]

_DIST_SUM_TOL = 1e-9
_EXACT_MAX_BITS = 21  # exact tables are built for samples this wide at most


def _row_codes(bits: np.ndarray) -> np.ndarray:
    """One opaque code per row of a 0/1 array: the row packed into bytes."""
    packed = np.packbits(bits, axis=1) if bits.shape[1] else np.zeros((len(bits), 1), np.uint8)
    return packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]


def _code_bits(codes: np.ndarray, width: int) -> np.ndarray:
    """The ``width``-bit 0/1 rows behind ``codes``, as uint8."""
    return np.unpackbits(codes.view(np.uint8).reshape(len(codes), -1), axis=1, count=width)


def _merge(codes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct code once, with the summed weight of its copies."""
    codes, inverse = np.unique(codes, return_inverse=True)
    return codes, np.bincount(inverse, weights=weights, minlength=len(codes))


class SampleTable(Record, eq=False):
    """An exact distribution: distinct samples (packed row codes, the key
    and then each view ``widths`` bits wide) with their probabilities."""

    codes: np.ndarray
    weights: np.ndarray
    widths: tuple[int, ...]

    def items(self) -> Iterator[tuple[Sample, float]]:
        width = sum(self.widths)
        text = (_code_bits(self.codes, width) + ord("0")).tobytes().decode("ascii")
        edges = np.cumsum((0, *self.widths)).tolist()
        for i, weight in enumerate(self.weights.tolist()):
            row = text[i * width : (i + 1) * width]
            key, *view = (row[a:b] for a, b in zip(edges, edges[1:]))
            yield (key, tuple(view)), weight


def _table(bits: np.ndarray, weights, widths: Sequence[int]) -> SampleTable:
    """The rows of the 0/1 array ``bits`` with their ``weights``; the rows
    must be distinct and in code order (lexicographic), as ``_merge`` leaves them."""
    return SampleTable(_row_codes(bits), np.full(len(bits), weights, dtype=np.float64), tuple(widths))


class ProtocolPair(Record):
    """A real/ideal pair of systems emitting (key, view) samples.

    ``real_run(rng, trials)``/``ideal_run(rng, trials)`` draw ``trials``
    samples as :data:`Samples` arrays, one row per trial; zero trials
    draw nothing and give the layout.  ``build_exact()``, if given,
    returns the exact real and ideal distributions as :class:`SampleTable`
    objects; it runs on the first read of ``real_dist``/``ideal_dist``,
    and only for samples at most 21 bits wide, which else read None.
    """

    name: str
    output_len: int
    declared_eps: float
    real_run: Callable[[np.random.Generator, int], Samples]
    ideal_run: Callable[[np.random.Generator, int], Samples]
    build_exact: Callable[[], tuple[SampleTable, SampleTable]] | None = None

    def __post_init__(self):
        if not 0.0 <= self.declared_eps <= 1.0:
            raise ValueError("declared_eps must lie in [0, 1]")
        if self.output_len < 0:
            raise ValueError("output_len must be nonnegative")

    @property
    def has_exact_dists(self) -> bool:
        """A builder is given and a sample is at most 21 bits wide."""
        if self.build_exact is None:
            return False
        key, views = self.real_run(np.random.default_rng(0), 0)
        return key.shape[1] + sum(v.shape[1] for v in views) <= _EXACT_MAX_BITS

    @functools.cached_property
    def _exact(self) -> tuple[SampleTable | None, SampleTable | None]:
        if not self.has_exact_dists:
            return None, None
        tables = self.build_exact()
        for table, world in zip(tables, ("real", "ideal")):
            total = math.fsum(table.weights.tolist())
            if abs(total - 1.0) > _DIST_SUM_TOL:
                raise ValueError(f"{self.name} {world}_dist sums to {total}, expected 1")
        return tables

    @property
    def real_dist(self) -> SampleTable | None:
        return self._exact[0]

    @property
    def ideal_dist(self) -> SampleTable | None:
        return self._exact[1]


class KeyApplication(Record):
    """A protocol consuming a key, given as key-conditioned real/ideal runs.

    ``real_run(keys, rng)`` maps a (trials, key_len) 0/1 key array to
    the adversary views of the real application, a tuple of (trials,
    width) 0/1 arrays; ``ideal_run(keys, rng)`` gives the views of its
    ideal functionality (which typically ignores the keys).  The
    optional ``*_dist_given_keys(keys)`` give the exact views of all key
    rows at once: ``(key_rows, views, weights)``, view row j having
    probability ``weights[j]`` given key row ``key_rows[j]``.
    """

    name: str
    key_len: int
    declared_eps: float
    real_run: Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, ...]]
    ideal_run: Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, ...]]
    real_dist_given_keys: Callable[[np.ndarray], tuple] | None = None
    ideal_dist_given_keys: Callable[[np.ndarray], tuple] | None = None

    def __post_init__(self):
        if not 0.0 <= self.declared_eps <= 1.0:
            raise ValueError("declared_eps must lie in [0, 1]")
        if self.key_len < 0:
            raise ValueError("key_len must be nonnegative")


class Distinguisher(Record):
    """A named test: ``decide(keys, views)`` takes :data:`Samples`, gives one bool per row."""

    name: str
    decide: Decide


class AdvantageEstimate(JsonRecord):
    """|P_real(accept) - P_ideal(accept)| and its ``half_width``: the
    advantage minus its certified lower end (0 in exact mode)."""

    advantage: float
    half_width: float
    accept_real: float
    accept_ideal: float
    mode: str
    trials: int


def _accepted(decide: Decide, keys: np.ndarray, views: tuple[np.ndarray, ...]) -> np.ndarray:
    """``decide`` on a batch, checked to give one flag per row."""
    accept = np.asarray(decide(keys, views), dtype=bool)
    if accept.shape != (len(keys),):
        raise ValueError(f"decide must return one flag per row ({len(keys)}), got shape {accept.shape}")
    return accept


def _accept_prob(table: SampleTable, decide: Decide) -> float:
    """Total weight of the samples of ``table`` that ``decide`` accepts."""
    bits = _code_bits(table.codes, sum(table.widths))
    key, *views = np.split(bits, np.cumsum(table.widths)[:-1], axis=1)
    accept = _accepted(decide, key, tuple(views))
    return math.fsum(table.weights[accept & (table.weights > 0.0)].tolist())


def _accept_count_sampled(
    run: Callable[[np.random.Generator, int], Samples],
    decide: Decide,
    trials: int,
    rng: np.random.Generator,
) -> int:
    """How many of ``trials`` samples of ``run`` ``decide`` accepts.

    Samples are drawn and decided a chunk of rows at a time, so memory
    does not grow with ``trials``.
    """
    key, views = run(rng, 0)
    rows = _chunk_rows(key.shape[1] + sum(v.shape[1] for v in views))
    hits = 0
    for start in range(0, trials, rows):
        hits += int(np.count_nonzero(_accepted(decide, *run(rng, min(rows, trials - start)))))
    return hits


_FAMILY_ERROR = 1e-6  # the chance that one sampled call reports any violation that is not there


def _half_width(hits_a: int, hits_b: int, trials: int, rows: int) -> float:
    """|p_a - p_b| from the hit counts of two worlds minus its certified lower
    end max(L_a - U_b, L_b - U_a, 0), by exact one-sided Clopper-Pearson ends.
    A row reads four ends, a lower and an upper one per world (the observed
    sign picks the pair, and only that pair can be positive); Bonferroni
    gives each end of the ``rows`` rows an equal share of _FAMILY_ERROR."""
    low, high = sorted((hits_a, hits_b))
    conf = 1.0 - _FAMILY_ERROR / (4 * rows)
    lower = max(0.0, 1.0 - _cp_upper(trials - high, trials, conf) - _cp_upper(low, trials, conf))
    return abs(hits_a / trials - hits_b / trials) - lower


def _exact_estimate(p_r: float, p_i: float) -> AdvantageEstimate:
    """The estimate from the exact acceptance probabilities of the real and ideal worlds."""
    return AdvantageEstimate(abs(p_r - p_i), 0.0, p_r, p_i, "exact", 0)


def _sampled_estimate(k_r: int, k_i: int, trials: int) -> AdvantageEstimate:
    """The estimate from the accepted counts of ``trials`` samples of the real and ideal worlds."""
    p_r, p_i = k_r / trials, k_i / trials
    return AdvantageEstimate(abs(p_r - p_i), _half_width(k_r, k_i, trials, 1), p_r, p_i, "sample", trials)


def _mode(mode: str, exact: bool, name: str, rng: np.random.Generator | None, trials: int) -> str:
    """``mode`` with ``"auto"`` resolved (exact when the system ``name`` has
    ``exact`` distributions), checked to have what it needs."""
    if mode == "auto":
        mode = "exact" if exact else "sample"
    if mode == "exact" and not exact:
        raise ValueError(f"{name} has no exact distributions")
    if mode == "sample" and rng is None:
        raise ValueError("sampling mode needs an rng")
    if mode == "sample" and trials < 100:
        raise ValueError("need at least 100 trials per world")
    if mode not in ("exact", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def estimate_advantage(
    pair: ProtocolPair,
    distinguisher: Distinguisher | Decide,
    mode: str = "auto",
    trials: int = 10_000,
    rng: np.random.Generator | None = None,
) -> AdvantageEstimate:
    """Advantage of one distinguisher against a pair.

    ``mode`` is ``"exact"`` (requires the pair's distributions),
    ``"sample"`` (Monte Carlo, requires an rng), or ``"auto"`` which
    picks exact when available.
    """
    decide = distinguisher.decide if isinstance(distinguisher, Distinguisher) else distinguisher
    if _mode(mode, pair.has_exact_dists, pair.name, rng, trials) == "exact":
        return _exact_estimate(_accept_prob(pair.real_dist, decide), _accept_prob(pair.ideal_dist, decide))
    r_real, r_ideal = rng.spawn(2)
    k_r = _accept_count_sampled(pair.real_run, decide, trials, r_real)
    k_i = _accept_count_sampled(pair.ideal_run, decide, trials, r_ideal)
    return _sampled_estimate(k_r, k_i, trials)


def exact_optimal_advantage(pair: ProtocolPair) -> float:
    """Total variation distance between the pair's exact distributions.

    This is the advantage of the best possible distinguisher, so every
    :func:`estimate_advantage` exact value is bounded by it.
    """
    if not pair.has_exact_dists:
        raise ValueError(f"{pair.name} has no exact distributions")
    real, ideal = pair.real_dist, pair.ideal_dist
    # p - q per sample of the union: a code of only one table gets p or -q
    _, diff = _merge(np.concatenate((real.codes, ideal.codes)), np.concatenate((real.weights, -ideal.weights)))
    return 0.5 * math.fsum(np.abs(diff).tolist())


def _convolve(table: SampleTable, views_given_keys: Callable[[np.ndarray], tuple]) -> SampleTable:
    """A source's exact ``table`` with an application's exact views appended."""
    bits = _code_bits(table.codes, sum(table.widths))
    rows, views, weights = views_given_keys(bits[:, : table.widths[0]])
    widths = table.widths + tuple(v.shape[1] for v in views)
    codes = _row_codes(np.concatenate((bits[rows], *views), axis=1))
    return SampleTable(*_merge(codes, table.weights[rows] * weights), widths)


def _composed_runner(
    source_run: Callable[[np.random.Generator, int], Samples],
    app_run: Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, ...]],
) -> Callable[[np.random.Generator, int], Samples]:
    def run(rng: np.random.Generator, trials: int) -> Samples:
        keys, views = source_run(rng, trials)
        return keys, views + app_run(keys, rng)

    return run


def compose(source: ProtocolPair, app: KeyApplication) -> ProtocolPair:
    """Application stacked on a key source, with the additive epsilon claim.

    The composed real system feeds the real key into the real
    application; the composed ideal feeds the ideal key into the ideal
    functionality.  The declared epsilon is min(1, eps_source + eps_app),
    which is exactly the claim :func:`verify_composition_bound` checks.
    """
    if app.key_len != source.output_len:
        raise ValueError(
            f"{app.name} expects {app.key_len}-bit keys, {source.name} outputs {source.output_len}"
        )

    def build_exact() -> tuple[SampleTable, SampleTable]:
        return (
            _convolve(source.real_dist, app.real_dist_given_keys),
            _convolve(source.ideal_dist, app.ideal_dist_given_keys),
        )

    exact = source.build_exact and app.real_dist_given_keys and app.ideal_dist_given_keys
    return ProtocolPair(
        name=f"{app.name}_on_{source.name}",
        output_len=source.output_len,
        declared_eps=min(1.0, source.declared_eps + app.declared_eps),
        real_run=_composed_runner(source.real_run, app.real_run),
        ideal_run=_composed_runner(source.ideal_run, app.ideal_run),
        build_exact=build_exact if exact else None,
    )


class DistinguisherRow(JsonRecord):
    """Per-distinguisher outcome of a composition check.

    ``advantage_source_step`` is the distinguisher's advantage between
    the composed real system and the hybrid (real application on the
    ideal key); ``advantage_app_step`` between the hybrid and the
    composed ideal.  ``telescope_residual`` is the signed total
    difference minus the two signed step differences, identically zero
    up to float roundoff.  ``half_width`` is ``advantage_total`` minus its
    certified lower end (0 in exact mode).
    """

    name: str
    advantage_total: float
    half_width: float
    advantage_source_step: float
    advantage_app_step: float
    telescope_residual: float
    within_bound: bool


class CompositionReport(JsonRecord):
    JSON_TYPE = "composition_report"

    source: str
    application: str
    eps_source: float
    eps_app: float
    eps_bound: float
    mode: str
    trials: int
    rows: tuple[DistinguisherRow, ...]
    all_within_bound: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "all_within_bound", all(r.within_bound for r in self.rows))


def verify_composition_bound(
    source: ProtocolPair,
    app: KeyApplication,
    distinguishers: Sequence[Distinguisher],
    mode: str = "auto",
    trials: int = 20_000,
    rng: np.random.Generator | None = None,
) -> CompositionReport:
    """Check eps-additivity of composition against concrete distinguishers.

    For each distinguisher the acceptance probability is evaluated on
    three systems: composed real, the hybrid (real application, ideal
    key), and composed ideal.  The three pairwise differences then
    telescope, giving both the per-step advantages of the hybrid
    argument and the total advantage compared against
    min(1, eps_source + eps_app): a sampled row breaks the bound only when
    the certified lower end of its total advantage does (past a rounding
    slack of 1e-9).
    """
    if not distinguishers:
        raise ValueError("need at least one distinguisher")
    composed = compose(source, app)
    mode = _mode(mode, composed.has_exact_dists, composed.name, rng, trials)
    if mode == "exact":
        hybrid = _convolve(source.ideal_dist, app.real_dist_given_keys)
        worlds = (composed.real_dist, hybrid, composed.ideal_dist)
    else:
        hybrid_run = _composed_runner(source.ideal_run, app.real_run)
        worlds = (composed.real_run, hybrid_run, composed.ideal_run)

    bound = composed.declared_eps
    rows = []
    for d in distinguishers:
        if mode == "exact":
            p_rr, p_ir, p_ii = (_accept_prob(table, d.decide) for table in worlds)
            hw = 0.0
        else:
            runs = zip(worlds, rng.spawn(3))
            k_rr, k_ir, k_ii = (_accept_count_sampled(run, d.decide, trials, r) for run, r in runs)
            p_rr, p_ir, p_ii = k_rr / trials, k_ir / trials, k_ii / trials
            hw = _half_width(k_rr, k_ii, trials, len(distinguishers))
        total = p_rr - p_ii
        step_source = p_rr - p_ir
        step_app = p_ir - p_ii
        rows.append(
            DistinguisherRow(
                name=d.name,
                advantage_total=abs(total),
                half_width=hw,
                advantage_source_step=abs(step_source),
                advantage_app_step=abs(step_app),
                telescope_residual=total - step_source - step_app,
                within_bound=abs(total) <= bound + hw + 1e-9,
            )
        )
    return CompositionReport(
        source=source.name,
        application=app.name,
        eps_source=source.declared_eps,
        eps_app=app.declared_eps,
        eps_bound=bound,
        mode=mode,
        trials=0 if mode == "exact" else trials,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# stock sources, applications and distinguishers


def _random_bits(rng: np.random.Generator, trials: int, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=(trials, n))


# Every C(k, j) is a finite float up to this length; C(1030, 515) is past 2^1024
_TV_TERMS_MAX_LEN = 1029


def iid_bits_total_variation(key_len: int, p_zero: float) -> float:
    """Exact TV distance between iid-biased and uniform key strings.

    Grouped over the number j of zeros, so it stays cheap for any length: half the sum
    over j of C(k, j) |p^j (1 - p)^(k - j) - 2^-k|.  Past ``_TV_TERMS_MAX_LEN`` bits, where
    C(k, j) leaves the float range and 2^-k underflows, it is half the L1 distance
    between the laws of j, Binomial(k, p_zero) and Binomial(k, 1/2) (:func:`_binomial_pmf`).
    """
    if not 0.0 <= p_zero <= 1.0:
        raise ValueError("p_zero must lie in [0, 1]")
    if key_len > _TV_TERMS_MAX_LEN:
        return 0.5 * math.fsum(np.abs(_binomial_pmf(key_len, p_zero) - _binomial_pmf(key_len, 0.5)))
    u = 0.5**key_len
    return 0.5 * math.fsum(
        math.comb(key_len, j) * abs(p_zero**j * (1.0 - p_zero) ** (key_len - j) - u)
        for j in range(key_len + 1)
    )


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """P[j] of Binomial(n, p) for j = 0..n, with no factorial or power that could overflow or
    underflow: the ratios of successive terms are multiplied out from the mode, scaled to 1,
    in both directions and divided by their sum.  A term t steps from the mode is within
    about 3t ulps of its value, and the terms that carry the mass lie within a few sqrt(n)."""
    if p in (0.0, 1.0):
        return np.eye(1, n + 1, round(p * n))[0]  # j = 0 or j = n for sure
    j = np.arange(n + 1, dtype=float)
    mode, odds = min(n, math.floor((n + 1) * p)), p / (1.0 - p)
    up = np.cumprod((n - j[mode:-1]) / (j[mode:-1] + 1.0) * odds)  # P[j + 1] / P[mode]
    down = np.cumprod(j[mode:0:-1] / (n - j[mode:0:-1] + 1.0) / odds)  # P[j - 1] / P[mode]
    weights = np.concatenate((down[::-1], [1.0], up))
    return weights / math.fsum(weights)


def perfect_key_source(key_len: int) -> ProtocolPair:
    """Uniform keys in both worlds: declared epsilon 0, exactly achieved."""

    def run(rng: np.random.Generator, trials: int) -> Samples:
        return _random_bits(rng, trials, key_len), ()

    return ProtocolPair(
        name=f"perfect_key_{key_len}",
        output_len=key_len,
        declared_eps=0.0,
        real_run=run,
        ideal_run=run,
        build_exact=lambda: (_table(_bit_rows(key_len), 0.5**key_len, (key_len,)),) * 2,
    )


def biased_key_source(key_len: int, p_zero: float = 0.6) -> ProtocolPair:
    """iid-biased key bits against the uniform ideal.

    The declared epsilon is the exact total variation distance, which
    for a single bit with p_zero = 0.6 is 0.1.
    """

    def real(rng: np.random.Generator, trials: int) -> Samples:
        # a bit is 0 when its uniform draw falls below p_zero
        return (rng.random((trials, key_len)) >= p_zero).astype(np.int64), ()

    def ideal(rng: np.random.Generator, trials: int) -> Samples:
        return _random_bits(rng, trials, key_len), ()

    def build_exact() -> tuple[SampleTable, SampleTable]:
        keys = _bit_rows(key_len)
        # the probability of a key with j ones, computed once per j
        probs = np.array([p_zero ** (key_len - j) * (1.0 - p_zero) ** j for j in range(key_len + 1)])
        uniform = _table(keys, 0.5**key_len, (key_len,))
        return _table(keys, probs[keys.sum(axis=1)], (key_len,)), uniform

    return ProtocolPair(
        name=f"biased_key_{key_len}_p{p_zero}",
        output_len=key_len,
        declared_eps=iid_bits_total_variation(key_len, p_zero),
        real_run=real,
        ideal_run=ideal,
        build_exact=build_exact,
    )


def otp_application(message: str) -> KeyApplication:
    """One-time pad on a fixed known message; the view is the ciphertext.

    The ideal functionality broadcasts a uniform ciphertext.  With a
    uniform key the real ciphertext is uniform too, so the declared
    epsilon is 0 and composition puts the whole budget on the source.
    """
    if not message or set(message) - {"0", "1"}:
        raise ValueError("message must be a nonempty bitstring")
    n = len(message)
    m = np.array(list(message), dtype=np.uint8)

    def real(keys: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        return (keys ^ m,)

    def ideal(keys: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        return (_random_bits(rng, len(keys), n),)

    def real_given(keys: np.ndarray):
        return np.arange(len(keys)), (keys ^ m,), np.ones(len(keys))

    def ideal_given(keys: np.ndarray):
        ciphers = _bit_rows(n)
        rows = np.repeat(np.arange(len(keys)), len(ciphers))
        return rows, (np.tile(ciphers, (len(keys), 1)),), np.full(len(rows), 0.5**n)

    return KeyApplication(
        name=f"otp_{n}",
        key_len=n,
        declared_eps=0.0,
        real_run=real,
        ideal_run=ideal,
        real_dist_given_keys=real_given,
        ideal_dist_given_keys=ideal_given,
    )


def otp_majority_zeros_distinguisher(message: str) -> Distinguisher:
    """Accept when the key implied by the ciphertext is majority zeros.

    Against an iid zero-biased source this is the optimal test for
    small lengths; for one key bit with p_zero = 0.6 its exact
    advantage equals the total variation distance 0.1.
    """
    n = len(message)
    m = np.array(list(message), dtype=np.uint8)

    def decide(keys: np.ndarray, views: tuple[np.ndarray, ...]) -> np.ndarray:
        return (views[-1] ^ m).sum(axis=1) * 2 < n

    return Distinguisher(f"otp_majority_zeros_{n}", decide)


_EXACT_BLOCK_ROWS = 2**12  # rows enumerated at a time: about 90 KB of bits in the widest exact world


def _every_row_count(width: int, count: Callable[[np.ndarray], int]) -> int:
    """The sum of ``count`` over every ``width``-bit 0/1 row, enumerated in blocks of
    ``_EXACT_BLOCK_ROWS`` rows: the integer total does not depend on the blocks."""
    total = 1 << width
    return sum(
        count(_bit_rows(width, start, min(start + _EXACT_BLOCK_ROWS, total)))
        for start in range(0, total, _EXACT_BLOCK_ROWS)
    )


def attack_otp_advantage(
    n: int,
    message,
    mode: str = "auto",
    trials: int = 20_000,
    rng: np.random.Generator | None = None,
) -> AdvantageEstimate:
    """The parity check's advantage once the attack key of :mod:`~qkdlab.attack_lab`
    is used as a one-time pad on the (n+1)-bit ``message``, whose first n bits are known.

    The real world is the attack itself: a trial is the 2n uniform bits of
    one attack round (:func:`~qkdlab.attack_lab._otp_rounds`), whose
    ciphertext opens the bases, accepted when the measured pad's parity
    decodes the last message bit, which it always does.  In the ideal
    world the ciphertext is uniform and the register is rho' = I / 2^n on
    every key, so whatever the bases, the measured pad is n uniform bits:
    a trial is 2n+1 uniform bits, accepted when the XOR of bits n..2n is
    the last message bit.  ``mode`` is as for :func:`estimate_advantage`;
    exact mode (2n+1 bits at most 21) runs both worlds on every draw row,
    counting the accepted rows in blocks (:func:`_every_row_count`), so
    its memory does not grow with n.  Any declared epsilon below 1/2 is broken.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = _bits_from(message, n + 1)
    width = 2 * n + 1
    mode = _mode(mode, width <= _EXACT_MAX_BITS, f"pad_encoding_attack_otp_{n}", rng, trials)

    m_row = np.array(m, np.uint8)
    # each world is a draw width and an accept rule on rows of that many uniform bits
    worlds = (
        (2 * n, lambda draws, views=(): _otp_rounds(draws, m_row)[-1] == m[n]),
        (width, lambda draws, views=(): np.bitwise_xor.reduce(draws[:, n:], axis=1) == m[n]),
    )
    if mode == "exact":
        p_r, p_i = (
            _every_row_count(w, lambda draws: int(np.count_nonzero(accept(draws)))) / 2**w for w, accept in worlds
        )
        return _exact_estimate(p_r, p_i)
    # a world's trials are its draw rows (a zero-row draw, which sizes them, takes no state)
    k_r, k_i = (
        _accept_count_sampled(lambda rng, rows: (rng.integers(0, 2, size=(rows, w)), ()), accept, trials, r)
        for (w, accept), r in zip(worlds, rng.spawn(2))
    )
    return _sampled_estimate(k_r, k_i, trials)


# ---------------------------------------------------------------------------
# RSA malleability toy

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981
# {2, 7, 61} alone is deterministic below the first strong pseudoprime to
# all three bases, 4,759,123,141 = 48781 * 97561 (Jaeschke 1993)
_MR_SMALL_WITNESSES = (2, 7, 61)
_MR_SMALL_BELOW = 4_759_123_141
_PUBLIC_EXPONENTS = (65537, 257, 17, 5, 3)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set; deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_DETERMINISTIC_BELOW:
        raise ValueError("witness set only covers n below 3.3e24")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_SMALL_WITNESSES if n < _MR_SMALL_BELOW else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1) or a == n:  # 61 passes trial division; a witness must not be n
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pow_mod(base: np.ndarray, exponent: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """``pow(b, e, m)`` elementwise, by right-to-left square and multiply; every
    ``modulus`` must be below 2**32, so each product is exact in uint64."""
    result = np.ones_like(base)
    exponent = exponent.copy()
    for _ in range(int(exponent.max(initial=0)).bit_length()):
        result = np.where(exponent & 1, result * base % modulus, result)
        base = base * base % modulus
        exponent >>= 1
    return result


_SIEVE_BELOW = 2**16  # every factor of a modulus of at most 32 bits


@functools.cache
def _prime_table() -> np.ndarray:
    """Whether each number below ``_SIEVE_BELOW`` is prime: a read-only 64 KB sieve of
    Eratosthenes, built once per process."""
    table = np.ones(_SIEVE_BELOW, dtype=bool)
    table[:2] = False
    for p in range(2, math.isqrt(_SIEVE_BELOW - 1) + 1):
        if table[p]:
            table[p * p::p] = False
    table.flags.writeable = False
    return table


_KEY_CHUNK = 4096  # candidates per factor and draw: memory stays flat in the number of keys


def _toy_rsa_factors(count: int, modulus_bits: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(p, q, e)`` for ``count`` textbook (unpadded) RSA keys with small moduli, as
    uint64 arrays, drawn a chunk at a time, for ``modulus_bits`` in the range that
    :func:`_check_modulus_bits` allows.

    Each chunk draws ``modulus_bits`` candidates for p per key still missing, at most
    ``_KEY_CHUNK``, and as many for q, as uint64 arrays uniform over the odd numbers
    of the factor's bit length, and looks them all up in :func:`_prime_table`: with at
    most 32 modulus bits both factors are below 2**16.  The primes among them are
    paired in draw order, and a pair is kept when p != q, p q has exactly
    ``modulus_bits`` bits and some public exponent below phi is prime to phi (the
    first such one in ``_PUBLIC_EXPONENTS`` is e).  Kept pairs are iid and uniform
    over the valid (p, q), as a one-pair-at-a-time rejection sampler gives them.
    """
    half = modulus_bits // 2
    exponents = np.array(_PUBLIC_EXPONENTS, dtype=np.uint64)
    chunks = []
    missing = count
    while missing:
        # one key takes about 0.3 modulus_bits candidates per factor, so this size
        # usually gives every missing key in one draw without testing thousands for one
        size = min(_KEY_CHUNK, modulus_bits * missing)
        p, q = candidates = np.stack([
            rng.integers(1 << (bits - 1), 1 << bits, size=size, dtype=np.uint64) | np.uint64(1)
            for bits in (modulus_bits - half, half)
        ])
        prime = _prime_table()[candidates]
        p, q = p[prime[0]], q[prime[1]]
        pairs = min(len(p), len(q))
        p, q = p[:pairs], q[:pairs]
        phi = ((p - 1) * (q - 1))[:, None]
        usable = (exponents < phi) & (np.gcd(exponents, phi) == 1)
        valid = (p != q) & (p * q >= np.uint64(1 << (modulus_bits - 1))) & usable.any(axis=1)
        kept = np.flatnonzero(valid)[:missing]
        missing -= len(kept)
        chunks.append((p[kept], q[kept], exponents[usable[kept].argmax(axis=1)]))
    return tuple(map(np.concatenate, zip(*chunks)))


def _check_modulus_bits(modulus_bits: int) -> None:
    """Only 16 to 32 modulus bits are allowed: large enough for the auction
    numbers, small enough to make clear this is a demo of malleability, not of
    key strength, and to keep every product mod n exact in uint64.  Checked
    before any bid, so the refusal does not depend on one."""
    if not 16 <= modulus_bits <= 32:
        raise ValueError("modulus_bits must lie in [16, 32]")


# each bid option's least value and the refusal below it
_BID_FLOORS = {"bid": (0, "bid must be nonnegative"), "max_bid": (1, "max_bid must be at least 1")}


def _check_bid(name: str, bid: int, modulus_bits: int) -> None:
    """Refuse the bid option ``name`` below its floor, or when twice it may not fit below a
    modulus of ``modulus_bits`` bits; it depends on no key, so it is checked before any is drawn."""
    least, message = _BID_FLOORS[name]
    if bid < least:
        raise ValueError(message)
    if (2 * bid).bit_length() >= modulus_bits:  # 2 bid < 2^(modulus_bits - 1) <= n, without a huge power
        raise ValueError(f"{name} too large for the modulus")


class AuctionOutcome(JsonRecord):
    """One sealed-bid auction where the second bidder doubles the first bid.

    Textbook RSA is multiplicatively homomorphic, so from Alice's
    ciphertext alone Bob submits enc(2) * c mod n, which opens to twice
    her bid.  Each ciphertext decrypts correctly in isolation; the
    break only appears at the auction (composition) level.
    """

    JSON_TYPE = "auction_outcome"

    modulus_bits: int
    n: int
    e: int
    alice_bid: int
    bob_bid: int
    forgery_doubled: bool
    winner: str


def _opened_bids(bids: np.ndarray, p: np.ndarray, q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Bob's opened bid in each auction, textbook RSA's dec(enc(2) enc(bid) mod n) under the
    key (n = p q, e) with the same index, for uint64 arrays with every bid below its n.

    Alice encrypts, Bob forges and the auctioneer decrypts mod n with d = e^-1 mod phi.
    n is below 2**32, so every product mod n is exact in uint64.  Bob's factor enc(2)
    uses only the public (n, e), and no ciphertext value leaves this function.
    """
    n = p * q
    phi = (p - 1) * (q - 1)
    d = np.array(list(map(pow, e.tolist(), itertools.repeat(-1), phi.tolist())), dtype=np.uint64)
    sealed = _pow_mod(bids, e, n)  # Alice's enc(bid)
    forged = _pow_mod(np.full_like(n, 2), e, n) * sealed % n  # enc(2) enc(bid)
    return _pow_mod(forged, d, n)


class _Auctions(Record):
    """Auctions as columns, one element per auction: its key's modulus ``n = p q``
    and exponent ``e``, Alice's bid, Bob's opened bid, whether his forgery doubled
    hers, and the winner ("bob", "tie" or "alice")."""

    n: np.ndarray
    e: np.ndarray
    alice_bid: np.ndarray
    bob_bid: np.ndarray
    forgery_doubled: np.ndarray
    winner: np.ndarray

    @property
    def bob_win_rate(self) -> float:
        return int(np.count_nonzero(self.winner == "bob")) / len(self.winner)

    @property
    def all_forgeries_doubled(self) -> bool:
        return bool(self.forgery_doubled.all())

    def outcomes(self) -> list[AuctionOutcome]:
        n = self.n.tolist()
        return list(map(
            AuctionOutcome, map(int.bit_length, n), n, self.e.tolist(), self.alice_bid.tolist(),
            self.bob_bid.tolist(), self.forgery_doubled.tolist(), self.winner.tolist(),
        ))


def _auctions(bids: np.ndarray, p: np.ndarray, q: np.ndarray, e: np.ndarray) -> _Auctions:
    """The auction at each of ``bids`` under the key with the same index, as one batch."""
    bids = bids.astype(np.uint64)
    opened = _opened_bids(bids, p, q, e)
    doubled = opened == 2 * bids
    winner = np.where(doubled & (opened > bids), "bob", np.where(opened == bids, "tie", "alice"))
    return _Auctions(p * q, e, bids, opened, doubled, winner)


def rsa_malleability_demo(bid: int, modulus_bits: int = 32, rng: np.random.Generator | None = None) -> AuctionOutcome:
    """One auction at ``bid`` under a fresh key of ``modulus_bits`` bits.

    The bid is refused by the rule of :func:`rsa_auction_sweep`, before any key is
    drawn, so the refusal does not depend on the seed.
    """
    _check_modulus_bits(modulus_bits)
    _check_bid("bid", bid, modulus_bits)
    factors = _toy_rsa_factors(1, modulus_bits, np.random.default_rng() if rng is None else rng)
    return _auctions(np.array([bid]), *factors).outcomes()[0]


class AuctionSweep(JsonRecord):
    JSON_TYPE = "auction_sweep"

    outcomes: tuple[AuctionOutcome, ...]
    bob_win_rate: float
    all_forgeries_doubled: bool


def _auction_sweep(
    num_auctions: int, modulus_bits: int, max_bid: int, rng: np.random.Generator | None
) -> _Auctions:
    """The auctions of :func:`rsa_auction_sweep`, as columns; every key's modulus has
    exactly ``modulus_bits`` bits."""
    _check_modulus_bits(modulus_bits)
    if num_auctions < 1:
        raise ValueError("need at least one auction")
    _check_bid("max_bid", max_bid, modulus_bits)
    rng = np.random.default_rng() if rng is None else rng
    bids = rng.integers(1, max_bid + 1, size=num_auctions)
    return _auctions(bids, *_toy_rsa_factors(num_auctions, modulus_bits, rng))


def rsa_auction_sweep(
    num_auctions: int = 20,
    modulus_bits: int = 32,
    max_bid: int = 1000,
    rng: np.random.Generator | None = None,
) -> AuctionSweep:
    """Fresh key and random positive bid per auction; Bob forges every time.

    The auctions run as one batch of columns (``_auction_sweep``), which
    ``rsa-demo`` writes row by row without building the outcomes; this
    function builds one :class:`AuctionOutcome` per auction from them.
    """
    auctions = _auction_sweep(num_auctions, modulus_bits, max_bid, rng)
    return AuctionSweep(tuple(auctions.outcomes()), auctions.bob_win_rate, auctions.all_forgeries_doubled)
