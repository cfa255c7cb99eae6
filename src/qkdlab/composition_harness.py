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

The module also carries the counterexample machinery: a classical
bridge for the encode-the-pad attack composed with a one-time pad,
where a simple parity distinguisher achieves advantage 1/2 against a
source that looks fine through the accessible-information lens, and a
textbook RSA malleability toy showing the same compositional failure
for computational assumptions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import ndtri

from ._json import JsonRecord
from .attack_lab import _bit_rows, _chunk_rows, _complete_pads

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
    "attack_otp_composed_pair",
    "otp_prefix_parity_distinguisher",
    "RsaKey",
    "AuctionOutcome",
    "AuctionSweep",
    "is_probable_prime",
    "generate_toy_rsa",
    "rsa_encrypt",
    "rsa_decrypt",
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


@dataclass(frozen=True, eq=False)
class SampleTable:
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
    """The rows of the 0/1 array ``bits`` with their ``weights``, equal rows merged."""
    return SampleTable(*_merge(_row_codes(bits), np.broadcast_to(weights, len(bits))), tuple(widths))


@dataclass(frozen=True)
class ProtocolPair:
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


@dataclass(frozen=True)
class KeyApplication:
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


@dataclass(frozen=True)
class Distinguisher:
    """A named test: ``decide(keys, views)`` takes :data:`Samples`, gives one bool per row."""

    name: str
    decide: Decide


@dataclass(frozen=True)
class AdvantageEstimate(JsonRecord):
    """|P_real(accept) - P_ideal(accept)| with an uncertainty half-width."""

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


def _accept_prob_sampled(
    run: Callable[[np.random.Generator, int], Samples],
    decide: Decide,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of ``trials`` samples of ``run`` that ``decide`` accepts.

    Samples are drawn and decided a chunk of rows at a time, so memory
    does not grow with ``trials``.
    """
    key, views = run(rng, 0)
    rows = _chunk_rows(key.shape[1] + sum(v.shape[1] for v in views))
    hits = 0
    for start in range(0, trials, rows):
        hits += int(np.count_nonzero(_accepted(decide, *run(rng, min(rows, trials - start)))))
    return hits / trials


def _two_sample_half_width(p_a: float, p_b: float, trials: int, confidence: float) -> float:
    # pooled normal interval for a difference of two Bernoulli means,
    # with a Hoeffding fallback when the plug-in variance degenerates
    pooled = 0.5 * (p_a + p_b)
    var = pooled * (1.0 - pooled) * (2.0 / trials)
    if var > 0.0:
        z = float(ndtri(0.5 + confidence / 2.0))
        return z * math.sqrt(var)
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / trials)


def estimate_advantage(
    pair: ProtocolPair,
    distinguisher: Distinguisher | Decide,
    mode: str = "auto",
    trials: int = 10_000,
    rng: np.random.Generator | None = None,
    confidence: float = 0.99,
) -> AdvantageEstimate:
    """Advantage of one distinguisher against a pair.

    ``mode`` is ``"exact"`` (requires the pair's distributions),
    ``"sample"`` (Monte Carlo, requires an rng), or ``"auto"`` which
    picks exact when available.
    """
    decide = distinguisher.decide if isinstance(distinguisher, Distinguisher) else distinguisher
    if mode == "auto":
        mode = "exact" if pair.has_exact_dists else "sample"
    if mode == "exact":
        if not pair.has_exact_dists:
            raise ValueError(f"{pair.name} has no exact distributions")
        p_r = _accept_prob(pair.real_dist, decide)
        p_i = _accept_prob(pair.ideal_dist, decide)
        return AdvantageEstimate(abs(p_r - p_i), 0.0, p_r, p_i, "exact", 0)
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        raise ValueError("sampling mode needs an rng")
    if trials < 100:
        raise ValueError("need at least 100 trials per world")
    r_real, r_ideal = rng.spawn(2)
    p_r = _accept_prob_sampled(pair.real_run, decide, trials, r_real)
    p_i = _accept_prob_sampled(pair.ideal_run, decide, trials, r_ideal)
    hw = _two_sample_half_width(p_r, p_i, trials, confidence)
    return AdvantageEstimate(abs(p_r - p_i), hw, p_r, p_i, "sample", trials)


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
    return _table(np.concatenate((bits[rows], *views), axis=1), table.weights[rows] * weights, widths)


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


@dataclass(frozen=True)
class DistinguisherRow(JsonRecord):
    """Per-distinguisher outcome of a composition check.

    ``advantage_source_step`` is the distinguisher's advantage between
    the composed real system and the hybrid (real application on the
    ideal key); ``advantage_app_step`` between the hybrid and the
    composed ideal.  ``telescope_residual`` is the signed total
    difference minus the two signed step differences, identically zero
    up to float roundoff.
    """

    name: str
    advantage_total: float
    half_width: float
    advantage_source_step: float
    advantage_app_step: float
    telescope_residual: float
    within_bound: bool


@dataclass(frozen=True)
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
    tol: float = 1e-9,
) -> CompositionReport:
    """Check eps-additivity of composition against concrete distinguishers.

    For each distinguisher the acceptance probability is evaluated on
    three systems: composed real, the hybrid (real application, ideal
    key), and composed ideal.  The three pairwise differences then
    telescope, giving both the per-step advantages of the hybrid
    argument and the total advantage compared against
    min(1, eps_source + eps_app).
    """
    if not distinguishers:
        raise ValueError("need at least one distinguisher")
    composed = compose(source, app)
    if mode == "auto":
        mode = "exact" if composed.has_exact_dists else "sample"
    if mode == "exact":
        if not composed.has_exact_dists:
            raise ValueError("exact mode needs exact distributions for source and application")
        hybrid = _convolve(source.ideal_dist, app.real_dist_given_keys)
        worlds = (composed.real_dist, hybrid, composed.ideal_dist)
    elif mode == "sample":
        if rng is None:
            raise ValueError("sampling mode needs an rng")
        if trials < 100:
            raise ValueError("need at least 100 trials per world")
        hybrid_run = _composed_runner(source.ideal_run, app.real_run)
        worlds = (composed.real_run, hybrid_run, composed.ideal_run)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    bound = composed.declared_eps
    rows = []
    for d in distinguishers:
        if mode == "exact":
            p_rr, p_ir, p_ii = (_accept_prob(table, d.decide) for table in worlds)
            hw = 0.0
        else:
            runs = zip(worlds, rng.spawn(3))
            p_rr, p_ir, p_ii = (_accept_prob_sampled(run, d.decide, trials, r) for run, r in runs)
            hw = _two_sample_half_width(p_rr, p_ii, trials, 0.99)
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
                within_bound=abs(total) <= bound + hw + tol,
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


def iid_bits_total_variation(key_len: int, p_zero: float) -> float:
    """Exact TV distance between iid-biased and uniform key strings.

    Grouped over the number of zeros, so it stays cheap for any length.
    """
    if not 0.0 <= p_zero <= 1.0:
        raise ValueError("p_zero must lie in [0, 1]")
    u = 0.5**key_len
    return 0.5 * math.fsum(
        math.comb(key_len, j) * abs(p_zero**j * (1.0 - p_zero) ** (key_len - j) - u)
        for j in range(key_len + 1)
    )


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


def attack_otp_composed_pair(n: int, message: str, declared_eps: float = 0.25) -> ProtocolPair:
    """Classical bridge for the encode-the-pad source composed with an OTP.

    The source hands out an (n+1)-bit key whose last bit the adversary
    can recover exactly once the pad bases leak through the ciphertext;
    here the quantum part is collapsed to its classical consequence.
    In the real world the view is (ciphertext, recovered pad) with the
    ciphertext opening the key, so the pad parity pins down the key's
    last bit.  In the composed ideal world both parts are uniform and
    independent.  ``declared_eps`` is whatever bound the source was
    (wrongly) certified with; the parity distinguisher's exact
    advantage is 1/2 regardless.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(message) != n + 1:
        raise ValueError(f"message must have {n + 1} bits")
    if set(message) - {"0", "1"}:
        raise ValueError("message must be a bitstring")
    m = np.array(list(message), dtype=np.uint8)

    # a trial draws the n+1 key bits, then the n-1 free pad bits
    def real(rng: np.random.Generator, trials: int) -> Samples:
        draws = rng.integers(0, 2, size=(trials, 2 * n))
        key = draws[:, : n + 1]
        pad = _complete_pads(draws[:, n + 1 :], key[:, n])
        return draws[:, :0], (key ^ m, pad)  # no output key, as in the exact dists

    def ideal(rng: np.random.Generator, trials: int) -> Samples:
        draws = rng.integers(0, 2, size=(trials, 2 * n + 1))
        return draws[:, :0], (draws[:, : n + 1], draws[:, n + 1 :])

    return ProtocolPair(
        name=f"pad_encoding_attack_otp_{n}",
        output_len=0,
        declared_eps=declared_eps,
        real_run=real,
        ideal_run=ideal,
        build_exact=lambda: _attack_otp_tables(n, m),
    )


def _attack_otp_tables(n: int, m: np.ndarray) -> tuple[SampleTable, SampleTable]:
    """Exact distributions of :func:`attack_otp_composed_pair`: uniform over
    the (ciphertext, pad) pairs whose pad parity opens the last key bit,
    and uniform over all pairs."""
    widths = (0, n + 1, n)
    rows = _bit_rows(2 * n)  # a ciphertext, then the n-1 free pad bits
    pads = _complete_pads(rows[:, n + 1 :], rows[:, n] ^ m[n])
    real = np.concatenate((rows[:, : n + 1], pads), axis=1)
    return _table(real, 0.5 ** (2 * n), widths), _table(_bit_rows(2 * n + 1), 0.5 ** (2 * n + 1), widths)


def otp_prefix_parity_distinguisher(message: str) -> Distinguisher:
    """Accept when the recovered pad's parity matches the opened last key bit."""
    m_last = int(message[-1])

    def decide(keys: np.ndarray, views: tuple[np.ndarray, ...]) -> np.ndarray:
        cipher, pad = views
        return pad.sum(axis=1) % 2 == cipher[:, -1] ^ m_last

    return Distinguisher(f"pad_parity_{len(message) - 1}", decide)


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


@dataclass(frozen=True)
class RsaKey:
    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def modulus_bits(self) -> int:
        return self.n.bit_length()


def _random_prime(bits: int, rng: np.random.Generator) -> int:
    if bits < 5:
        raise ValueError("prime factors need at least 5 bits")
    while True:
        candidate = int(rng.integers(2 ** (bits - 1), 2**bits)) | 1
        if is_probable_prime(candidate):
            return candidate


def generate_toy_rsa(modulus_bits: int = 32, rng: np.random.Generator | None = None) -> RsaKey:
    """Textbook (unpadded) RSA key with a small modulus.

    Only 16 to 64 modulus bits are allowed: large enough for the
    auction numbers, small enough to make clear this is a demo of
    malleability, not of key strength.
    """
    if not 16 <= modulus_bits <= 64:
        raise ValueError("modulus_bits must lie in [16, 64]")
    rng = np.random.default_rng() if rng is None else rng
    half = modulus_bits // 2
    while True:
        p = _random_prime(modulus_bits - half, rng)
        q = _random_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != modulus_bits:
            continue
        phi = (p - 1) * (q - 1)
        e = next((c for c in _PUBLIC_EXPONENTS if c < phi and math.gcd(c, phi) == 1), None)
        if e is None:
            continue
        return RsaKey(n=n, e=e, d=pow(e, -1, phi), p=p, q=q)


def rsa_encrypt(key: RsaKey, m: int) -> int:
    if not 0 <= m < key.n:
        raise ValueError("plaintext out of range")
    return pow(m, key.e, key.n)


def rsa_decrypt(key: RsaKey, c: int) -> int:
    if not 0 <= c < key.n:
        raise ValueError("ciphertext out of range")
    return pow(c, key.d, key.n)


@dataclass(frozen=True)
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


def rsa_malleability_demo(
    bid: int,
    modulus_bits: int = 32,
    rng: np.random.Generator | None = None,
    key: RsaKey | None = None,
) -> AuctionOutcome:
    if bid < 0:
        raise ValueError("bid must be nonnegative")
    if key is None:
        key = generate_toy_rsa(modulus_bits, rng)
    if 2 * bid >= key.n:
        raise ValueError("doubled bid must stay below the modulus")
    c = rsa_encrypt(key, bid)
    forged = rsa_encrypt(key, 2) * c % key.n
    opened = rsa_decrypt(key, forged)
    doubled = opened == 2 * bid
    winner = "bob" if doubled and opened > bid else ("tie" if opened == bid else "alice")
    return AuctionOutcome(
        modulus_bits=key.modulus_bits,
        n=key.n,
        e=key.e,
        alice_bid=bid,
        bob_bid=opened,
        forgery_doubled=doubled,
        winner=winner,
    )


@dataclass(frozen=True)
class AuctionSweep(JsonRecord):
    JSON_TYPE = "auction_sweep"

    outcomes: tuple[AuctionOutcome, ...]
    bob_win_rate: float
    all_forgeries_doubled: bool


def rsa_auction_sweep(
    num_auctions: int = 20,
    modulus_bits: int = 32,
    max_bid: int = 1000,
    rng: np.random.Generator | None = None,
) -> AuctionSweep:
    """Fresh key and random positive bid per auction; Bob forges every time."""
    if num_auctions < 1:
        raise ValueError("need at least one auction")
    # 2 max_bid < 2^(modulus_bits - 1), without forming a huge power
    if not 1 <= max_bid or (2 * max_bid).bit_length() >= modulus_bits:
        raise ValueError("max_bid too large for the modulus")
    rng = np.random.default_rng() if rng is None else rng
    outcomes = []
    for _ in range(num_auctions):
        bid = int(rng.integers(1, max_bid + 1))
        outcomes.append(rsa_malleability_demo(bid, modulus_bits, rng))
    wins = sum(1 for o in outcomes if o.winner == "bob")
    return AuctionSweep(
        outcomes=tuple(outcomes),
        bob_win_rate=wins / num_auctions,
        all_forgeries_doubled=all(o.forgery_doubled for o in outcomes),
    )
