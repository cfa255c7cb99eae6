"""Composable-security checks on small classical protocol pairs.

Everything here works on pairs of sampleable systems, a real one and an
ideal one.  A pair can optionally carry exact output distributions, in
which case distinguisher advantages are computed by summation instead
of Monte Carlo.  The harness verifies the additive composition bound
through the standard hybrid argument: for a key source with distance
eps_source and an application with distance eps_app, every
distinguisher's advantage against the composed system is bounded by
eps_source + eps_app, because the middle hybrid (real application on
the ideal key) telescopes the total difference into two single-step
differences.

The module also carries the counterexample machinery: a classical
bridge for the encode-the-pad attack composed with a one-time pad,
where a simple parity distinguisher achieves advantage 1/2 against a
source that looks fine through the accessible-information lens, and a
textbook RSA malleability toy showing the same compositional failure
for computational assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np
from scipy.special import ndtri

from .attack_lab import sample_pad

__all__ = [
    "Sample",
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
Sample = tuple[str, tuple]

_DIST_SUM_TOL = 1e-9
_EXACT_DIST_CAP = 2**21


def _check_dist(dist: Mapping[Sample, float], what: str) -> None:
    total = math.fsum(dist.values())
    if abs(total - 1.0) > _DIST_SUM_TOL:
        raise ValueError(f"{what} sums to {total}, expected 1")


@dataclass(frozen=True)
class ProtocolPair:
    """A real/ideal pair of systems emitting (key, view) samples.

    ``real_dist``/``ideal_dist`` are optional exact distributions over
    samples; when both are present, advantage computations are exact.
    """

    name: str
    output_len: int
    declared_eps: float
    real_run: Callable[[np.random.Generator], Sample]
    ideal_run: Callable[[np.random.Generator], Sample]
    real_dist: Mapping[Sample, float] | None = None
    ideal_dist: Mapping[Sample, float] | None = None

    def __post_init__(self):
        if not 0.0 <= self.declared_eps <= 1.0:
            raise ValueError("declared_eps must lie in [0, 1]")
        if self.output_len < 0:
            raise ValueError("output_len must be nonnegative")
        if (self.real_dist is None) != (self.ideal_dist is None):
            raise ValueError("provide both exact distributions or neither")
        if self.real_dist is not None:
            _check_dist(self.real_dist, f"{self.name} real_dist")
            _check_dist(self.ideal_dist, f"{self.name} ideal_dist")

    @property
    def has_exact_dists(self) -> bool:
        return self.real_dist is not None


@dataclass(frozen=True)
class KeyApplication:
    """A protocol consuming a key, given as key-conditioned real/ideal runs.

    ``real_run(key, rng)`` returns the adversary view of the real
    application; ``ideal_run(key, rng)`` the view of its ideal
    functionality (which typically ignores the key).  The optional
    ``*_dist_given_key`` callables return exact view distributions.
    """

    name: str
    key_len: int
    declared_eps: float
    real_run: Callable[[str, np.random.Generator], tuple]
    ideal_run: Callable[[str, np.random.Generator], tuple]
    real_dist_given_key: Callable[[str], Mapping[tuple, float]] | None = None
    ideal_dist_given_key: Callable[[str], Mapping[tuple, float]] | None = None

    def __post_init__(self):
        if not 0.0 <= self.declared_eps <= 1.0:
            raise ValueError("declared_eps must lie in [0, 1]")
        if self.key_len < 0:
            raise ValueError("key_len must be nonnegative")


@dataclass(frozen=True)
class Distinguisher:
    name: str
    decide: Callable[[Sample], bool]


@dataclass(frozen=True)
class AdvantageEstimate:
    """|P_real(accept) - P_ideal(accept)| with an uncertainty half-width."""

    advantage: float
    half_width: float
    accept_real: float
    accept_ideal: float
    mode: str
    trials: int

    def to_json_dict(self) -> dict:
        return {
            "advantage": self.advantage,
            "half_width": self.half_width,
            "accept_real": self.accept_real,
            "accept_ideal": self.accept_ideal,
            "mode": self.mode,
            "trials": self.trials,
        }


def _accept_prob_exact(dist: Mapping[Sample, float], decide: Callable[[Sample], bool]) -> float:
    return math.fsum(p for sample, p in dist.items() if p > 0.0 and decide(sample))


def _accept_prob_sampled(
    run: Callable[[np.random.Generator], Sample],
    decide: Callable[[Sample], bool],
    trials: int,
    rng: np.random.Generator,
) -> float:
    hits = 0
    for _ in range(trials):
        if decide(run(rng)):
            hits += 1
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
    distinguisher: Distinguisher | Callable[[Sample], bool],
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
        p_r = _accept_prob_exact(pair.real_dist, decide)
        p_i = _accept_prob_exact(pair.ideal_dist, decide)
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
    support = set(pair.real_dist) | set(pair.ideal_dist)
    return 0.5 * math.fsum(
        abs(pair.real_dist.get(s, 0.0) - pair.ideal_dist.get(s, 0.0)) for s in support
    )


def _convolve(
    source_dist: Mapping[Sample, float],
    app_dist_given_key: Callable[[str], Mapping[tuple, float]],
) -> dict[Sample, float] | None:
    out: dict[Sample, float] = {}
    for (key, view), p in source_dist.items():
        if p == 0.0:
            continue
        for app_view, q in app_dist_given_key(key).items():
            if q == 0.0:
                continue
            sample = (key, view + app_view)
            out[sample] = out.get(sample, 0.0) + p * q
            if len(out) > _EXACT_DIST_CAP:
                return None
    return out


def _composed_runner(
    source_run: Callable[[np.random.Generator], Sample],
    app_run: Callable[[str, np.random.Generator], tuple],
) -> Callable[[np.random.Generator], Sample]:
    def run(rng: np.random.Generator) -> Sample:
        key, view = source_run(rng)
        return key, view + app_run(key, rng)

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
    real_dist = ideal_dist = None
    if source.has_exact_dists and app.real_dist_given_key is not None and app.ideal_dist_given_key is not None:
        real_dist = _convolve(source.real_dist, app.real_dist_given_key)
        ideal_dist = _convolve(source.ideal_dist, app.ideal_dist_given_key)
        if real_dist is None or ideal_dist is None:
            real_dist = ideal_dist = None
    return ProtocolPair(
        name=f"{app.name}_on_{source.name}",
        output_len=source.output_len,
        declared_eps=min(1.0, source.declared_eps + app.declared_eps),
        real_run=_composed_runner(source.real_run, app.real_run),
        ideal_run=_composed_runner(source.ideal_run, app.ideal_run),
        real_dist=real_dist,
        ideal_dist=ideal_dist,
    )


@dataclass(frozen=True)
class DistinguisherRow:
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

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "advantage_total": self.advantage_total,
            "half_width": self.half_width,
            "advantage_source_step": self.advantage_source_step,
            "advantage_app_step": self.advantage_app_step,
            "telescope_residual": self.telescope_residual,
            "within_bound": self.within_bound,
        }


@dataclass(frozen=True)
class CompositionReport:
    source_name: str
    app_name: str
    eps_source: float
    eps_app: float
    eps_bound: float
    mode: str
    trials: int
    rows: tuple[DistinguisherRow, ...]

    @property
    def all_within_bound(self) -> bool:
        return all(r.within_bound for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "type": "composition_report",
            "source": self.source_name,
            "application": self.app_name,
            "eps_source": self.eps_source,
            "eps_app": self.eps_app,
            "eps_bound": self.eps_bound,
            "mode": self.mode,
            "trials": self.trials,
            "all_within_bound": self.all_within_bound,
            "rows": [r.to_json_dict() for r in self.rows],
        }


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
    hybrid_run = _composed_runner(source.ideal_run, app.real_run)
    hybrid_dist = None
    if composed.has_exact_dists:
        hybrid_dist = _convolve(source.ideal_dist, app.real_dist_given_key)
    if mode == "auto":
        mode = "exact" if composed.has_exact_dists and hybrid_dist is not None else "sample"
    if mode == "exact" and (not composed.has_exact_dists or hybrid_dist is None):
        raise ValueError("exact mode needs exact distributions for source and application")
    if mode == "sample":
        if rng is None:
            raise ValueError("sampling mode needs an rng")
        if trials < 100:
            raise ValueError("need at least 100 trials per world")
    elif mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    bound = composed.declared_eps
    rows = []
    for d in distinguishers:
        if mode == "exact":
            p_rr = _accept_prob_exact(composed.real_dist, d.decide)
            p_ir = _accept_prob_exact(hybrid_dist, d.decide)
            p_ii = _accept_prob_exact(composed.ideal_dist, d.decide)
            hw = 0.0
        else:
            r1, r2, r3 = rng.spawn(3)
            p_rr = _accept_prob_sampled(composed.real_run, d.decide, trials, r1)
            p_ir = _accept_prob_sampled(hybrid_run, d.decide, trials, r2)
            p_ii = _accept_prob_sampled(composed.ideal_run, d.decide, trials, r3)
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
        source_name=source.name,
        app_name=app.name,
        eps_source=source.declared_eps,
        eps_app=app.declared_eps,
        eps_bound=bound,
        mode=mode,
        trials=0 if mode == "exact" else trials,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# stock sources, applications and distinguishers


def _xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def _all_bitstrings(n: int):
    for v in range(2**n):
        yield format(v, f"0{n}b") if n else ""


def _uniform_key_dist(key_len: int) -> dict[Sample, float]:
    w = 0.5**key_len
    return {(k, ()): w for k in _all_bitstrings(key_len)}


def _random_bits(rng: np.random.Generator, n: int) -> str:
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))


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

    def run(rng: np.random.Generator) -> Sample:
        return _random_bits(rng, key_len), ()

    dists = _uniform_key_dist(key_len) if key_len <= 20 else None
    return ProtocolPair(
        name=f"perfect_key_{key_len}",
        output_len=key_len,
        declared_eps=0.0,
        real_run=run,
        ideal_run=run,
        real_dist=dists,
        ideal_dist=dict(dists) if dists is not None else None,
    )


def biased_key_source(key_len: int, p_zero: float = 0.6) -> ProtocolPair:
    """iid-biased key bits against the uniform ideal.

    The declared epsilon is the exact total variation distance, which
    for a single bit with p_zero = 0.6 is 0.1.
    """

    def real(rng: np.random.Generator) -> Sample:
        bits = "".join("0" if rng.random() < p_zero else "1" for _ in range(key_len))
        return bits, ()

    def ideal(rng: np.random.Generator) -> Sample:
        return _random_bits(rng, key_len), ()

    real_dist = ideal_dist = None
    if key_len <= 20:
        real_dist = {
            (k, ()): p_zero ** k.count("0") * (1.0 - p_zero) ** k.count("1")
            for k in _all_bitstrings(key_len)
        }
        ideal_dist = _uniform_key_dist(key_len)
    return ProtocolPair(
        name=f"biased_key_{key_len}_p{p_zero}",
        output_len=key_len,
        declared_eps=iid_bits_total_variation(key_len, p_zero),
        real_run=real,
        ideal_run=ideal,
        real_dist=real_dist,
        ideal_dist=ideal_dist,
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

    def real(key: str, rng: np.random.Generator) -> tuple:
        return (_xor_bits(key, message),)

    def ideal(key: str, rng: np.random.Generator) -> tuple:
        return (_random_bits(rng, n),)

    real_given = ideal_given = None
    if n <= 20:
        uniform = {(c,): 0.5**n for c in _all_bitstrings(n)}

        def real_given(key: str) -> Mapping[tuple, float]:
            return {(_xor_bits(key, message),): 1.0}

        def ideal_given(key: str) -> Mapping[tuple, float]:
            return uniform

    return KeyApplication(
        name=f"otp_{n}",
        key_len=n,
        declared_eps=0.0,
        real_run=real,
        ideal_run=ideal,
        real_dist_given_key=real_given,
        ideal_dist_given_key=ideal_given,
    )


def otp_majority_zeros_distinguisher(message: str) -> Distinguisher:
    """Accept when the key implied by the ciphertext is majority zeros.

    Against an iid zero-biased source this is the optimal test for
    small lengths; for one key bit with p_zero = 0.6 its exact
    advantage equals the total variation distance 0.1.
    """
    n = len(message)

    def decide(sample: Sample) -> bool:
        _, view = sample
        implied = _xor_bits(view[-1], message)
        return implied.count("0") * 2 > n

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
    if len(message) != n + 1:
        raise ValueError(f"message must have {n + 1} bits")
    if set(message) - {"0", "1"}:
        raise ValueError("message must be a bitstring")

    def real(rng: np.random.Generator) -> Sample:
        s = rng.integers(0, 2, size=n + 1)
        key = "".join(map(str, s))
        pad = sample_pad(n, int(s[n]), rng)
        cipher = _xor_bits(key, message)
        return "", (cipher, "".join(map(str, pad)))

    def ideal(rng: np.random.Generator) -> Sample:
        return "", (_random_bits(rng, n + 1), _random_bits(rng, n))

    real_dist = ideal_dist = None
    if 2 ** (2 * n + 1) <= _EXACT_DIST_CAP:
        real_dist = {}
        w = 0.5 ** (2 * n)
        for key in _all_bitstrings(n + 1):
            cipher = _xor_bits(key, message)
            want = int(key[n])
            for pad in _all_bitstrings(n):
                if pad.count("1") % 2 == want:
                    real_dist[("", (cipher, pad))] = w
        u = 0.5 ** (2 * n + 1)
        ideal_dist = {
            ("", (c, p)): u for c in _all_bitstrings(n + 1) for p in _all_bitstrings(n)
        }
    return ProtocolPair(
        name=f"pad_encoding_attack_otp_{n}",
        output_len=0,
        declared_eps=declared_eps,
        real_run=real,
        ideal_run=ideal,
        real_dist=real_dist,
        ideal_dist=ideal_dist,
    )


def otp_prefix_parity_distinguisher(message: str) -> Distinguisher:
    """Accept when the recovered pad's parity matches the opened last key bit."""

    def decide(sample: Sample) -> bool:
        _, view = sample
        cipher, pad = view
        implied_key = _xor_bits(cipher, message)
        return pad.count("1") % 2 == int(implied_key[-1])

    return Distinguisher(f"pad_parity_{len(message) - 1}", decide)


# ---------------------------------------------------------------------------
# RSA malleability toy

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981
_PUBLIC_EXPONENTS = (65537, 257, 17, 5, 3)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the fixed witness set; deterministic below ~3.3e24."""
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
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
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
class AuctionOutcome:
    """One sealed-bid auction where the second bidder doubles the first bid.

    Textbook RSA is multiplicatively homomorphic, so from Alice's
    ciphertext alone Bob submits enc(2) * c mod n, which opens to twice
    her bid.  Each ciphertext decrypts correctly in isolation; the
    break only appears at the auction (composition) level.
    """

    modulus_bits: int
    n: int
    e: int
    alice_bid: int
    bob_bid: int
    forgery_doubled: bool
    winner: str

    def to_json_dict(self) -> dict:
        return {
            "type": "auction_outcome",
            "modulus_bits": self.modulus_bits,
            "n": self.n,
            "e": self.e,
            "alice_bid": self.alice_bid,
            "bob_bid": self.bob_bid,
            "forgery_doubled": self.forgery_doubled,
            "winner": self.winner,
        }


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
class AuctionSweep:
    outcomes: tuple[AuctionOutcome, ...]
    bob_win_rate: float
    all_forgeries_doubled: bool

    def to_json_dict(self) -> dict:
        return {
            "type": "auction_sweep",
            "bob_win_rate": self.bob_win_rate,
            "all_forgeries_doubled": self.all_forgeries_doubled,
            "outcomes": [o.to_json_dict() for o in self.outcomes],
        }


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
