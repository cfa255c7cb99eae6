import math

import numpy as np
import pytest
import sympy
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.composition_harness import (
    Distinguisher,
    _two_sample_half_width,
    KeyApplication,
    ProtocolPair,
    attack_otp_composed_pair,
    biased_key_source,
    compose,
    estimate_advantage,
    exact_optimal_advantage,
    generate_toy_rsa,
    iid_bits_total_variation,
    is_probable_prime,
    otp_application,
    otp_majority_zeros_distinguisher,
    otp_prefix_parity_distinguisher,
    perfect_key_source,
    rsa_auction_sweep,
    rsa_decrypt,
    rsa_encrypt,
    rsa_malleability_demo,
    verify_composition_bound,
)


# ---------------------------------------------------------------------------
# pair plumbing


def test_protocol_pair_validation():
    run = lambda rng: ("0", ())
    with pytest.raises(ValueError, match="declared_eps"):
        ProtocolPair("x", 1, 1.5, run, run)
    with pytest.raises(ValueError, match="both"):
        ProtocolPair("x", 1, 0.0, run, run, real_dist={("0", ()): 1.0})
    with pytest.raises(ValueError, match="sums"):
        ProtocolPair("x", 1, 0.0, run, run,
                     real_dist={("0", ()): 0.9}, ideal_dist={("0", ()): 1.0})


def test_estimate_advantage_modes_and_validation():
    pair = biased_key_source(1, p_zero=0.6)
    exact = estimate_advantage(pair, lambda s: s[0] == "0", mode="exact")
    assert exact.advantage == pytest.approx(0.1, abs=1e-15)
    assert exact.half_width == 0.0 and exact.mode == "exact"
    auto = estimate_advantage(pair, lambda s: s[0] == "0")
    assert auto.mode == "exact"
    rng = np.random.default_rng(0)
    sampled = estimate_advantage(pair, lambda s: s[0] == "0", mode="sample",
                                 trials=20_000, rng=rng)
    assert sampled.mode == "sample"
    assert abs(sampled.advantage - 0.1) <= sampled.half_width + 0.01
    with pytest.raises(ValueError, match="rng"):
        estimate_advantage(pair, lambda s: True, mode="sample")
    with pytest.raises(ValueError, match="100 trials"):
        estimate_advantage(pair, lambda s: True, mode="sample", trials=10,
                           rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="mode"):
        estimate_advantage(pair, lambda s: True, mode="bogus")


def test_exact_optimal_advantage_is_total_variation():
    pair = biased_key_source(2, p_zero=0.6)
    assert exact_optimal_advantage(pair) == pytest.approx(
        iid_bits_total_variation(2, 0.6), abs=1e-12
    )
    # no distinguisher can beat it
    for decide in (lambda s: s[0].count("0") >= 1, lambda s: s[0] == "00"):
        est = estimate_advantage(pair, decide, mode="exact")
        assert est.advantage <= exact_optimal_advantage(pair) + 1e-12


def test_iid_bits_total_variation_one_bit():
    assert iid_bits_total_variation(1, 0.6) == pytest.approx(0.1, abs=1e-15)
    assert iid_bits_total_variation(3, 0.5) == 0.0
    with pytest.raises(ValueError):
        iid_bits_total_variation(2, 1.2)


@given(st.integers(1, 8), st.floats(0.0, 1.0))
@settings(max_examples=30)
def test_iid_bits_total_variation_brute_force(key_len, p_zero):
    want = 0.5 * sum(
        abs(p_zero ** f"{v:0{key_len}b}".count("0")
            * (1 - p_zero) ** f"{v:0{key_len}b}".count("1") - 0.5**key_len)
        for v in range(2**key_len)
    )
    assert iid_bits_total_variation(key_len, p_zero) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# composition


def test_compose_stacks_epsilons_and_convolves():
    source = biased_key_source(1, p_zero=0.6)
    app = otp_application("1")
    composed = compose(source, app)
    assert composed.declared_eps == pytest.approx(0.1, abs=1e-15)
    assert composed.has_exact_dists
    assert math.fsum(composed.real_dist.values()) == pytest.approx(1.0, abs=1e-12)
    est = estimate_advantage(composed, otp_majority_zeros_distinguisher("1").decide)
    assert est.advantage == pytest.approx(0.1, abs=1e-12)


def test_compose_clamps_declared_eps():
    run = lambda rng: ("0", ())
    source = ProtocolPair("s", 1, 0.7, run, run)
    app = KeyApplication("a", 1, 0.6, lambda k, rng: (), lambda k, rng: ())
    assert compose(source, app).declared_eps == 1.0


def test_compose_checks_key_length():
    with pytest.raises(ValueError, match="keys"):
        compose(perfect_key_source(2), otp_application("1"))


def test_verify_composition_bound_exact_telescopes():
    source = biased_key_source(1, p_zero=0.6)
    app = otp_application("1")
    report = verify_composition_bound(source, app, [otp_majority_zeros_distinguisher("1")])
    assert report.mode == "exact"
    row = report.rows[0]
    assert abs(row.telescope_residual) <= 1e-12
    assert row.advantage_total <= row.advantage_source_step + row.advantage_app_step + 1e-12
    assert row.within_bound and report.all_within_bound
    assert report.eps_bound == pytest.approx(0.1, abs=1e-15)
    # the OTP on a perfect key contributes nothing
    assert row.advantage_app_step == pytest.approx(0.0, abs=1e-12)


def test_verify_composition_bound_sampled():
    source = biased_key_source(1, p_zero=0.6)
    app = otp_application("1")
    report = verify_composition_bound(
        source, app, [otp_majority_zeros_distinguisher("1")],
        mode="sample", trials=5_000, rng=np.random.default_rng(8),
    )
    row = report.rows[0]
    assert abs(row.telescope_residual) <= 1e-12  # same three estimates telescope
    assert report.trials == 5_000
    assert row.within_bound


def test_verify_composition_bound_validation():
    source = biased_key_source(1)
    app = otp_application("1")
    with pytest.raises(ValueError, match="distinguisher"):
        verify_composition_bound(source, app, [])
    with pytest.raises(ValueError, match="rng"):
        verify_composition_bound(source, app, [otp_majority_zeros_distinguisher("1")],
                                 mode="sample")


def test_otp_on_uniform_key_is_perfect():
    # exhaustively: identical ciphertext marginals for every short message
    for n in (1, 2, 3):
        for v in range(2**n):
            message = format(v, f"0{n}b")
            composed = compose(perfect_key_source(n), otp_application(message))
            real_c: dict = {}
            ideal_c: dict = {}
            for (key, view), p in composed.real_dist.items():
                real_c[view[-1]] = real_c.get(view[-1], 0.0) + p
            for (key, view), p in composed.ideal_dist.items():
                ideal_c[view[-1]] = ideal_c.get(view[-1], 0.0) + p
            assert real_c == ideal_c


def test_otp_application_validation():
    with pytest.raises(ValueError):
        otp_application("")
    with pytest.raises(ValueError):
        otp_application("10x")


# ---------------------------------------------------------------------------
# the composed attack


def test_attack_otp_pair_exact_distributions():
    pair = attack_otp_composed_pair(3, "0110")
    assert math.fsum(pair.real_dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(pair.ideal_dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(pair.ideal_dist) == 2**7
    assert len(pair.real_dist) == 2**6  # parity kills half the pads


def test_attack_otp_parity_advantage_is_half():
    for n, message in ((2, "011"), (4, "10101")):
        pair = attack_otp_composed_pair(n, message)
        est = estimate_advantage(pair, otp_prefix_parity_distinguisher(message))
        assert est.mode == "exact"
        assert est.accept_real == pytest.approx(1.0, abs=1e-12)
        assert est.accept_ideal == pytest.approx(0.5, abs=1e-12)
        assert est.advantage == pytest.approx(0.5, abs=1e-12)
        assert est.advantage > pair.declared_eps  # the declared bound is a lie


def test_attack_otp_sampled_agrees():
    message = "11111"
    pair = attack_otp_composed_pair(4, message)
    est = estimate_advantage(pair, otp_prefix_parity_distinguisher(message),
                             mode="sample", trials=4_000, rng=np.random.default_rng(3))
    assert abs(est.advantage - 0.5) <= est.half_width + 0.01
    assert est.accept_real == 1.0  # certainty survives sampling


def test_attack_otp_validation():
    with pytest.raises(ValueError, match="bits"):
        attack_otp_composed_pair(3, "01")
    with pytest.raises(ValueError, match="bitstring"):
        attack_otp_composed_pair(2, "0ab")


# ---------------------------------------------------------------------------
# RSA toy


def test_is_probable_prime_against_sympy():
    for n in range(2000):
        assert is_probable_prime(n) == sympy.isprime(n), n
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2**30, 2**40))
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_is_probable_prime_rejects_carmichael_numbers():
    for n in (561, 1105, 1729, 41041, 825265, 321197185):
        assert not is_probable_prime(n)


def test_is_probable_prime_range_guard():
    with pytest.raises(ValueError):
        is_probable_prime(3_317_044_064_679_887_385_961_981)


def test_generate_toy_rsa_properties():
    rng = np.random.default_rng(21)
    for bits in (16, 32, 48):
        key = generate_toy_rsa(bits, rng)
        assert key.modulus_bits == bits
        assert key.n == key.p * key.q
        assert is_probable_prime(key.p) and is_probable_prime(key.q)
        phi = (key.p - 1) * (key.q - 1)
        assert math.gcd(key.e, phi) == 1
        assert key.e * key.d % phi == 1
        for _ in range(10):
            m = int(rng.integers(0, key.n))
            assert rsa_decrypt(key, rsa_encrypt(key, m)) == m
    with pytest.raises(ValueError):
        generate_toy_rsa(15, rng)
    with pytest.raises(ValueError):
        generate_toy_rsa(65, rng)


def test_rsa_range_validation():
    key = generate_toy_rsa(20, np.random.default_rng(2))
    with pytest.raises(ValueError):
        rsa_encrypt(key, key.n)
    with pytest.raises(ValueError):
        rsa_decrypt(key, -1)


def test_malleability_doubles_the_bid():
    rng = np.random.default_rng(5)
    out = rsa_malleability_demo(777, 32, rng)
    assert out.forgery_doubled
    assert out.bob_bid == 1554
    assert out.winner == "bob"
    tie = rsa_malleability_demo(0, 32, np.random.default_rng(6))
    assert tie.winner == "tie"
    key = generate_toy_rsa(16, np.random.default_rng(7))
    with pytest.raises(ValueError, match="modulus"):
        rsa_malleability_demo(key.n // 2 + 1, key=key)


def test_auction_sweep_bob_always_wins():
    sweep = rsa_auction_sweep(40, 24, 500, np.random.default_rng(9))
    assert sweep.all_forgeries_doubled
    assert sweep.bob_win_rate == 1.0
    assert len(sweep.outcomes) == 40
    with pytest.raises(ValueError):
        rsa_auction_sweep(0)
    with pytest.raises(ValueError, match="max_bid"):
        rsa_auction_sweep(2, 16, 2**20)


def test_half_width_quantile_matches_scipy_stats():
    for confidence in np.linspace(0.5, 0.999, 21):
        z = float(stats.norm.ppf(0.5 + confidence / 2.0))
        expected = z * math.sqrt(0.35 * 0.65 * (2.0 / 1000))
        assert _two_sample_half_width(0.3, 0.4, 1000, float(confidence)) == expected
