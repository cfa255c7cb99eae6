import itertools
import math
import tracemalloc
import zlib

import numpy as np
import pytest
import sympy
from scipy import stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import attack_lab
from qkdlab import composition_harness as ch
from qkdlab.attack_lab import sample_pad
from qkdlab.composition_harness import (
    Distinguisher,
    _accept_prob_sampled,
    _table,
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
    bits = lambda rng, trials: (np.zeros((trials, 1), np.int64), ())
    table = lambda p: _table(np.zeros((1, 1), np.uint8), p, (1,))
    pair = ProtocolPair("x", 1, 0.0, bits, bits, build_exact=lambda: (table(0.9), table(1.0)))
    with pytest.raises(ValueError, match="sums"):
        pair.real_dist


def _accept_all(keys, views):
    return np.ones(len(keys), dtype=bool)


def test_estimate_advantage_modes_and_validation():
    pair = biased_key_source(1, p_zero=0.6)
    key_is_zero = lambda keys, views: keys[:, 0] == 0
    exact = estimate_advantage(pair, key_is_zero, mode="exact")
    assert exact.advantage == pytest.approx(0.1, abs=1e-15)
    assert exact.half_width == 0.0 and exact.mode == "exact"
    auto = estimate_advantage(pair, key_is_zero)
    assert auto.mode == "exact"
    rng = np.random.default_rng(0)
    sampled = estimate_advantage(pair, key_is_zero, mode="sample",
                                 trials=20_000, rng=rng)
    assert sampled.mode == "sample"
    assert abs(sampled.advantage - 0.1) <= sampled.half_width + 0.01
    with pytest.raises(ValueError, match="rng"):
        estimate_advantage(pair, _accept_all, mode="sample")
    with pytest.raises(ValueError, match="100 trials"):
        estimate_advantage(pair, _accept_all, mode="sample", trials=10,
                           rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="mode"):
        estimate_advantage(pair, _accept_all, mode="bogus")


def test_exact_optimal_advantage_is_total_variation():
    pair = biased_key_source(2, p_zero=0.6)
    assert exact_optimal_advantage(pair) == pytest.approx(
        iid_bits_total_variation(2, 0.6), abs=1e-12
    )
    # no distinguisher can beat it
    for decide in (lambda keys, views: (keys == 0).sum(axis=1) >= 1,
                   lambda keys, views: (keys == 0).all(axis=1)):
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
    assert math.fsum(composed.real_dist.weights) == pytest.approx(1.0, abs=1e-12)
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
    assert math.fsum(pair.real_dist.weights) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(pair.ideal_dist.weights) == pytest.approx(1.0, abs=1e-12)
    assert len(pair.ideal_dist.codes) == 2**7
    assert len(pair.real_dist.codes) == 2**6  # parity kills half the pads


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
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            attack_otp_composed_pair(n, "1" * (n + 1))


# ---------------------------------------------------------------------------
# exact tables against a brute-force dict reference


def _strings(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def _xor(a, b):
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def _ref_attack(n, message):
    real = {}
    for key in _strings(n + 1):
        for pad in _strings(n):
            if pad.count("1") % 2 == int(key[n]):
                real[("", (_xor(key, message), pad))] = 0.5 ** (2 * n)
    ideal = {("", (c, p)): 0.5 ** (2 * n + 1) for c in _strings(n + 1) for p in _strings(n)}
    return real, ideal


def _ref_sources(k):
    uniform = {(key, ()): 0.5**k for key in _strings(k)}
    biased = {(key, ()): 0.6 ** key.count("0") * (1.0 - 0.6) ** key.count("1") for key in _strings(k)}
    return {biased_key_source: (biased, uniform), perfect_key_source: (uniform, dict(uniform))}


def _ref_convolve(dist, given):
    out = {}
    for (key, view), p in dist.items():
        for app_view, q in given(key).items():
            sample = (key, view + app_view)
            out[sample] = out.get(sample, 0.0) + p * q
    return out


def _ref_tv(real, ideal):
    return 0.5 * math.fsum(abs(real.get(s, 0.0) - ideal.get(s, 0.0)) for s in set(real) | set(ideal))


def _string_accept_prob(table, accept):
    """The acceptance of ``table`` under a one-sample string rule, as fsum over items()."""
    return math.fsum(w for s, w in table.items() if w > 0.0 and accept(s))


def _as_dict(table):
    out = dict(table.items())
    assert len(out) == len(table.codes) == len(table.weights)  # every sample once
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_attack_otp_tables_match_dict_reference(n):
    for message in ("1" * (n + 1), "0" * (n + 1), ("01" * n)[: n + 1]):
        pair = attack_otp_composed_pair(n, message)
        real, ideal = _ref_attack(n, message)
        assert _as_dict(pair.real_dist) == real
        assert _as_dict(pair.ideal_dist) == ideal
        assert exact_optimal_advantage(pair) == _ref_tv(real, ideal)
        parity = otp_prefix_parity_distinguisher(message).decide
        accept = lambda s: s[1][1].count("1") % 2 == int(_xor(s[1][0], message)[-1])
        for table in (pair.real_dist, pair.ideal_dist):
            assert ch._accept_prob(table, parity) == _string_accept_prob(table, accept)


def test_composed_and_hybrid_tables_match_dict_reference():
    for m in (1, 2, 3):
        for make, (src_real, src_ideal) in _ref_sources(m).items():
            for message in _strings(m):
                source, app = make(m), otp_application(message)
                real_given = lambda key: {(_xor(key, message),): 1.0}
                ideal_given = lambda key: {(c,): 0.5**m for c in _strings(m)}
                real = _ref_convolve(src_real, real_given)
                hybrid = _ref_convolve(src_ideal, real_given)
                ideal = _ref_convolve(src_ideal, ideal_given)
                composed = compose(source, app)
                hybrid_table = ch._convolve(source.ideal_dist, app.real_dist_given_keys)
                assert _as_dict(composed.real_dist) == real
                assert _as_dict(composed.ideal_dist) == ideal
                assert _as_dict(hybrid_table) == hybrid
                assert exact_optimal_advantage(composed) == _ref_tv(real, ideal)
                # the exact report sums the same weights over the same accepted samples
                accept = lambda s: _xor(s[1][-1], message).count("0") * 2 > m
                p_rr, p_ir, p_ii = (
                    math.fsum(p for s, p in dist.items() if accept(s)) for dist in (real, hybrid, ideal)
                )
                d = otp_majority_zeros_distinguisher(message)
                for table in (composed.real_dist, hybrid_table, composed.ideal_dist):
                    assert ch._accept_prob(table, d.decide) == _string_accept_prob(table, accept)
                row = verify_composition_bound(source, app, [d], mode="exact").rows[0]
                assert row.advantage_total == abs(p_rr - p_ii)
                assert row.advantage_source_step == abs(p_rr - p_ir)
                assert row.advantage_app_step == abs(p_ir - p_ii)


def test_distinguishers_match_string_xor():
    # tables unpack to uint8 rows, sampled runs draw int64 rows
    for dtype, m in itertools.product((np.uint8, np.int64), (1, 2, 3, 4)):
        rows = lambda strings: np.array([list(map(int, s)) for s in strings], dtype).reshape(len(strings), -1)
        for message in _strings(m):
            majority = otp_majority_zeros_distinguisher(message).decide
            parity = otp_prefix_parity_distinguisher(message).decide
            ciphers = _strings(m)
            got = majority(rows([""] * len(ciphers)), (rows(ciphers),))
            assert got.tolist() == [_xor(c, message).count("0") * 2 > m for c in ciphers]
            pairs = list(itertools.product(ciphers, _strings(m - 1)))
            got = parity(rows([""] * len(pairs)), (rows([c for c, _ in pairs]), rows([p for _, p in pairs])))
            assert got.tolist() == [p.count("1") % 2 == int(_xor(c, message)[-1]) for c, p in pairs]


def test_auto_mode_is_exact_up_to_21_bit_samples(monkeypatch):
    monkeypatch.setattr(ch, "_accept_prob", lambda table, decide: 0.0)  # build, skip deciding
    rng = np.random.default_rng(10)
    for n, mode in ((10, "exact"), (11, "sample")):
        message = "1" * (n + 1)
        pair = attack_otp_composed_pair(n, message)
        est = estimate_advantage(pair, otp_prefix_parity_distinguisher(message), trials=100, rng=rng)
        assert est.mode == mode
    for make in (biased_key_source, perfect_key_source):
        for m, mode in ((10, "exact"), (11, "sample")):
            message = "1" * m
            d = otp_majority_zeros_distinguisher(message)
            report = verify_composition_bound(make(m), otp_application(message), [d], trials=100, rng=rng)
            assert report.mode == mode
    # a standalone source's samples are its keys
    assert perfect_key_source(21).has_exact_dists and not perfect_key_source(22).has_exact_dists


def test_sample_mode_builds_no_exact_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("built an exact table")

    for name in ("_attack_otp_tables", "_convolve", "_bit_rows"):
        monkeypatch.setattr(ch, name, refuse)
    rng = np.random.default_rng(12)
    message = "1" * 11
    pair = attack_otp_composed_pair(10, message)
    parity = otp_prefix_parity_distinguisher(message)
    assert estimate_advantage(pair, parity, mode="sample", trials=100, rng=rng).mode == "sample"
    source, app, majority = biased_key_source(3), otp_application("101"), otp_majority_zeros_distinguisher("101")
    report = verify_composition_bound(source, app, [majority], mode="sample", trials=100, rng=rng)
    assert report.mode == "sample"
    # exact mode does go through the builders
    with pytest.raises(AssertionError, match="built"):
        estimate_advantage(pair, parity, mode="exact")
    with pytest.raises(AssertionError, match="built"):
        verify_composition_bound(source, app, [majority], mode="exact")


# ---------------------------------------------------------------------------
# batched sampling


def _replay(bits: np.ndarray, widths: list[int]):
    """A run handing out the rows of ``bits`` in order, split by ``widths``."""
    edges = np.cumsum([0, *widths])
    position = 0

    def run(rng, trials):
        nonlocal position
        rows = bits[position : position + trials]
        position += trials
        parts = [rows[:, a:b] for a, b in zip(edges, edges[1:])]
        return parts[0], tuple(parts[1:])

    return run


@given(
    widths=st.lists(st.integers(0, 70), min_size=1, max_size=3),
    trials=st.integers(1, 300),
    p_one=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    salt=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_histogram_acceptance_counts_every_trial(widths, trials, p_one, seed, salt):
    bits = (np.random.default_rng(seed).random((trials, sum(widths))) < p_one).astype(np.int64)

    def hashed(parts):
        sample = ("".join(map(str, parts[0])), tuple("".join(map(str, p)) for p in parts[1:]))
        return zlib.crc32(repr((sample, salt)).encode()) % 3 == 0

    def decide(keys, views):
        return np.array([hashed([keys[i], *(v[i] for v in views)]) for i in range(len(keys))], dtype=bool)

    edges = np.cumsum([0, *widths])
    direct = sum(hashed([row[a:b] for a, b in zip(edges, edges[1:])]) for row in bits)
    got = _accept_prob_sampled(_replay(bits, widths), decide, trials, np.random.default_rng(0))
    assert got == direct / trials


def test_batched_runs_replay_the_per_trial_draws():
    n, message = 3, "0110"
    m = [int(b) for b in message]
    pair = attack_otp_composed_pair(n, message)
    batched, reference = np.random.default_rng(7), np.random.default_rng(7)
    key, (cipher, pad) = pair.real_run(batched, 50)
    assert key.shape == (50, 0)
    for row in range(50):
        s = reference.integers(0, 2, size=n + 1)
        assert cipher[row].tolist() == [a ^ b for a, b in zip(s.tolist(), m)]
        assert pad[row].tolist() == list(sample_pad(n, int(s[n]), reference))
    _, (cipher, pad) = pair.ideal_run(batched, 50)
    for row in range(50):
        assert cipher[row].tolist() == reference.integers(0, 2, size=n + 1).tolist()
        assert pad[row].tolist() == reference.integers(0, 2, size=n).tolist()
    keys, view = biased_key_source(4, p_zero=0.3).real_run(batched, 50)
    assert view == ()
    for row in range(50):
        assert keys[row].tolist() == [0 if reference.random() < 0.3 else 1 for _ in range(4)]


def test_sampled_estimate_ignores_chunk_boundaries(monkeypatch):
    message = "1011001"
    pair = attack_otp_composed_pair(6, message)
    parity = otp_prefix_parity_distinguisher(message)
    whole = estimate_advantage(pair, parity, mode="sample", trials=1001, rng=np.random.default_rng(4))
    # three 13-bit samples per draw, each draw decided on its own
    monkeypatch.setattr(attack_lab, "_CHUNK_BITS", 40)
    requested = []
    ideal_run = pair.ideal_run

    def recording(rng, trials):
        requested.append(trials)
        return ideal_run(rng, trials)

    small = ProtocolPair(pair.name, 0, pair.declared_eps, pair.real_run, recording)
    chunked = estimate_advantage(small, parity, mode="sample", trials=1001, rng=np.random.default_rng(4))
    assert chunked == whole
    assert sum(requested) == 1001 and max(requested) == 3


def test_sampled_memory_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(attack_lab, "_CHUNK_BITS", 2**10)  # 16 samples of 61 bits per draw
    pair = attack_otp_composed_pair(30, "1" * 31)  # every ideal sample is new

    def peak(trials):
        tracemalloc.start()
        try:
            _accept_prob_sampled(pair.ideal_run, _accept_all, trials, np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8_000) < 2 * peak(1_000)


def _counting(decide):
    """``decide`` wrapped to record the number of rows of every call."""
    def counted(keys, views):
        counted.rows.append(len(keys))
        return decide(keys, views)

    counted.rows = []
    return counted


def test_exact_mode_decides_each_world_table_once():
    message = "10110"
    pair = attack_otp_composed_pair(4, message)
    parity = _counting(otp_prefix_parity_distinguisher(message).decide)
    estimate_advantage(pair, parity, mode="exact")
    assert parity.rows == [len(pair.real_dist.codes), len(pair.ideal_dist.codes)]
    source, app = biased_key_source(3), otp_application("101")
    majority = _counting(otp_majority_zeros_distinguisher("101").decide)
    verify_composition_bound(source, app, [Distinguisher("m", majority)], mode="exact")
    hybrid = ch._convolve(source.ideal_dist, app.real_dist_given_keys)
    composed = compose(source, app)
    assert majority.rows == [len(t.codes) for t in (composed.real_dist, hybrid, composed.ideal_dist)]


def test_sampled_mode_decides_each_drawn_chunk_once(monkeypatch):
    monkeypatch.setattr(attack_lab, "_CHUNK_BITS", 40)  # three 13-bit samples per draw
    message = "1011001"
    pair = attack_otp_composed_pair(6, message)
    drawn = []

    def recording(rng, trials):
        drawn.append(trials)
        return pair.ideal_run(rng, trials)

    parity = _counting(otp_prefix_parity_distinguisher(message).decide)
    _accept_prob_sampled(recording, parity, 1001, np.random.default_rng(4))
    assert drawn[0] == 0  # the layout draw is not decided
    assert parity.rows == drawn[1:] and sum(parity.rows) == 1001 and max(parity.rows) == 3


@pytest.mark.parametrize("bad", [
    lambda keys, views: True,
    lambda keys, views: np.ones(len(keys) + 1, dtype=bool),
    lambda keys, views: np.ones(len(keys) - 1, dtype=bool),
    lambda keys, views: np.ones((len(keys), 1), dtype=bool),
])
def test_decide_must_give_one_flag_per_row(bad):
    pair = biased_key_source(2)
    for mode in ("exact", "sample"):
        with pytest.raises(ValueError, match="one flag per row"):
            estimate_advantage(pair, bad, mode=mode, trials=100, rng=np.random.default_rng(0))
    app = otp_application("01")
    for mode in ("exact", "sample"):
        with pytest.raises(ValueError, match="one flag per row"):
            verify_composition_bound(pair, app, [Distinguisher("bad", bad)], mode=mode,
                                     trials=100, rng=np.random.default_rng(0))


def test_sampled_mode_has_no_width_limit():
    message = "1" * 41
    pair = attack_otp_composed_pair(40, message)  # 81-bit samples
    assert not pair.has_exact_dists
    est = estimate_advantage(pair, otp_prefix_parity_distinguisher(message), mode="sample",
                             trials=2_000, rng=np.random.default_rng(5))
    assert est.accept_real == 1.0
    assert abs(est.accept_ideal - 0.5) <= 0.05


def test_sampled_mode_handles_empty_samples():
    pair = perfect_key_source(0)
    empty = lambda keys, views: np.full(len(keys), keys.shape[1] == 0 and views == ())
    est = estimate_advantage(pair, empty, mode="sample", trials=100, rng=np.random.default_rng(6))
    assert est.accept_real == est.accept_ideal == 1.0


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


def test_three_witness_path_is_exact_on_every_odd_n_below_2e6():
    # below 4,759,123,141 only the witnesses {2, 7, 61} run; the 12-witness
    # path is deterministic there too, so both must match a sieve
    limit = 2_000_000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    odd = range(1, limit, 2)
    assert [is_probable_prime(n) for n in odd] == sieve[1::2].tolist()


def test_three_witness_path_agrees_with_the_12_witness_path(monkeypatch):
    rng = np.random.default_rng(2024)
    odd = (rng.integers(2**31, 2**32, size=100_000) | 1).tolist()
    fast = [is_probable_prime(n) for n in odd]
    monkeypatch.setattr(ch, "_MR_SMALL_BELOW", 0)
    assert fast == [is_probable_prime(n) for n in odd]
    assert sum(fast) > 8000  # about 1 in 11 odd 32-bit numbers is prime


def test_three_witness_bound_is_the_first_strong_pseudoprime(monkeypatch):
    n = 4_759_123_141
    assert n == 48781 * 97561 == ch._MR_SMALL_BELOW
    assert not is_probable_prime(n)
    monkeypatch.setattr(ch, "_MR_SMALL_BELOW", n + 1)
    assert is_probable_prime(n)  # {2, 7, 61} alone are all fooled by it
    assert is_probable_prime(61)  # a witness equal to n proves nothing
    # the first strong pseudoprime to 2 and 7 (and 3, 5) is below the bound: 61 rejects it
    assert 3_215_031_751 == 151 * 751 * 28351 and not is_probable_prime(3_215_031_751)


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
