import collections
import itertools
import math
import re
import zlib
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _rsa_key, rsa_decrypt, rsa_encrypt, traced_peak
from qkdlab import attack_lab
from qkdlab.attack_lab import build_attack_state, parity_strategy, run_otp_attacks
from qkdlab import composition_harness as ch
from qkdlab.composition_harness import (
    Distinguisher,
    _accept_count_sampled,
    _table,
    KeyApplication,
    ProtocolPair,
    attack_otp_advantage,
    biased_key_source,
    compose,
    estimate_advantage,
    exact_optimal_advantage,
    iid_bits_total_variation,
    is_probable_prime,
    otp_application,
    otp_majority_zeros_distinguisher,
    perfect_key_source,
    rsa_auction_sweep,
    rsa_malleability_demo,
    verify_composition_bound,
)
from qkdlab.security_metrics import canonical_ideal, strategy_acceptance

DECLARED_EPS = 0.25  # the epsilon verify-composition claims for attack-otp by default


def test_numpy_floor_has_generator_spawn():
    # every sampled estimate splits its rng with Generator.spawn, which NumPy 1.25 added:
    # the declared floor must not admit a numpy without it
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.findall(r'"numpy>=(\d+)\.(\d+)[^"]*"', pyproject)
    assert len(floor) == 1 and tuple(map(int, floor[0])) >= (1, 25)


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


def _tv_oracle(key_len: int, p_zero: float) -> float:
    """The total variation of iid_bits_total_variation to 50 digits: each C(k, j) an exact
    integer, the powers of p and 1 - p running products."""
    with mpmath.workdps(50):
        p, q, u = mpmath.mpf(p_zero), 1 - mpmath.mpf(p_zero), mpmath.mpf(2) ** -key_len
        q_powers = [mpmath.mpf(1)]
        for _ in range(key_len):
            q_powers.append(q_powers[-1] * q)
        comb, p_power, total = 1, mpmath.mpf(1), mpmath.mpf(0)
        for j in range(key_len + 1):
            total += comb * abs(p_power * q_powers[key_len - j] - u)
            comb, p_power = comb * (key_len - j) // (j + 1), p_power * p
        return float(total / 2)


@pytest.mark.parametrize("key_len", [1030, 1100, 2500, 10**4])
@pytest.mark.parametrize("p_zero", [0.0, 0.5, 1.0, 0.6, 0.499, 0.5000001, 1e-3])
def test_iid_bits_total_variation_past_the_float_range_of_its_terms(key_len, p_zero):
    # from 1030 bits some C(k, j) is past 2^1024 and 2^-k underflows; the distance is still
    # within 1e-12 of the 50-digit sum, exactly 0 at p = 1/2 and 1 at p = 0 and p = 1
    got = iid_bits_total_variation(key_len, p_zero)
    assert abs(got - _tv_oracle(key_len, p_zero)) <= 1e-12
    if p_zero in (0.0, 0.5, 1.0):
        assert got == float(p_zero != 0.5)


def test_iid_bits_total_variation_sums_its_terms_up_to_1029_bits():
    # the grouped sum runs while every C(k, j) is a finite float, and gives its own bits
    assert float(math.comb(1029, 514)) < math.inf
    with pytest.raises(OverflowError):
        float(math.comb(1030, 515))
    for key_len, p_zero in ((1029, 0.6), (1029, 0.5), (700, 0.499), (1, 0.6)):
        terms = 0.5 * math.fsum(
            math.comb(key_len, j) * abs(p_zero**j * (1.0 - p_zero) ** (key_len - j) - 0.5**key_len)
            for j in range(key_len + 1)
        )
        assert iid_bits_total_variation(key_len, p_zero).hex() == terms.hex()


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


def test_sampled_verdicts_agree_with_exact_mode():
    # exact mode is the oracle: the parity row breaks its bound (advantage
    # 1/2 against 1/4), and the majority row on a biased key keeps it
    message = "1011001"
    assert attack_otp_advantage(6, message, mode="exact").advantage > DECLARED_EPS
    for trials in (2_000, 20_000):
        for seed in range(3):
            est = attack_otp_advantage(6, message, mode="sample", trials=trials,
                                       rng=np.random.default_rng(seed))
            assert est.advantage > DECLARED_EPS + est.half_width + 1e-9, (trials, seed)
    for p_zero, message in ((0.6, "1"), (0.6, "01"), (0.8, "110")):
        source, app = biased_key_source(len(message), p_zero), otp_application(message)
        majority = [otp_majority_zeros_distinguisher(message)]
        assert verify_composition_bound(source, app, majority, mode="exact").all_within_bound
        for seed in range(3):
            report = verify_composition_bound(source, app, majority, mode="sample",
                                              rng=np.random.default_rng(seed))
            assert report.all_within_bound, (message, seed)


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


def test_attack_otp_exact_mode_runs_the_attack_on_every_draw_row(monkeypatch):
    # the real world is the attack's round on each 2n-bit draw (a key, then the
    # n-1 free pad bits: parity fixes the rest), the ideal every (2n+1)-bit row
    rounds, enumerated = [], []
    otp_rounds, bit_rows = ch._otp_rounds, ch._bit_rows
    monkeypatch.setattr(ch, "_otp_rounds", lambda draws, m: rounds.append(draws) or otp_rounds(draws, m))
    monkeypatch.setattr(ch, "_bit_rows", lambda *args: enumerated.append(args) or bit_rows(*args))
    est = attack_otp_advantage(3, "0110", mode="exact")
    assert enumerated == [(6, 0, 64), (7, 0, 128)]
    assert len(rounds) == 1 and np.array_equal(rounds[0], bit_rows(6))
    assert (est.accept_real, est.accept_ideal) == (1.0, 0.5)
    # in blocks that do not divide 2^6, every row is still counted once, in order
    rounds.clear()
    monkeypatch.setattr(ch, "_EXACT_BLOCK_ROWS", 5)
    assert attack_otp_advantage(3, "0110", mode="exact") == est
    assert len(rounds) == 13 and np.array_equal(np.concatenate(rounds), bit_rows(6))


def test_attack_otp_parity_advantage_is_half():
    for n, message in ((2, "011"), (4, "10101")):
        est = attack_otp_advantage(n, message)
        assert est.mode == "exact"
        assert est.accept_real == pytest.approx(1.0, abs=1e-12)
        assert est.accept_ideal == pytest.approx(0.5, abs=1e-12)
        assert est.advantage == pytest.approx(0.5, abs=1e-12)
        assert est.advantage > DECLARED_EPS  # the declared bound is a lie


@pytest.mark.parametrize("n", range(2, 7))
def test_attack_otp_exact_acceptances_are_the_quantum_models(n):
    # the cq-state is the oracle: the parity strategy on the attack state, and
    # on its canonical ideal, accepts exactly as the two worlds do
    cq = build_attack_state(n).cq
    real = strategy_acceptance(cq, parity_strategy(n))
    ideal = strategy_acceptance(canonical_ideal(cq).to_cq(n + 1), parity_strategy(n))
    for message in ("1" * (n + 1), "0" * (n + 1), ("01" * n)[: n + 1]):
        est = attack_otp_advantage(n, message, mode="exact")
        assert (est.accept_real, est.accept_ideal) == (real, ideal)


def test_attack_otp_sampled_agrees():
    est = attack_otp_advantage(4, "11111", mode="sample", trials=4_000, rng=np.random.default_rng(3))
    assert abs(est.advantage - 0.5) <= est.half_width + 0.01
    assert est.accept_real == 1.0  # certainty survives sampling


def test_attack_otp_validation():
    for message in ("01", "01101", "0121"):
        with pytest.raises(ValueError, match="expected 4 bits"):
            attack_otp_advantage(3, message)
    with pytest.raises(ValueError, match="'a'"):
        attack_otp_advantage(2, "0ab")
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            attack_otp_advantage(n, "1" * (n + 1))
    with pytest.raises(ValueError, match="pad_encoding_attack_otp_11 has no exact distributions"):
        attack_otp_advantage(11, "1" * 12, mode="exact")
    with pytest.raises(ValueError, match="rng"):
        attack_otp_advantage(3, "1111", mode="sample")


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
    """The acceptance of ``table`` (or a sample dict) under a one-sample string rule, as fsum over items()."""
    return math.fsum(w for s, w in table.items() if w > 0.0 and accept(s))


def _as_dict(table):
    out = dict(table.items())
    assert len(out) == len(table.codes) == len(table.weights)  # every sample once
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_attack_otp_acceptance_matches_dict_reference(n):
    for message in ("1" * (n + 1), "0" * (n + 1), ("01" * n)[: n + 1]):
        real, ideal = _ref_attack(n, message)
        accept = lambda s: s[1][1].count("1") % 2 == int(_xor(s[1][0], message)[-1])
        est = attack_otp_advantage(n, message, mode="exact")
        assert est.accept_real == _string_accept_prob(real, accept)
        assert est.accept_ideal == _string_accept_prob(ideal, accept)
        assert est.advantage == _ref_tv(real, ideal)  # the parity check is the best test


def test_source_tables_need_no_merge():
    # these tables keep their rows unmerged, so the rows must already be
    # distinct and in code order: merging them must change nothing
    pairs = [make(k) for make in (perfect_key_source, biased_key_source) for k in range(1, 11)]
    for pair in pairs:
        for table in (pair.real_dist, pair.ideal_dist):
            codes, weights = ch._merge(table.codes, table.weights)
            assert np.array_equal(table.codes, codes) and np.array_equal(table.weights, weights)
            assert table.weights.dtype == np.float64


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
            ciphers = _strings(m)
            got = majority(rows([""] * len(ciphers)), (rows(ciphers),))
            assert got.tolist() == [_xor(c, message).count("0") * 2 > m for c in ciphers]
            # the attack round on every draw of n = m - 1 qubits (exact mode's uint8
            # rows, the sampled int64 ones): key, free pad bits, then the rest
            if m < 2:
                continue
            n, draws = m - 1, _strings(2 * (m - 1))
            key, pad, cipher, measured, recovered = ch._otp_rounds(rows(draws), rows([message])[0])
            assert recovered.dtype == dtype
            for d, k, p, c, r_hat, bit in zip(draws, key, pad, cipher, measured, recovered):
                want_pad = d[n + 1 :] + str((d[n + 1 :].count("1") + int(d[n])) % 2)
                assert "".join(map(str, k)) == d[: n + 1] and "".join(map(str, p)) == want_pad
                assert "".join(map(str, c)) == _xor(d[: n + 1], message)
                assert np.array_equal(r_hat, p)  # measured in the right bases
                assert bit == (want_pad.count("1") + int(_xor(d[: n + 1], message)[-1])) % 2 == int(message[-1])


def test_auto_mode_is_exact_up_to_21_bit_samples(monkeypatch):
    monkeypatch.setattr(ch, "_accept_prob", lambda table, decide: 0.0)  # build, skip deciding
    rng = np.random.default_rng(10)
    for n, mode in ((10, "exact"), (11, "sample")):  # 21- and 23-bit trials
        assert attack_otp_advantage(n, "1" * (n + 1), trials=100, rng=rng).mode == mode
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

    for name in ("_convolve", "_bit_rows"):
        monkeypatch.setattr(ch, name, refuse)
    rng = np.random.default_rng(12)
    source, app, majority = biased_key_source(3), otp_application("101"), otp_majority_zeros_distinguisher("101")
    composed = compose(source, app)
    assert estimate_advantage(composed, majority, mode="sample", trials=100, rng=rng).mode == "sample"
    report = verify_composition_bound(source, app, [majority], mode="sample", trials=100, rng=rng)
    assert report.mode == "sample"
    message = "1" * 11
    assert attack_otp_advantage(10, message, mode="sample", trials=100, rng=rng).mode == "sample"
    # exact mode does go through the builders
    with pytest.raises(AssertionError, match="built"):
        estimate_advantage(composed, majority, mode="exact")
    with pytest.raises(AssertionError, match="built"):
        attack_otp_advantage(10, message, mode="exact")
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
    got = _accept_count_sampled(_replay(bits, widths), decide, trials, np.random.default_rng(0))
    assert got == direct


def test_batched_runs_replay_the_per_trial_draws():
    n, message, trials = 3, "0110", 150
    est = attack_otp_advantage(n, message, mode="sample", trials=trials, rng=np.random.default_rng(7))
    real, ideal = np.random.default_rng(7).spawn(2)
    # the real world is the attack's rounds (replayed round by round in test_attack_lab)
    assert est.accept_real == run_otp_attacks(n, message, real, trials).successes / trials
    # an ideal trial is a uniform ciphertext, then a uniform measured pad
    hits = sum(int(ideal.integers(0, 2, size=2 * n + 1)[n:].sum() % 2 == int(message[n])) for _ in range(trials))
    assert est.accept_ideal == hits / trials
    batched, reference = np.random.default_rng(7), np.random.default_rng(7)
    keys, view = biased_key_source(4, p_zero=0.3).real_run(batched, 50)
    assert view == ()
    for row in range(50):
        assert keys[row].tolist() == [0 if reference.random() < 0.3 else 1 for _ in range(4)]


def test_sampled_estimate_ignores_chunk_boundaries(monkeypatch):
    pair = biased_key_source(13)
    majority = lambda keys, views: keys.sum(axis=1) * 2 < 13
    whole = estimate_advantage(pair, majority, mode="sample", trials=1001, rng=np.random.default_rng(4))
    attack = attack_otp_advantage(6, "1011001", mode="sample", trials=1001, rng=np.random.default_rng(4))
    # three 13-bit samples per draw, each draw decided on its own
    monkeypatch.setattr(attack_lab, "_CHUNK_BITS", 40)
    requested = []
    ideal_run = pair.ideal_run

    def recording(rng, trials):
        requested.append(trials)
        return ideal_run(rng, trials)

    small = ProtocolPair(pair.name, 13, pair.declared_eps, pair.real_run, recording)
    chunked = estimate_advantage(small, majority, mode="sample", trials=1001, rng=np.random.default_rng(4))
    assert chunked == whole
    assert sum(requested) == 1001 and max(requested) == 3
    # the attack's worlds draw 12- and 13-bit rows, three to a draw
    assert attack_otp_advantage(6, "1011001", mode="sample", trials=1001, rng=np.random.default_rng(4)) == attack


def test_sampled_memory_does_not_grow_with_trials(monkeypatch):
    monkeypatch.setattr(attack_lab, "_CHUNK_BITS", 2**10)  # 16 samples of 61 bits per draw
    pair = perfect_key_source(61)  # every sample is new

    def peak(count, trials):
        return traced_peak(lambda: count(trials))[1]

    sampled = lambda trials: _accept_count_sampled(pair.ideal_run, _accept_all, trials, np.random.default_rng(0))
    assert peak(sampled, 8_000) < 2 * peak(sampled, 1_000)
    # the attack's worlds draw 60- and 61-bit rows
    attack = lambda trials: attack_otp_advantage(30, "1" * 31, mode="sample", trials=trials, rng=np.random.default_rng(0))
    assert peak(attack, 8_000) < 2 * peak(attack, 1_000)


def _counting(decide):
    """``decide`` wrapped to record the number of rows of every call."""
    def counted(keys, views):
        counted.rows.append(len(keys))
        return decide(keys, views)

    counted.rows = []
    return counted


def test_exact_mode_decides_each_world_table_once():
    source, app = biased_key_source(3), otp_application("101")
    composed = compose(source, app)
    majority = _counting(otp_majority_zeros_distinguisher("101").decide)
    estimate_advantage(composed, majority, mode="exact")
    assert majority.rows == [len(composed.real_dist.codes), len(composed.ideal_dist.codes)]
    majority = _counting(otp_majority_zeros_distinguisher("101").decide)
    verify_composition_bound(source, app, [Distinguisher("m", majority)], mode="exact")
    hybrid = ch._convolve(source.ideal_dist, app.real_dist_given_keys)
    composed = compose(source, app)
    assert majority.rows == [len(t.codes) for t in (composed.real_dist, hybrid, composed.ideal_dist)]


def test_sampled_mode_decides_each_drawn_chunk_once(monkeypatch):
    monkeypatch.setattr(attack_lab, "_CHUNK_BITS", 40)  # three 13-bit samples per draw
    pair = perfect_key_source(13)
    drawn = []

    def recording(rng, trials):
        drawn.append(trials)
        return pair.ideal_run(rng, trials)

    majority = _counting(lambda keys, views: keys.sum(axis=1) * 2 < 13)
    _accept_count_sampled(recording, majority, 1001, np.random.default_rng(4))
    assert drawn[0] == 0  # the layout draw is not decided
    assert majority.rows == drawn[1:] and sum(majority.rows) == 1001 and max(majority.rows) == 3


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
    composed = compose(perfect_key_source(41), otp_application(message))  # 82-bit samples
    assert not composed.has_exact_dists
    est = estimate_advantage(composed, otp_majority_zeros_distinguisher(message), mode="sample",
                             trials=2_000, rng=np.random.default_rng(5))
    assert abs(est.accept_real - 0.5) <= 0.05 and abs(est.accept_ideal - 0.5) <= 0.05
    est = attack_otp_advantage(40, message, mode="sample", trials=2_000, rng=np.random.default_rng(5))  # 81-bit trials
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


def test_is_probable_prime_rejects_strong_pseudoprimes():
    # Carmichael numbers, then the first strong pseudoprimes to the bases {2},
    # {2, 3}, {2, 3, 5} and {2, 3, 5, 7}
    fooling = [561, 1105, 1729, 41041, 825265, 321197185, 2047, 1373653, 25326001, 3215031751]
    assert not any(is_probable_prime(n) for n in fooling)
    assert not is_probable_prime(2**32 - 1)  # 3 * 5 * 17 * 257 * 65537
    assert is_probable_prime(4294967291)  # the largest prime below 2**32


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
    # the key generator's table is this sieve's first 2**16 entries
    assert np.array_equal(ch._prime_table(), sieve[:2**16])


def test_prime_table_decides_every_factor_below_2_to_the_16():
    table = ch._prime_table()
    assert table.shape == (2**16,)
    assert table.tolist() == [sympy.isprime(k) for k in range(2**16)]
    assert table[65521] and not table[65535]  # the largest prime below 2**16, and 3 * 5 * 17 * 257


def test_prime_table_is_built_once_per_process():
    ch._prime_table.cache_clear()
    rsa_auction_sweep(50, 32, 1000, np.random.default_rng(5))
    rsa_auction_sweep(50, 24, 1000, np.random.default_rng(6))
    assert ch._prime_table()[np.array([3, 4], dtype=np.uint64)].tolist() == [True, False]
    assert ch._prime_table.cache_info().misses == 1
    assert not ch._prime_table().flags.writeable  # every caller shares the one table


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


def test_toy_rsa_key_properties():
    rng = np.random.default_rng(21)
    for bits in (16, 24, 32):
        [key] = _keys(1, bits, rng)
        assert key.modulus_bits == bits
        assert key.n == key.p * key.q
        assert is_probable_prime(key.p) and is_probable_prime(key.q)
        phi = (key.p - 1) * (key.q - 1)
        assert math.gcd(key.e, phi) == 1
        assert key.e * key.d % phi == 1
        for _ in range(10):
            m = int(rng.integers(0, key.n))
            assert rsa_decrypt(key, rsa_encrypt(key, m)) == m
    # the range is checked by the public entry points, before any bid
    for bits in (15, 33, 48, 64, 65):
        with pytest.raises(ValueError, match=r"modulus_bits must lie in \[16, 32\]"):
            rsa_malleability_demo(10**30, bits, rng)
        with pytest.raises(ValueError, match=r"modulus_bits must lie in \[16, 32\]"):
            rsa_auction_sweep(1, bits, 10**30, rng)


def _valid_factor_pairs(modulus_bits: int) -> dict[tuple[int, int], int]:
    """Every (p, q) that one-pair-at-a-time rejection sampling accepts, by the scalar
    oracle: p has ``modulus_bits - modulus_bits // 2`` bits, q the rest; the value is e."""
    half = modulus_bits // 2

    def primes(bits):
        return [n for n in range(2 ** (bits - 1) + 1, 2**bits, 2) if is_probable_prime(n)]

    valid = {}
    for p, q in itertools.product(primes(modulus_bits - half), primes(half)):
        phi = (p - 1) * (q - 1)
        e = next((c for c in ch._PUBLIC_EXPONENTS if c < phi and math.gcd(c, phi) == 1), None)
        if p != q and (p * q).bit_length() == modulus_bits and e is not None:
            valid[p, q] = e
    return valid


def _keys(count: int, modulus_bits: int, rng: np.random.Generator) -> list:
    """The keys of a batched draw, as scalar ``RsaKey`` objects."""
    return [_rsa_key(*key) for key in zip(*(c.tolist() for c in ch._toy_rsa_factors(count, modulus_bits, rng)))]


@pytest.mark.parametrize("modulus_bits", [16, 17])
def test_batched_keys_are_uniform_over_the_valid_factor_pairs(modulus_bits):
    valid = _valid_factor_pairs(modulus_bits)
    draws = 20_000
    keys = _keys(draws, modulus_bits, np.random.default_rng(18))
    assert len(keys) == draws
    assert all((key.p, key.q) in valid and key.e == valid[key.p, key.q] for key in keys)
    counts = collections.Counter((key.p, key.q) for key in keys)
    share = 1.0 / len(valid)
    sigma = math.sqrt(draws * share * (1.0 - share))
    assert all(abs(counts[pair] - draws * share) <= 5.0 * sigma for pair in valid)


def test_auction_sweep_draws_keys_in_batches(monkeypatch):
    # one draw for the bids, then one for p and one for q per chunk of candidates;
    # a draw for each candidate and each bid would be 19,094 calls here
    def scalar_test(n):
        raise AssertionError("the scalar prime test ran")

    calls = []

    class CountingGenerator(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(kwargs.get("size"))
            return super().integers(*args, **kwargs)

    monkeypatch.setattr(ch, "is_probable_prime", scalar_test)
    sweep = rsa_auction_sweep(1000, 32, 1000, CountingGenerator(np.random.PCG64(1111)))
    assert sweep.all_forgeries_doubled and len(sweep.outcomes) == 1000
    assert calls == [1000] + [ch._KEY_CHUNK] * 6
    # one key draws modulus_bits candidates per factor, not a whole chunk
    calls.clear()
    outcome = rsa_malleability_demo(100, 32, CountingGenerator(np.random.PCG64(1111)))
    assert outcome.modulus_bits == 32
    assert calls == [32, 32]


def test_rsa_range_validation():
    [key] = _keys(1, 20, np.random.default_rng(2))
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
    with pytest.raises(ValueError, match="modulus"):
        rsa_malleability_demo(2**15, 16, np.random.default_rng(7))  # 2 bid has 17 bits


def test_auction_sweep_bob_always_wins():
    sweep = rsa_auction_sweep(40, 24, 500, np.random.default_rng(9))
    assert sweep.all_forgeries_doubled
    assert sweep.bob_win_rate == 1.0
    assert len(sweep.outcomes) == 40
    with pytest.raises(ValueError):
        rsa_auction_sweep(0)
    with pytest.raises(ValueError, match="max_bid too large"):
        rsa_auction_sweep(2, 16, 2**20)
    with pytest.raises(ValueError, match="max_bid must be at least 1"):
        rsa_auction_sweep(2, 16, 0)


@pytest.mark.parametrize("modulus_bits", [16, 24, 32])
def test_array_auctions_match_the_scalar_rsa_oracle(modulus_bits):
    # the uint64 batch mod n against pow(c, d, n) on Python ints, key by key
    def opened(key, bid):
        return rsa_decrypt(key, rsa_encrypt(key, 2) * rsa_encrypt(key, bid) % key.n)

    count = 400
    max_bid = (1 << (modulus_bits - 2)) - 1  # the largest bid the sweep's rule lets through
    rng = np.random.default_rng(modulus_bits)
    p, q, e = ch._toy_rsa_factors(count, modulus_bits, rng)
    bids = rng.integers(0, max_bid + 1, size=count, dtype=np.uint64)
    factor = np.where(np.arange(count) % 2 == 0, p, q)
    bids[::3] = factor[::3] * (bids[::3] // factor[::3])  # p or q divides these bids
    bids[:2] = 0, max_bid
    keys = [_rsa_key(*key) for key in zip(p.tolist(), q.tolist(), e.tolist())]
    for outcome, key, bid in zip(ch._auctions(bids, p, q, e).outcomes(), keys, bids.tolist()):
        assert outcome.bob_bid == opened(key, bid) == 2 * bid
        assert (outcome.modulus_bits, outcome.n, outcome.e, outcome.alice_bid) == (modulus_bits, key.n, key.e, bid)
        assert outcome.forgery_doubled and outcome.winner == ("tie" if bid == 0 else "bob")
    assert sum(math.gcd(bid, key.n) > 1 for key, bid in zip(keys, bids.tolist()) if bid) >= count // 3 - 1
    # the sweep itself: its bids, then its keys, are these draws
    sweep = rsa_auction_sweep(count, modulus_bits, max_bid, np.random.default_rng(1))
    draws = np.random.default_rng(1)
    bids = draws.integers(1, max_bid + 1, size=count).tolist()
    for outcome, key, bid in zip(sweep.outcomes, _keys(count, modulus_bits, draws), bids, strict=True):
        assert (outcome.n, outcome.e, outcome.alice_bid, outcome.bob_bid) == (key.n, key.e, bid, opened(key, bid))


def test_malleability_demo_is_a_batch_of_one():
    factors = ch._toy_rsa_factors(1, 24, np.random.default_rng(3))
    [key] = _keys(1, 24, np.random.default_rng(3))  # the same draw, as a scalar key
    [outcome] = ch._auctions(np.array([5 * key.q]), *factors).outcomes()  # q divides the bid
    assert (outcome.n, outcome.e, outcome.bob_bid, outcome.winner) == (key.n, key.e, 10 * key.q, "bob")
    assert rsa_malleability_demo(777, 24, np.random.default_rng(3)) == ch._auctions(np.array([777]), *factors).outcomes()[0]
