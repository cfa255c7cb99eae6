import csv
import io
import itertools
import math

import numpy as np
import pytest

from qkdlab import attack_lab
from qkdlab.attack_lab import (
    AttackState,
    SecrecyGapReport,
    basis_guess_probability,
    build_attack_state,
    fully_mixed_marginal_check,
    measure_encoded_qubit,
    parity_guess_curve,
    parity_guess_curve_csv,
    parity_strategy,
    run_otp_attack,
    run_otp_attacks,
    sample_pad,
    secrecy_gap_report,
    single_qubit_guess_oracle,
)
from qkdlab.quantum_core import CqState, DensityOperator, bb84_encode, product_pure, to_density
from qkdlab.security_metrics import canonical_ideal, secrecy_eps_lower, secrecy_eps_upper, strategy_acceptance

COS2_PI_8 = math.cos(math.pi / 8) ** 2


# ---------------------------------------------------------------------------
# state construction


def test_build_attack_state_shape():
    st = build_attack_state(2)
    assert st.n == 2
    assert st.cq.key_len == 3
    assert st.cq.dim == 4
    assert len(st.cq.branches) == 8
    assert st.cq.p_perp == 0.0
    for label, (p, _) in st.cq.branches.items():
        assert p == pytest.approx(2.0**-3, abs=1e-15)
        assert set(label) <= {"0", "1"}


def test_build_attack_state_bounds():
    with pytest.raises(ValueError):
        build_attack_state(1)
    with pytest.raises(ValueError):
        build_attack_state(8)
    with pytest.raises(ValueError):
        build_attack_state(3, max_qubits=2)  # cap is adjustable


def test_attack_state_matches_direct_mixture():
    # independent construction: average the pad-state projectors directly
    n = 2
    st = build_attack_state(n)
    for s in itertools.product([0, 1], repeat=n + 1):
        label = "".join(map(str, s))
        pads = [r for r in itertools.product([0, 1], repeat=n) if sum(r) % 2 == s[n]]
        acc = np.zeros((2**n, 2**n), dtype=np.complex128)
        for r in pads:
            amps = product_pure([bb84_encode(r[i], s[i]) for i in range(n)]).amplitudes
            acc += np.outer(amps, amps.conj()) / len(pads)
        assert np.abs(st.cq.branches[label][1].matrix - acc).max() < 1e-12


def test_bit_rows_enumerate_like_itertools():
    for n in range(7):
        rows = attack_lab._bit_rows(n)
        assert rows.dtype == np.uint8 and rows.shape == (2**n, n)
        assert rows.tolist() == [list(r) for r in itertools.product((0, 1), repeat=n)]


def _itertools_attack_matrices(n):
    # the state built from itertools enumerations of keys and pads, with
    # the same Kronecker products as build_attack_state
    amps = np.array([[bb84_encode(r, s).amplitudes for r in (0, 1)] for s in (0, 1)])
    keys = np.array(list(itertools.product((0, 1), repeat=n + 1)))
    by_parity = [
        [p + ((parity ^ (sum(p) & 1)),) for p in itertools.product((0, 1), repeat=n - 1)]
        for parity in (0, 1)
    ]
    pads = np.array(by_parity)[keys[:, -1]]
    rows = np.ones((len(keys), pads.shape[1], 1), dtype=np.complex128)
    for i in range(n):
        factor = amps[keys[:, i, None], pads[:, :, i]]
        rows = (rows[:, :, :, None] * factor[:, :, None, :]).reshape(len(keys), pads.shape[1], -1)
    branches = {
        "".join(map(str, s)): (2.0 ** -(n + 1), DensityOperator(2.0 ** -(n - 1) * (r.T @ r.conj())))
        for s, r in zip(keys.tolist(), rows)
    }
    return CqState(key_len=n + 1, branches=branches).matrices


def test_attack_state_is_bit_identical_to_itertools_build():
    for n in range(2, 6):
        assert np.array_equal(build_attack_state(n).cq.matrices, _itertools_attack_matrices(n))


def test_marginal_check_passes_for_real_state():
    for n in (2, 3, 4):
        check = fully_mixed_marginal_check(build_attack_state(n))
        assert check.passed
        assert check.max_deviation < 1e-9


def test_marginal_check_detects_corruption():
    st = build_attack_state(2)
    branches = dict(st.cq.branches)
    skew = to_density(product_pure([bb84_encode(0, 0), bb84_encode(0, 0)]))
    for label in ("000", "001"):
        branches[label] = (branches[label][0], skew)
    bad = AttackState(2, CqState(3, branches))
    check = fully_mixed_marginal_check(bad)
    assert not check.passed
    assert check.max_deviation > 0.1


def test_marginal_check_requires_full_branch_set():
    rho = DensityOperator.fully_mixed(4)
    partial = CqState(3, {"000": (0.5, rho), "111": (0.5, rho)})
    with pytest.raises(ValueError, match="missing"):
        fully_mixed_marginal_check(AttackState(2, partial))


# ---------------------------------------------------------------------------
# single-qubit measurement behaviour


def test_measure_encoded_qubit_same_basis_is_certain():
    rng = np.random.default_rng(0)
    for r in (0, 1):
        for s in (0, 1):
            assert all(measure_encoded_qubit(r, s, s, rng) == r for _ in range(20))


def test_measure_encoded_qubit_cross_basis_is_fair_coin():
    rng = np.random.default_rng(1)
    trials = 4000
    hits = sum(measure_encoded_qubit(0, 0, 1, rng) for _ in range(trials))
    # Born rule gives exactly 1/2; allow 3 sigma
    sigma = math.sqrt(trials * 0.25)
    assert abs(hits - trials / 2) <= 3 * sigma
    with pytest.raises(ValueError):
        measure_encoded_qubit(0, 0, 2, rng)


def test_sample_pad_respects_parity_and_is_uniform():
    rng = np.random.default_rng(2)
    counts: dict[tuple[int, ...], int] = {}
    trials = 4000
    for _ in range(trials):
        pad = sample_pad(3, 1, rng)
        assert sum(pad) % 2 == 1
        counts[pad] = counts.get(pad, 0) + 1
    assert len(counts) == 4
    expected = trials / 4
    sigma = math.sqrt(trials * 0.25 * 0.75)
    for c in counts.values():
        assert abs(c - expected) <= 4 * sigma


# ---------------------------------------------------------------------------
# the attack itself


def test_attack_recovers_hidden_bit_always():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        for _ in range(300):
            assert run_otp_attack(n, "1" * (n + 1), rng).success


def test_attack_transcript_is_self_consistent():
    rng = np.random.default_rng(4)
    t = run_otp_attack(3, (1, 0, 1, 1), rng)
    assert t.ciphertext == tuple(m ^ s for m, s in zip(t.message, t.key))
    assert t.recovered_bases == t.key[:3]
    assert t.measured_pad == t.pad  # correct bases read the pad exactly
    assert t.recovered_bit == (sum(t.measured_pad) % 2) ^ t.ciphertext[-1]


def test_attack_with_wrong_bases_is_a_coin_flip():
    rng = np.random.default_rng(5)
    trials = 2000
    wins = sum(run_otp_attack(2, "101", rng, wrong_basis=True).success for _ in range(trials))
    sigma = math.sqrt(trials * 0.25)
    assert abs(wins - trials / 2) <= 3 * sigma


def _reference_round(n, m, rng, wrong_basis):
    """One attack round as a plain loop over qubits: (key, measured pad, recovered bit)."""
    s = tuple(int(b) for b in rng.integers(0, 2, size=n + 1))
    prefix = tuple(int(b) for b in rng.integers(0, 2, size=n - 1))
    r = prefix + ((s[n] + sum(prefix)) % 2,)
    c = tuple(mi ^ si for mi, si in zip(m, s))
    bases = tuple(m[i] ^ c[i] ^ wrong_basis for i in range(n))
    r_hat = tuple(measure_encoded_qubit(r[i], s[i], bases[i], rng) for i in range(n))
    return s, r_hat, sum(r_hat) % 2 ^ c[n]


@pytest.mark.parametrize("wrong_basis", [False, True])
def test_batched_attack_replays_the_per_round_loop(wrong_basis):
    trials, m = 700, (1, 0, 1, 1, 0)
    reference, one_by_one, batched = (np.random.default_rng(11) for _ in range(3))
    rounds = [_reference_round(4, m, reference, wrong_basis) for _ in range(trials)]
    calls = [run_otp_attack(4, m, one_by_one, wrong_basis=wrong_basis) for _ in range(trials)]
    tally = run_otp_attacks(4, m, batched, trials, wrong_basis=wrong_basis)
    assert tally.successes == sum(bit == m[4] for _, _, bit in rounds) == sum(t.success for t in calls)
    assert tally.last == calls[-1]
    key, measured, bit = rounds[-1]
    assert (tally.last.key, tally.last.measured_pad, tally.last.recovered_bit) == (key, measured, bit)
    # all three consumed exactly the same draws
    assert batched.integers(2**62) == one_by_one.integers(2**62) == reference.integers(2**62)


@pytest.mark.parametrize("wrong_basis", [False, True])
def test_batched_attack_ignores_chunk_boundaries(monkeypatch, wrong_basis):
    whole = run_otp_attacks(3, "0111", np.random.default_rng(12), 1001, wrong_basis=wrong_basis)
    monkeypatch.setattr(attack_lab, "_CHUNK_BITS", 20)  # one or three rounds per draw
    chunked = run_otp_attacks(3, "0111", np.random.default_rng(12), 1001, wrong_basis=wrong_basis)
    assert chunked == whole


def test_attack_rejects_bad_inputs():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        run_otp_attack(1, "11", rng)
    with pytest.raises(ValueError):
        run_otp_attack(2, "1", rng)  # wrong message width
    with pytest.raises(ValueError):
        run_otp_attacks(2, "101", rng, 0)


# ---------------------------------------------------------------------------
# parity distinguisher


def test_parity_strategy_acceptance_gap():
    for n in (2, 3):
        st = build_attack_state(n)
        strat = parity_strategy(n)
        assert strategy_acceptance(st.cq, strat) == pytest.approx(1.0, abs=1e-12)
        ideal = canonical_ideal(st.cq).to_cq(st.cq.key_len)
        assert strategy_acceptance(ideal, strat) == pytest.approx(0.5, abs=1e-12)
        assert secrecy_eps_lower(st.cq, [strat]) == pytest.approx(0.5, abs=1e-12)
        assert secrecy_eps_upper(st.cq) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# guessing curves


def test_computational_basis_guess_value():
    assert basis_guess_probability(0.0) == pytest.approx(0.75, abs=1e-12)


def test_guess_sweep_matches_the_scalar_probability():
    thetas = np.linspace(0.0, math.pi, 2001)
    swept = attack_lab._basis_guess_probabilities(thetas)
    scalar = [basis_guess_probability(t) for t in thetas]
    assert np.abs(swept - scalar).max() <= 1e-15


def test_oracle_finds_intermediate_angle():
    oracle = single_qubit_guess_oracle()
    assert oracle.p_star == pytest.approx(COS2_PI_8, abs=1e-9)
    assert oracle.angle == pytest.approx(math.pi / 8, abs=1e-4)
    with pytest.raises(ValueError):
        single_qubit_guess_oracle(sweep_step=1e-3)


def test_parity_guess_curve_values():
    curve = parity_guess_curve(4)
    assert [n for n, _ in curve] == [1, 2, 3, 4]
    assert curve[0][1] == pytest.approx(COS2_PI_8, abs=1e-9)
    assert curve[3][1] == pytest.approx(0.625, abs=1e-9)
    # injected p* makes the closed form exact
    exact = parity_guess_curve(6, p_star=0.75)
    for n, p in exact:
        assert p == 0.5 * (1.0 + 0.5**n)
    with pytest.raises(ValueError):
        parity_guess_curve(0)
    with pytest.raises(ValueError):
        parity_guess_curve(17)


def test_parity_guess_curve_csv_round_trips():
    text = parity_guess_curve_csv(5)
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["n", "parity_guess_probability"]
    assert len(rows) == 6
    parsed = [(int(n), float(p)) for n, p in rows[1:]]
    assert parsed == parity_guess_curve(5)  # repr round trip is lossless


# ---------------------------------------------------------------------------
# gap report


def test_secrecy_gap_report_fields_and_json():
    report = secrecy_gap_report(2, search_budget=6, seed=1, families=("per_qubit",))
    assert report.eps_secret_lower == pytest.approx(0.5, abs=1e-12)
    assert report.eps_secret_upper == pytest.approx(0.5, abs=1e-12)
    assert report.iacc_lower_bits == pytest.approx(0.25, abs=1e-9)
    assert report.ben_or_required_iacc == 2.0**-5
    again = SecrecyGapReport.from_json_dict(report.to_json_dict())
    assert again == report
