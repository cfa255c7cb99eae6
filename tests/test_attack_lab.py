import csv
import functools
import io
import itertools
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import (
    bb84,
    distinguishing_advantage,
    entropy_bits,
    measure_encoded_qubit,
    sample_pad,
    to_density,
    traced_peak,
)
from qkdlab import attack_lab, cli, security_metrics
from qkdlab.attack_lab import (
    AttackState,
    SecrecyGapReport,
    basis_guess_probability,
    build_attack_state,
    fully_mixed_marginal_check,
    parity_guess_curve,
    parity_guess_curve_csv,
    parity_strategy,
    run_otp_attack,
    run_otp_attacks,
    secrecy_gap_report,
    single_qubit_guess_oracle,
)
from qkdlab.quantum_core import (
    CqState,
    _bit_strings,
    _chunks,
    _ordered_sum,
    DensityOperator,
    Povm,
    cq_measure,
    cq_trace_distance,
    mutual_information,
    product_qubit_povm,
)
from qkdlab.security_metrics import (
    IACC_FAMILIES,
    QUBIT_BASIS_ANGLES,
    IdealForm,
    accessible_info_lower,
    canonical_ideal,
    default_strategies,
    secrecy_eps_lower,
    secrecy_eps_upper,
    strategy_acceptance,
)

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


def test_attack_state_matches_direct_mixture():
    # independent construction: average the pad-state projectors directly
    n = 2
    st = build_attack_state(n)
    for s in itertools.product([0, 1], repeat=n + 1):
        label = "".join(map(str, s))
        pads = [r for r in itertools.product([0, 1], repeat=n) if sum(r) % 2 == s[n]]
        acc = np.zeros((2**n, 2**n), dtype=np.complex128)
        for r in pads:
            amps = functools.reduce(np.kron, [bb84(r[i], s[i]) for i in range(n)])
            acc += np.outer(amps, amps.conj()) / len(pads)
        assert np.abs(st.cq.branches[label][1].matrix - acc).max() < 1e-12


def test_bit_rows_enumerate_like_itertools():
    for n in range(7):
        rows = attack_lab._bit_rows(n)
        assert rows.dtype == np.uint8 and rows.shape == (2**n, n)
        assert rows.tolist() == [list(r) for r in itertools.product((0, 1), repeat=n)]


def _itertools_attack_rows(n, dtype=np.complex128):
    # the branch labels and pad states (rows[s, k] is pad k's product state in the
    # bases of key s) from itertools enumerations of keys and pads, with the same
    # Kronecker products as build_attack_state, one new array a qubit
    amps = np.array([[bb84(r, s) for r in (0, 1)] for s in (0, 1)])
    keys = np.array(list(itertools.product((0, 1), repeat=n + 1)))
    by_parity = [
        [p + ((parity ^ (sum(p) & 1)),) for p in itertools.product((0, 1), repeat=n - 1)]
        for parity in (0, 1)
    ]
    pads = np.array(by_parity)[keys[:, -1]]
    rows = np.ones((len(keys), pads.shape[1], 1), dtype=dtype)
    for i in range(n):
        factor = amps[keys[:, i, None], pads[:, :, i]]
        rows = (rows[:, :, :, None] * factor[:, :, None, :]).reshape(len(keys), pads.shape[1], -1)
    return ["".join(map(str, s)) for s in keys.tolist()], rows


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_attack_state_matches_the_dense_oracle_build(n):
    # the dense path (each branch formed, then checked and clipped by from_stack) is the oracle;
    # the factor build skips the clip, so the last bits move, by at most 1e-15
    labels, rows = _itertools_attack_rows(n)
    dense = CqState.from_stack(n + 1, labels, [2.0 ** -(n + 1)] * len(labels),
                               2.0 ** -(n - 1) * (rows.transpose(0, 2, 1) @ rows.conj()))
    built = build_attack_state(n).cq
    assert built.labels == dense.labels and built.probs.tobytes() == dense.probs.tobytes()
    assert np.abs(built.matrices - dense.matrices).max() <= 1e-15


def test_attack_state_build_makes_no_eigendecomposition(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counting

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    for n in range(2, 7):
        build_attack_state(n)
    assert calls == []
    labels, rows = _itertools_attack_rows(2)
    CqState.from_stack(3, labels, [0.125] * 8, 0.5 * (rows.transpose(0, 2, 1) @ rows.conj()))
    assert "eigvalsh" in calls  # the count sees the dense path's check


def test_attack_state_factor_build_traces_one_stack_and_a_chunk():
    # the n = 6 branch stack is 4 MB (the complex factors below have zero imaginary
    # parts, so it is real); the products are formed a few branches at a time
    n = 6
    labels, rows = _itertools_attack_rows(n)
    factors = rows.transpose(0, 2, 1) * math.sqrt(2.0 ** -(n - 1))
    probs = np.full(len(labels), 2.0 ** -(n + 1))
    cq, peak = traced_peak(lambda: CqState.from_factors(n + 1, labels, probs, factors))
    assert peak <= cq.matrices.nbytes + 2 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("n", range(2, 8))
def test_attack_factors_have_the_bits_of_the_kronecker_loop(n):
    # the in-place build multiplies in the loop's order
    labels, rows = _itertools_attack_rows(n, np.float64)
    want = rows.transpose(0, 2, 1) * math.sqrt(2.0 ** -(n - 1))
    got_labels, _, factors = attack_lab._attack_factors(n)
    assert got_labels == labels and factors.tobytes() == np.ascontiguousarray(want).tobytes()


def test_attack_state_build_keeps_its_stack_and_no_factors():
    # at n = 7 the stack is 32 MB, formed from 16 MB of factors one branch at a time;
    # once built, the state holds the stack alone
    tracemalloc.start()
    try:
        state = build_attack_state(7)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = state.cq.matrices.nbytes
    assert stack == 32 * 2**20
    assert current <= stack + 2**20, f"traced current {current / 2**20:.1f} MB"
    assert peak <= stack + 16 * 2**20 + 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_secrecy_figures_at_n_7_build_no_state():
    # the default route reads branch 0's factor and the sign table, both in closed form:
    # about 0.75 MB at the cap, nothing built before the trace starts.  Building the
    # state's 16 MB of factors and walking its orbit took 17.2 MB
    peak = traced_peak(lambda: attack_lab.secrecy_reports(7, seed=1))[1]
    assert peak <= 2**20, f"traced peak {peak / 2**20:.2f} MB"


def test_attack_state_repr_shows_its_labels_and_forms_no_branch_map():
    # the stack at n = 7 is 34 MB; repr names the fields key_len and labels only
    cq = build_attack_state(7).cq
    assert repr(cq) == f"CqState(key_len=8, labels={cq.labels!r})"
    assert "branches" not in vars(cq)


@pytest.mark.parametrize("n", range(2, 6))
def test_complex_attack_state_gives_the_real_figures(n):
    # a global phase leaves every branch W W^dagger as it is but keeps the stack
    # complex128, so the dense complex path, the reference, must give the real
    # path's secrecy and I_acc figures
    labels, probs, factors = attack_lab._attack_factors(n)
    phased = CqState.from_factors(n + 1, labels, probs, factors * np.exp(1j * math.pi / 7))
    real = build_attack_state(n).cq
    assert real.matrices.dtype == np.float64 and phased.matrices.dtype == np.complex128
    assert np.abs(phased.matrices - real.matrices).max() <= 1e-15

    def figures(cq):
        ideal = canonical_ideal(cq).to_cq(cq.key_len)
        label_basis = default_strategies(cq, num_random=0)[1]
        return [
            cq_trace_distance(cq, ideal),
            distinguishing_advantage(cq, ideal, label_basis),
            distinguishing_advantage(cq, ideal, parity_strategy(n)),
            mutual_information(cq_measure(cq, attack_lab.even_x_eigenbasis(n))),
        ]

    assert figures(phased) == pytest.approx(figures(real), abs=1e-12, rel=0)


@pytest.mark.parametrize("n", range(2, 8))
def test_marginal_check_deviation_is_at_rounding_level(n):
    assert fully_mixed_marginal_check(build_attack_state(n)).max_deviation <= 1e-15


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_form_marginal_pair_passes_where_the_dense_check_does(n):
    # attack-demo checks the pair of branches that extend 0...0, from 0/1 factors whose
    # weight is applied to the products: exact, so the deviation is 0.0.  The pair is the
    # built state's first two branches, whose orbit is the rest of the state
    # (test_built_state_is_the_orbit_of_the_closed_form_representative)
    dense = fully_mixed_marginal_check(build_attack_state(n))
    assert attack_lab._orbit_marginal_check(n) == (dense.passed, 0.0) == (True, 0.0)
    factors = attack_lab._attack_factors(n)[2]
    for parity in (0, 1):
        pair = attack_lab._pad_columns(n, parity) * math.sqrt(2.0 ** -(n - 1))
        assert factors[parity].tobytes() == pair.tobytes()


def test_marginal_check_passes_for_real_state():
    for n in (2, 3, 4):
        check = fully_mixed_marginal_check(build_attack_state(n))
        assert check.passed
        assert check.max_deviation < 1e-9


@pytest.mark.parametrize("check", [canonical_ideal, fully_mixed_marginal_check], ids=lambda f: f.__name__)
def test_stack_readers_trace_little_memory(check):
    # the real n = 6 branch stack is 4 MB, formed from the factors before the
    # trace; whole-stack temporaries of the complex stack came to 16 MB and 10 MB here
    cq = build_attack_state(6).cq
    assert cq.matrices.nbytes == 4 * 2**20
    peak = traced_peak(lambda: check(cq))[1]
    assert peak <= 2 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_marginal_check_detects_corruption():
    st = build_attack_state(2)
    branches = dict(st.cq.branches)
    zero = to_density(bb84(0, 0)).matrix
    skew = DensityOperator(np.kron(zero, zero))
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
        run_otp_attack(0, "1", rng)
    with pytest.raises(ValueError):
        run_otp_attack(2, "1", rng)  # wrong message width
    with pytest.raises(ValueError):
        run_otp_attacks(2, "101", rng, 0)


def test_one_qubit_attack_always_succeeds():
    # attack-otp's real world at n = 1: the one pad bit is the key's last bit
    for message in ("00", "01", "10", "11"):
        tally = run_otp_attacks(1, message, np.random.default_rng(3), 200)
        assert tally.successes == 200 and tally.last.pad == tally.last.key[1:]


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


@pytest.mark.parametrize("n", range(2, 6))
def test_parity_effects_are_the_pauli_string_projectors(n):
    # M_(s, p) = (I + (-1)^p P_s) / 2, P_s the Z/X string of the first n key
    # bits; the effects sum to 2^n I, so every state with uniform keys, whatever
    # its register, passes the parity test with probability exactly 1/2
    strategy = parity_strategy(n)
    labels = ["".join(bits) for bits in itertools.product("01", repeat=n + 1)]
    assert strategy.labels == tuple(labels) and strategy.effects.shape == (2 ** (n + 1), 2**n, 2**n)
    zx = {"0": np.diag([1.0, -1.0]), "1": np.array([[0.0, 1.0], [1.0, 0.0]])}
    eye = np.eye(2**n)
    for label, effect in zip(labels, strategy.effects):
        pauli = functools.reduce(np.kron, [zx[b] for b in label[:n]])
        assert np.abs(effect - (eye + (-1) ** int(label[n]) * pauli) / 2).max() <= 1e-12
    assert np.abs(strategy.effects.sum(axis=0) - 2**n * eye).max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_label_basis_strategy_is_the_parity_strategy(n):
    # on the attack key the label-basis rule accepts exactly the outcomes of the
    # right pad parity: the default strategy secrecy scores is the parity
    # distinguisher, label for label and bit for bit, against the declared ideal
    # I / 2^n and against the canonical one
    cq = build_attack_state(n).cq
    parity = parity_strategy(n)
    bases = functools.partial(security_metrics._label_bases, nq=n)
    for ideal in (security_metrics._ideal(cq, _declared_ideal(n)), security_metrics._ideal(cq)):
        label_basis = security_metrics._optimal_strategy("label_basis", cq, ideal, bases)
        assert label_basis.labels == parity.labels
        assert np.array_equal(label_basis.effects, parity.effects)


@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_bracket_scores_two_strategies(n):
    # the trivial strategy, then the label-basis one, whose advantage meets the
    # trace distance, each B times branch 0's term
    upper, advantages = attack_lab._orbit_bracket(attack_lab._representative(n), n)
    assert upper == 0.5 and len(advantages) == 2 and advantages[0] < upper == advantages[1]


# ---------------------------------------------------------------------------
# guessing curves


def test_computational_basis_guess_value():
    assert basis_guess_probability(0.0) == pytest.approx(0.75, abs=1e-12)


def test_guess_sweep_matches_the_scalar_probability():
    # the independent oracle: cos^2 theta on the computational encodings and
    # (cos theta + sin theta)^2 / 2 on the diagonal ones average to this closed form
    thetas = np.linspace(0.0, math.pi, 2001)
    closed = [0.5 + (math.cos(2 * t) + math.sin(2 * t)) / 4 for t in thetas]
    assert np.abs(attack_lab._basis_guess_probabilities(thetas) - closed).max() <= 1e-15
    assert np.abs(np.array([basis_guess_probability(t) for t in thetas]) - closed).max() <= 1e-15


def test_oracle_finds_intermediate_angle():
    oracle = single_qubit_guess_oracle()
    assert oracle.p_star == pytest.approx(COS2_PI_8, abs=1e-9)
    assert oracle.angle == pytest.approx(math.pi / 8, abs=1e-4)
    # the closed form that the commands print, checked by the numeric search
    assert attack_lab.BREIDBART.p_star == pytest.approx(oracle.p_star, abs=1e-15)
    assert attack_lab.BREIDBART.angle == pytest.approx(oracle.angle, abs=1e-8)


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


def _csv_writer_curve(n_max: int) -> str:
    # what parity_guess_curve_csv wrote through csv.writer, kept as its oracle
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["n", "parity_guess_probability"])
    for n, p in parity_guess_curve(n_max):
        writer.writerow([n, repr(p)])
    return buf.getvalue()


@pytest.mark.parametrize("n_max", range(1, 17))
def test_parity_guess_curve_csv_is_what_csv_writer_writes(n_max):
    assert parity_guess_curve_csv(n_max) == _csv_writer_curve(n_max)


# ---------------------------------------------------------------------------
# gap report


def test_bell_basis_learns_half_a_bit_of_the_n2_key():
    # a joint measurement beats every per-qubit product (2^-n = 0.25 bits):
    # the search's per_qubit figure is a lower bound, not the accessible
    # information of this state
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)
    joint = cq_measure(build_attack_state(2).cq, Povm.from_basis(bell))
    assert mutual_information(joint) >= 0.5 - 1e-12


def test_secrecy_gap_report_fields_and_json():
    report = secrecy_gap_report(2, seed=1, families=("per_qubit",))
    assert report.eps_secret_lower == pytest.approx(0.5, abs=1e-12)
    assert report.eps_secret_upper == pytest.approx(0.5, abs=1e-12)
    assert report.iacc_lower_bits == pytest.approx(0.25, abs=1e-9)
    assert report.ben_or_required_iacc == 2.0**-5
    assert report.to_json_dict()["type"] == SecrecyGapReport.JSON_TYPE == "secrecy_gap_report"


_Z, _X = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])


def _pauli_strings(n, parity=None):
    """{s: P_s} with P_s the Kronecker product of Z (s_i = 0) and X (s_i = 1),
    over every s, or over those whose number of X has the given parity."""
    keys = [s for s in itertools.product((0, 1), repeat=n) if parity is None or sum(s) % 2 == parity]
    return {s: functools.reduce(np.kron, [_X if b else _Z for b in s]) for s in keys}


@pytest.mark.parametrize("n", range(2, 7))
def test_branches_are_signed_pauli_strings(n):
    # rho_{s,p} = (I + (-1)^p P_s) / 2^n, the structure the I_acc proof rests on
    cq = build_attack_state(n).cq
    index = {label: b for b, label in enumerate(cq.labels)}
    for s, string in _pauli_strings(n).items():
        for p in (0, 1):
            want = (np.eye(2**n) + (-1) ** p * string) / 2**n
            got = cq.matrices[index["".join(map(str, s)) + str(p)]]
            assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 8))
def test_even_x_eigenbasis_diagonalises_every_even_x_string(n):
    v = attack_lab.even_x_eigenbasis(n).basis
    for string in _pauli_strings(n, parity=0).values():
        rotated = v @ string @ v.conj().T
        assert np.abs(rotated - np.diag(np.diag(rotated))).max() < 1e-12
        assert np.allclose(np.abs(np.diag(rotated)), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 8))
def test_even_x_eigenbasis_is_real_rows_of_zeros_and_one_magnitude(n):
    # sqrt 2 Re and sqrt 2 Im of the Y-basis product states: each entry is 0 or +-2^(-(n-1)/2)
    v = attack_lab.even_x_eigenbasis(n).basis
    c = 2.0 ** (-(n - 1) / 2)
    assert v.dtype == np.float64 and v.shape == (2**n, 2**n)
    assert np.isin(v, (0.0, c, -c)).all()
    assert (np.count_nonzero(v, axis=1) == 2 ** (n - 1)).all()
    assert np.abs(v @ v.T - np.eye(2**n)).max() <= 1e-15


def test_even_x_eigenbasis_is_the_bell_basis_at_n_2():
    def up_to_sign(rows):
        return sorted(tuple(row * np.sign(row[np.flatnonzero(row)[0]])) for row in rows)

    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]])
    got = np.round(attack_lab.even_x_eigenbasis(2).basis * math.sqrt(2.0)).astype(int)
    assert up_to_sign(got) == up_to_sign(bell)


@pytest.mark.parametrize("n", range(2, 8))
def test_even_x_eigenbasis_learns_exactly_half_a_bit(n):
    # the figure before the clamp to IACC_UPPER_BITS
    assert mutual_information(cq_measure(build_attack_state(n).cq, attack_lab.even_x_eigenbasis(n))) == 0.5


def test_even_x_eigenbasis_traces_little_more_than_its_basis():
    # a 128 KB basis at n = 7; the fixed-seed combination and its eigh, added one
    # string at a time, came to 0.9 MB, and the stack of all 64 strings to 10.1 MB
    assert traced_peak(lambda: attack_lab.even_x_eigenbasis(7))[1] < 2 * 2**20


@pytest.mark.parametrize("n", range(2, 7))
def test_declared_basis_closes_the_iacc_bracket(n):
    report = secrecy_gap_report(n)
    assert report.iacc_best_strategy == "declared:even_x_eigenbasis"
    # the declared basis meets the upper end, so the per-qubit family, which
    # searched after it until the searches began to stop, is skipped
    assert report.iacc_family == ("declared",)
    assert abs(report.iacc_lower_bits - 0.5) <= 1e-12
    assert report.iacc_lower_bits <= report.iacc_upper_bits == attack_lab.IACC_UPPER_BITS == 0.5


def test_per_qubit_report_leaves_the_upper_end_out():
    report = secrecy_gap_report(2, families=("per_qubit",))
    assert report.iacc_upper_bits is None and "iacc_upper_bits" not in report.to_json_dict()


def test_iacc_lower_end_is_clamped_to_the_upper_end(monkeypatch):
    # another joint eigenbasis of the even-X strings, from a different
    # combination of them, rounds its score above 1/2 bit; secrecy_reports
    # clamps the figure of either route to IACC_UPPER_BITS
    strings = list(_pauli_strings(2, parity=0).values())
    weights = np.random.default_rng(6).standard_normal(len(strings))
    _, vectors = np.linalg.eigh(sum(w * string for w, string in zip(weights, strings)))
    table = cq_measure(build_attack_state(2).cq, Povm.from_basis(vectors.T))
    assert mutual_information(table) > 0.5
    monkeypatch.setattr(attack_lab, "_sign_table", lambda n: table)
    assert attack_lab.secrecy_reports(2)[0].iacc_lower_bits == 0.5
    above = security_metrics.IaccSearchResult(0.75, ("per_qubit_exhaustive",), "per_qubit:std,std", 9)
    monkeypatch.setattr(attack_lab, "_per_qubit_search", lambda n: above)
    assert attack_lab.secrecy_reports(2, families=("per_qubit",))[0].iacc_lower_bits == 0.5


# ---------------------------------------------------------------------------
# the certificates at which the searches stop, and the searches without stops


@pytest.mark.parametrize("n", range(2, 7))
def test_no_per_qubit_product_learns_more_than_2_to_the_minus_n(n):
    # every one of the 3^n products, as ranked by the prefix-tree kernel and
    # as reported after the dense re-scoring
    cq = build_attack_state(n).cq
    ranked = security_metrics._product_information(cq, list(QUBIT_BASIS_ANGLES.values()))
    assert len(ranked) == 3**n and ranked.max() <= 2.0**-n + 1e-12
    iacc = accessible_info_lower(cq, families=("per_qubit",))
    assert iacc.family == ("per_qubit_exhaustive",) and iacc.evaluations == 3**n
    assert iacc.bits <= 2.0**-n + 1e-12


def _product_score(n, b):
    """``I(S : Z) = 2^-(n-b) (1 - h((1 + 2^(-b/2)) / 2))`` bits, h the binary entropy: what a
    product of std, diag and ``b`` Breidbart bases learns about the attack key."""
    q = (1.0 + 2.0 ** (-b / 2)) / 2
    entropy = 0.0 if q == 1.0 else -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)
    return 2.0 ** -(n - b) * (1.0 - entropy)


def _exact_product_score(n, b):
    """:func:`_product_score` to 40 digits."""
    with mpmath.workdps(40):
        q = (1 + mpmath.mpf(2) ** (-mpmath.mpf(b) / 2)) / 2
        entropy = 0 if b == 0 else -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)
        return mpmath.mpf(2) ** (b - n) * (1 - entropy)


@pytest.mark.parametrize("n", range(2, 7))
def test_product_score_is_the_dense_score_of_every_product(n):
    # every one of the 3^n products, scored by the dense Born rule on the built state as
    # accessible_info_lower re-scores its members, against the closed form in the number
    # b of Breidbart qubits.  The formula is within a few ulps of its 40-digit value; the
    # dense score rounds further from it, by up to 3.4e-13 at n = 5 and 1.2e-12 at n = 6
    cq = build_attack_state(n).cq
    for b in range(n + 1):
        exact = _exact_product_score(n, b)
        assert abs(_product_score(n, b) - exact) <= 1e-14 * exact
    for names in itertools.product(QUBIT_BASIS_ANGLES, repeat=n):
        dense = security_metrics._povm_information(cq, product_qubit_povm([QUBIT_BASIS_ANGLES[x] for x in names]))
        assert abs(dense - _product_score(n, names.count("breidbart"))) <= 2e-12, names


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_form_per_qubit_search_reports_the_formulas_maximum(n):
    # b = 0 scores exactly 2^-n and every b > 0 strictly less, so the search reports
    # 2^-n with std on every qubit, the first member in its order, over all 3^n members
    scores = [_product_score(n, b) for b in range(n + 1)]
    assert scores[0] == 2.0**-n and max(scores[1:]) < 2.0**-n
    got = attack_lab._per_qubit_search(n)
    std = "per_qubit:" + ",".join(["std"] * n)
    assert got == security_metrics.IaccSearchResult(2.0**-n, ("per_qubit_exhaustive",), std, 3**n)


@pytest.mark.parametrize("n", range(2, 7))
def test_closed_form_per_qubit_search_is_the_dense_search(n):
    # figure, family, best strategy and evaluation count: the first product at the
    # maximum, std on every qubit, learns exactly 2^-n bits
    got = attack_lab._per_qubit_search(n)
    assert got == accessible_info_lower(build_attack_state(n).cq, families=("per_qubit",))
    assert (got.bits, got.best_strategy) == (2.0**-n, "per_qubit:" + ",".join(["std"] * n))


@pytest.mark.parametrize("n", range(2, 8))
def test_gram_spectrum_of_one_nonzero_per_column_is_eigvalsh_bit_for_bit(n):
    # the representative, and the other parity's columns with unequal norms
    w0 = attack_lab._representative(n)
    scaled = attack_lab._pad_columns(n, 1) * np.random.default_rng(n).uniform(0.1, 2.0, size=2 ** (n - 1))
    assert len(set(np.abs(scaled).max(axis=0))) == 2 ** (n - 1)  # the norms differ, so the sort is exercised
    for w in (w0, scaled):
        gram = w.T @ w
        spectrum, trace = np.linalg.eigvalsh(gram / np.trace(gram)), np.trace(gram)
        got, got_trace = attack_lab._gram_spectrum(w)
        assert [x.hex() for x in got] == [x.hex() for x in spectrum] and got_trace.hex() == trace.hex()


@pytest.mark.parametrize("w", [
    np.random.default_rng(3).standard_normal((8, 4)),  # dense
    np.eye(4)[:, [0, 1, 1]],  # two columns in one row
    np.eye(4)[:, :3] + np.eye(4)[:, 1:],  # two nonzeros in a column
    np.eye(4)[:, :3] * [1.0, 0.0, 1.0],  # an empty column
], ids=["dense", "shared_row", "two_in_a_column", "empty_column"])
def test_gram_spectrum_refuses_a_factor_without_one_nonzero_per_column_in_distinct_rows(w):
    with pytest.raises(ValueError, match="one nonzero per column"):
        attack_lab._gram_spectrum(w)


@pytest.mark.parametrize("n", range(2, 5))
def test_haar_bases_stay_below_the_iacc_upper_end(n):
    cq = build_attack_state(n).cq
    rng = np.random.default_rng(100 + n)
    for _ in range(200):
        basis = Povm.from_basis(security_metrics._haar_basis(2**n, rng))
        assert mutual_information(cq_measure(cq, basis)) <= attack_lab.IACC_UPPER_BITS + 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_holevo_chi_is_one_bit_above_the_iacc_upper_end(n):
    # chi = S(sum_b p_b rho_b) - sum_b p_b S(rho_b) = n - (n - 1)
    cq = build_attack_state(n).cq
    average = np.einsum("b,bij->ij", cq.probs, cq.matrices)
    branch_entropies = [entropy_bits(np.linalg.eigvalsh(m)) for m in cq.matrices]
    chi = entropy_bits(np.linalg.eigvalsh(average)) - float(np.dot(cq.probs, branch_entropies))
    assert abs(chi - 1.0) <= 1e-9
    assert chi >= attack_lab.IACC_UPPER_BITS


@pytest.mark.parametrize("n", range(2, 6))
def test_no_default_strategy_beats_the_trace_distance(n):
    cq = build_attack_state(n).cq
    ideal = canonical_ideal(cq).to_cq(cq.key_len)
    upper = cq_trace_distance(cq, ideal)
    stock = default_strategies(cq)
    assert len(stock) == 10
    for strategy in stock:
        assert distinguishing_advantage(cq, ideal, strategy) <= upper + 1e-12


def _declared_ideal(n):
    mixed = DensityOperator.fully_mixed(2**n)
    return IdealForm(0.0, mixed, mixed)


def _unstopped_lower_end(n, seed):
    """The lower end of the full default stock, all ten strategies scored with no stop against
    the declared ideal, clamped to the trace distance, and the stock's size."""
    cq = build_attack_state(n).cq
    ideal = security_metrics._ideal(cq, _declared_ideal(n))
    advantages = list(security_metrics._default_advantages(cq, ideal, 8, seed))
    return min(security_metrics._lower_end(advantages), security_metrics._distance(cq, ideal)), len(advantages)


@pytest.mark.parametrize("n", range(2, 7))
def test_secrecy_reports_match_the_unstopped_searches(n):
    # the orbit path stops at the label-basis strategy, which meets the trace distance;
    # the full stock, Haar bases included, gives the same lower end at every seed
    for seed in (1, 2, 3):
        report = attack_lab.secrecy_reports(n, seed=seed)[0]
        lower, count = _unstopped_lower_end(n, seed)
        assert (report.eps_secret_lower, report.provenance["strategy_count"], count) == (lower, 2, 10)


def _dense_figures(n, seed, families):
    """The floats of the attack state's security report from the dense public primitives on
    the built state, the oracle of the orbit path: the trace distance to the declared ideal's
    2^(n+1) copies of I / 2^n, the parity distinguisher's advantage against them (clamped to
    that distance), and the declared basis's mutual information, or without ``declared`` the
    library's per-qubit search, clamped to the I_acc upper end."""
    cq = build_attack_state(n).cq
    ideal = _declared_ideal(n).to_cq(n + 1)
    upper = cq_trace_distance(cq, ideal)
    parity = parity_strategy(n)
    lower = min(strategy_acceptance(cq, parity) - strategy_acceptance(ideal, parity), upper)
    if "declared" in families:
        iacc = mutual_information(cq_measure(cq, attack_lab.even_x_eigenbasis(n)))
    else:
        iacc = accessible_info_lower(cq, 32, seed, families).bits
    return [0.0, 0.0, lower, upper, min(iacc, attack_lab.IACC_UPPER_BITS), upper]


_REPORT_FLOATS = ("eps_correct", "eps_robust", "eps_secret_lower", "eps_secret_upper", "iacc_lower_bits", "eps_total")


@pytest.mark.parametrize("families", [IACC_FAMILIES, ("declared",), ("per_qubit",)])
@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_report_equals_the_dense_path(n, families):
    report = attack_lab.secrecy_reports(n, seed=1, families=families)[0]
    oracle = _dense_figures(n, 1, families)
    assert [getattr(report, f).hex() for f in _REPORT_FLOATS] == [x.hex() for x in oracle]


@pytest.mark.parametrize("n", range(2, 8))
def test_orbit_trivial_advantage_is_the_dense_one(n):
    # the report prints only the larger of the two advantages: the trivial one is held to
    # the dense trivial strategy against the declared ideal's copies here.  The orbit's is
    # exactly 0, the dense one a rounding of it (1.5 * 2^-54 at n = 6)
    cq, form = build_attack_state(n).cq, _declared_ideal(n)
    trivial = security_metrics._optimal_strategy("trivial", cq, security_metrics._ideal(cq, form), None)
    dense = distinguishing_advantage(cq, form.to_cq(n + 1), trivial)
    orbit = attack_lab._orbit_bracket(attack_lab._representative(n), n)[1][0]
    assert abs(orbit - dense) <= 1e-15


def _check_orbit(n, labels, w):
    """The factor W_0 of branch ``0...0``, once every branch of the ``(B, d, r)`` factors ``w``
    of the attack state is checked (module docstring of ``attack_lab``): what lets
    ``secrecy_reports`` score the built state from closed forms.

    W_0 must be its closed form (``attack_lab._representative``), and every other branch's
    factor the image of its parent's under one generator, entry for entry to within 1e-12:
    X on the last qubit takes (0...0, 0) to (0...0, 1), and H on qubit i takes the parent
    (s, p) to the child with s_i set, where s_i is the child's last 1, the lowest set bit of
    s read in binary.  By induction every branch is then ``G W_0``.  A generator's children
    and their parents are strided views of the factor stack, read a batch at a time.  A
    branch off its image raises ``ValueError`` naming the first.
    """
    d, r = w.shape[1:]
    deviation = np.empty(len(w))
    deviation[0] = np.abs(w[0] - attack_lab._representative(n)).max()
    deviation[1] = np.abs(w[1] - w[0].reshape(-1, 2, r)[:, ::-1].reshape(d, r)).max()
    for j in range(n):  # the children whose lowest set key bit is bit j of s, that of qubit n - 1 - j
        grid = w.reshape(-1, 2, 2**j, 2, 2 ** (n - 1 - j), 2, 2**j, r)  # (rest, s_j, lower s, p, row bits)
        children, parents = grid[:, 1, 0], grid[:, 0, 0]
        worst = deviation.reshape(-1, 2, 2**j, 2)[:, 1, 0]
        for part in _chunks(len(children), d, security_metrics._BATCH):
            child, parent = children[part], parents[part]
            images = (parent[:, :, :, 0] + parent[:, :, :, 1], parent[:, :, :, 0] - parent[:, :, :, 1])
            for q, image in enumerate(images):  # H rows (1, 1) and (1, -1), times 1/sqrt 2
                image *= attack_lab._H
                image -= child[:, :, :, q]
                np.abs(image, out=image)
            worst[part] = np.maximum(*images, out=images[0]).max(axis=(2, 3, 4))
    bad = np.flatnonzero(deviation > 1e-12)
    if bad.size:
        raise ValueError(f"branch {labels[bad[0]]!r} is off its image under the attack state's "
                         f"group by {deviation[bad[0]]:.3e}")
    return w[0]


@pytest.mark.parametrize("n", range(2, 8))
def test_built_state_is_the_orbit_of_the_closed_form_representative(n):
    # secrecy scores every figure from W_0 in closed form and never builds the state, so
    # the orbit check runs here, on the builder's factors at every n that it accepts, and
    # the built state's stack is the one those factors form
    labels, probs, w = attack_lab._attack_factors(n)
    w0 = _check_orbit(n, labels, w)
    assert w0.tobytes() == attack_lab._representative(n).tobytes()
    stack = CqState.from_factors(n + 1, labels, probs, w).matrices
    assert build_attack_state(n).cq.matrices.tobytes() == stack.tobytes()


@pytest.mark.parametrize("n", [2, 5, 7])
@pytest.mark.parametrize("branch", [0, -1])
def test_a_branch_moved_by_1e_9_is_refused(n, branch):
    # branch 0 against its closed form (row 1 is a zero row there), the last branch against
    # its parent's image under H; the traces stay within 1e-9 of 1
    labels, probs, factors = attack_lab._attack_factors(n)
    factors[branch, 1, 0] += 1e-9
    AttackState(n=n, cq=CqState.from_factors(n + 1, labels, probs, factors))
    with pytest.raises(ValueError, match=f"^branch '{labels[branch]}' is off its image .* by 1.000e-09$"):
        _check_orbit(n, labels, factors)


def _even_x_table(n, probs):
    """The ``(B, d)`` joint distribution of key and outcome that ``even_x_eigenbasis`` gives
    on the attack state of branch probabilities ``probs``, by a sum over x: the oracle of the
    closed form ``attack_lab._sign_table``.

    Outcome j has probability ``(1 + (-1)^p <P_s>_j) / d``.  With ``u_j`` the 0/+-1 rows of
    ``attack_lab._even_x_signs`` and ``P_s |x> = (-1)^|x and not s| |x xor s>``, ``2^(n-1)
    <P_s>_j = sum_x u_j(x) (-1)^|x and not s| u_j(x xor s)``, a sum of integers, exact in
    float64; a few s at a time, so no ``(d, d, d)`` array is held.  The table is renormalised
    by its total, as ``cq_measure`` renormalises its own.
    """
    u = attack_lab._even_x_signs(n).T  # u[x, j]
    d = len(u)
    bits = attack_lab._bit_rows(n).astype(np.int8)  # signed: 1 - bits must not wrap
    chi = 1.0 - 2.0 * ((bits @ (1 - bits).T) & 1)  # chi[x, s] = (-1)^|x and not s|
    x = np.arange(d)
    expect = np.empty((d, d))  # expect[s, j] = 2^(n-1) <P_s>_j
    for part in _chunks(d, d, security_metrics._BATCH):
        terms = u[x[part, None] ^ x]  # [s, x, j] = u_j(x xor s)
        terms *= u
        terms *= chi.T[part, :, None]
        expect[part] = terms.sum(axis=1)
    expect *= 2.0 ** -(n - 1)
    table = probs[:, None] * ((1.0 + np.stack((expect, -expect), axis=1).reshape(2 * d, d)) / d)
    return table / _ordered_sum(table.ravel(), 0)


@pytest.mark.parametrize("n", range(2, 8))
def test_closed_sign_table_has_the_bits_of_the_sum_over_x(n):
    oracle = _even_x_table(n, build_attack_state(n).cq.probs)
    assert attack_lab._sign_table(n).view(np.int64).tobytes() == oracle.view(np.int64).tobytes()


@pytest.mark.parametrize("n", range(2, 8))
def test_sign_table_is_the_declared_bases_born_table(n):
    cq = build_attack_state(n).cq
    table = attack_lab._sign_table(n)
    assert np.abs(table - cq_measure(cq, attack_lab.even_x_eigenbasis(n))).max() <= 1e-15
    assert mutual_information(table) == 0.5
    # <P_s> is exactly 0 on an odd-X string: each outcome has probability p / d
    odd = np.repeat([label.count("1") % 2 == 1 for label in _bit_strings(n)], 2)
    assert (table[odd] == cq.probs[odd, None] / 2**n).all()


@pytest.mark.parametrize("n", range(2, 8))
def test_declared_figure_is_exactly_the_upper_end(monkeypatch, n):
    # mutual_information(_sign_table(n)) is 0x1p-1 = IACC_UPPER_BITS, so the declared
    # family closes the bracket and no state is built or searched beside it
    assert mutual_information(attack_lab._sign_table(n)).hex() == attack_lab.IACC_UPPER_BITS.hex() == (0.5).hex()

    def unused(*args, **kwargs):
        raise AssertionError("the per-qubit search ran")

    monkeypatch.setattr(attack_lab, "build_attack_state", unused)
    monkeypatch.setattr(attack_lab, "_per_qubit_search", unused)
    for families in (("declared",), ("declared", "per_qubit"), ("per_qubit", "declared")):
        report, gap = attack_lab.secrecy_reports(n, families=families)
        assert report.iacc_lower_bits == gap.iacc_upper_bits == 0.5
        assert report.provenance["iacc_family"] == ["declared"]


@pytest.mark.parametrize("n", range(2, 6))
def test_gap_report_alone_equals_the_shared_one(n):
    # the reports read the state's factors; the dense oracle reads its stack,
    # against the 2^(n+1) copies of the declared register I / 2^n
    report, gap = attack_lab.secrecy_reports(n)
    assert secrecy_gap_report(n) == gap
    cq = build_attack_state(n).cq
    form = _declared_ideal(n)
    dense = form.to_cq(n + 1)
    upper = cq_trace_distance(cq, dense)
    label_basis = security_metrics._optimal_strategy(
        "label_basis", cq, security_metrics._ideal(cq, form),
        functools.partial(security_metrics._label_bases, nq=n),
    )
    lower = min(upper, distinguishing_advantage(cq, dense, label_basis))
    parity = distinguishing_advantage(cq, dense, parity_strategy(n))
    iacc = mutual_information(cq_measure(cq, attack_lab.even_x_eigenbasis(n)))
    assert report.eps_secret_upper == gap.eps_secret_upper == pytest.approx(upper, abs=1e-12, rel=0)
    # the gap report's lower end is the security report's, the parity distinguisher's advantage
    assert report.eps_secret_lower == gap.eps_secret_lower == pytest.approx(lower, abs=1e-12, rel=0)
    assert gap.eps_secret_lower == pytest.approx(parity, abs=1e-12, rel=0)
    assert report.iacc_lower_bits == gap.iacc_lower_bits == min(iacc, attack_lab.IACC_UPPER_BITS)


@pytest.mark.parametrize("n", range(2, 8))
def test_factor_figures_equal_the_dense_ones(n):
    # the state built from factors, scored by the library from its stack: each figure
    # is 1/2 but the trivial strategy's advantage.  The dense oracle scores the same
    # strategies against 2^(n+1) copies of the ideal's register, for the declared
    # ideal and (whose register is not scalar) the canonical one; the label-basis
    # figure is also the parity distinguisher's there
    cq = build_attack_state(n).cq
    rules = dict(security_metrics._default_rules(cq, 0, 0))  # trivial, label_basis
    got = [security_metrics._distance(cq, security_metrics._ideal(cq, _declared_ideal(n)))]
    want = [cq_trace_distance(cq, _declared_ideal(n).to_cq(n + 1))]
    for form in (_declared_ideal(n), canonical_ideal(cq)):
        ideal, dense = security_metrics._ideal(cq, form), form.to_cq(n + 1)
        for name, bases in rules.items():
            strategy = security_metrics._optimal_strategy(name, cq, ideal, bases)
            got.append(security_metrics._advantage(cq, ideal, strategy))
            want.append(distinguishing_advantage(cq, dense, strategy))
    assert got[0] == got[2] == 0.5
    assert got == pytest.approx(want, abs=1e-12, rel=0)
    parity = [distinguishing_advantage(cq, form.to_cq(n + 1), parity_strategy(n))
              for form in (_declared_ideal(n), canonical_ideal(cq))]
    assert [got[2], got[4]] == pytest.approx(parity, abs=1e-12, rel=0)


@pytest.mark.parametrize("families", [("per_qubit",), ("declared",)])
@pytest.mark.parametrize("n", range(2, 5))
def test_one_family_reports_differ_from_the_unstopped_ones_in_strategy_count_only(n, families):
    # whichever family scores I_acc, the secrecy bracket is the orbit's, stopped at two
    # strategies, and its lower end is that of the full ten-strategy stock
    report = attack_lab.secrecy_reports(n, seed=1, families=families)[0]
    assert report.eps_secret_lower == _unstopped_lower_end(n, 1)[0]
    assert report.provenance["strategy_count"] == 2
