import inspect
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bb84,
    distinguishing_advantage,
    entropy_bits,
    rand_cq,
    rand_density,
    rand_povm,
    standard_basis_povm,
    to_density,
)
from qkdlab import quantum_core, security_metrics
from qkdlab.attack_lab import build_attack_state, parity_strategy
from qkdlab.quantum_core import (
    PERP,
    CqState,
    DensityOperator,
    Povm,
    born_table,
    cq_measure,
    measure,
    mutual_information,
    product_qubit_povm,
)
from qkdlab.security_metrics import (
    QUBIT_BASIS_ANGLES,
    IaccSearchResult,
    IdealForm,
    SecurityReport,
    Strategy,
    accessible_info_lower,
    ben_or_sufficient_eps,
    canonical_ideal,
    clopper_pearson_upper,
    compose_report,
    correctness_eps,
    default_strategies,
    evaluate_cq_security,
    secrecy_eps_lower,
    secrecy_eps_upper,
    strategy_acceptance,
)


# ---------------------------------------------------------------------------
# classical epsilons


def test_correctness_eps_exact_distribution():
    dist = {("00", "00"): 0.7, ("01", "01"): 0.2, ("01", "11"): 0.1}
    assert correctness_eps(dist) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(ValueError, match="sum"):
        correctness_eps({("0", "0"): 0.5})


def test_correctness_eps_rejects_a_nan_probability():
    # NaN passes both the sign and the sum check, and on a mismatching pair it read as 0
    for dist in ({("0", "0"): 1.0, ("0", "1"): math.nan}, {("0", "0"): math.nan, ("0", "1"): 0.5}):
        with pytest.raises(ValueError, match="not a number"):
            correctness_eps(dist)


def test_correctness_eps_samples_upper_bounds_plugin_rate():
    samples = [("0", "0")] * 90 + [("0", "1")] * 10
    eps = correctness_eps(samples)
    assert eps > 0.1  # a one-sided upper bound must exceed the plug-in rate
    assert eps == clopper_pearson_upper(10, 100)


def _binom_cdf(k: int, n: int, p) -> mpmath.mpf:
    """P[Binomial(n, p) <= k] at 50 digits, summed from k down until a term
    is below 1e-45 of the sum; for p above k/n each term is a falling
    fraction of the one before, so what is left out is far below 1e-8."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        term = mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)
        total, ratio = term, (1 - p) / p
        for j in range(k, 0, -1):
            term *= ratio * j / (n - j + 1)
            total += term
            if term < total * mpmath.mpf(10) ** -45:
                break
        return +total


def test_clopper_pearson_against_binomial_cdf():
    # defining property: P[X <= k] at the bound equals 1 - confidence
    for k, n in ((0, 50), (3, 100), (17, 200)):
        upper = clopper_pearson_upper(k, n, confidence=0.99)
        assert float(_binom_cdf(k, n, upper)) == pytest.approx(0.01, rel=1e-6)
    assert clopper_pearson_upper(5, 5) == 1.0
    # 1 - 1e-23 is the bound here, and it rounds up to 1
    assert clopper_pearson_upper(10**7 - 1, 10**7, 1 - 2**-53) == 1.0
    with pytest.raises(ValueError):
        clopper_pearson_upper(3, 2)


def test_clopper_pearson_is_conservative_and_tight_against_mpmath():
    # Rounded up: the exact CDF at the bound is at most 1 - confidence, and
    # the exact quantile lies within 1e-8 relative below the bound.
    rng = np.random.default_rng(1006_2215)
    cases = [(k, n) for n in (1, 2, 20_000, 10**7) for k in (0, n - 1, n)]
    for _ in range(100):
        n = int(10 ** rng.uniform(0, 7))
        cases.append((int(rng.integers(0, n + 1)), n))
    for k, n in cases:
        confidence = float(rng.choice([0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 2.5e-7]))
        upper = clopper_pearson_upper(k, n, confidence)
        if k == n:
            assert upper == 1.0
            continue
        alpha = 1 - mpmath.mpf(confidence)
        assert _binom_cdf(k, n, upper) <= alpha, (k, n, confidence)
        assert _binom_cdf(k, n, mpmath.mpf(upper) * (1 - mpmath.mpf(10) ** -8)) > alpha, (k, n, confidence)


def test_abort_mass_is_p_perp_and_the_probabilities_must_sum_to_1():
    # the robustness figure is the state's p_perp; the constructors' one sum check refuses the rest
    rho = DensityOperator.fully_mixed(4)
    assert CqState(2, {"00": (0.9, rho), PERP: (0.1, rho)}).p_perp == pytest.approx(0.1, abs=1e-15)
    assert CqState(2, {"00": (1.0, rho)}).p_perp == 0.0
    with pytest.raises(ValueError, match="sum to 0.5, not 1"):
        CqState(2, {"00": (0.5, rho)})


# ---------------------------------------------------------------------------
# canonical ideal and the secrecy bracket


def test_canonical_ideal_structure():
    rng = np.random.default_rng(2)
    cq = rand_cq(rng, 2, 2, include_perp=True)
    form = canonical_ideal(cq)
    assert form.p_perp == cq.p_perp
    # rho_prime is the normalised keyed mixture
    acc = sum(p * rho.matrix for label, (p, rho) in cq.branches.items() if label != PERP)
    key_mass = 1.0 - cq.p_perp
    assert np.abs(form.rho_prime.matrix - acc / key_mass).max() < 1e-9
    # abort register is reused verbatim
    assert np.array_equal(form.rho_dblprime.matrix, cq.branches[PERP][1].matrix)
    ideal = form.to_cq(cq.key_len)
    assert set(ideal.branches) == {"00", "01", "10", "11", PERP}
    for label in ("00", "01", "10", "11"):
        assert ideal.branches[label][0] == pytest.approx(key_mass / 4, abs=1e-12)


@pytest.mark.parametrize("chunk", [None, 12, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_canonical_ideal_is_the_branch_loop_bit_for_bit(monkeypatch, chunk, seed):
    # the sum runs a few branches at a time; chunk boundaries must not move a bit
    if chunk is not None:
        monkeypatch.setattr(quantum_core, "_STACK_CHUNK", chunk)
    cq = rand_cq(np.random.default_rng(seed), 3, 2, include_perp=True)
    keyed = len(cq.labels) - 1
    acc = cq.probs[0] * cq.matrices[0]
    for b in range(1, keyed):
        acc = acc + cq.probs[b] * cq.matrices[b]
    want = DensityOperator(acc / sum(cq.probs[:keyed].tolist())).matrix
    assert canonical_ideal(cq).rho_prime.matrix.tobytes() == want.tobytes()


def test_canonical_ideal_all_abort_falls_back_to_fully_mixed():
    form = canonical_ideal(CqState(1, {PERP: (1.0, to_density(bb84(0, 0)))}))
    assert np.allclose(form.rho_prime.matrix, np.eye(2) / 2)
    ideal = form.to_cq(1)
    assert set(ideal.branches) == {PERP}


def test_to_cq_refuses_huge_enumerations():
    form = canonical_ideal(CqState(1, {"0": (0.5, DensityOperator.fully_mixed(2)),
                                       "1": (0.5, DensityOperator.fully_mixed(2))}))
    with pytest.raises(ValueError, match="refusing"):
        form.to_cq(40)


def test_secrecy_upper_zero_for_ideal_state():
    rho = DensityOperator.fully_mixed(2)
    cq = CqState(1, {"0": (0.5, rho), "1": (0.5, rho)})
    assert secrecy_eps_upper(cq) < 1e-12


def test_one_bit_readout_state_bracket_is_half():
    # key bit copied into the register: the bracket collapses to 1/2
    cq = CqState(1, {
        "0": (0.5, to_density(bb84(0, 0))),
        "1": (0.5, to_density(bb84(1, 0))),
    })
    assert secrecy_eps_upper(cq) == pytest.approx(0.5, abs=1e-12)
    read_out = Strategy("read_out", ("0", "1"), standard_basis_povm(2).stacked())  # accept z == s
    assert strategy_acceptance(cq, read_out) == pytest.approx(1.0, abs=1e-12)
    assert secrecy_eps_lower(cq, [read_out]) == pytest.approx(0.5, abs=1e-12)


def test_strategy_acceptance_enumerates_exactly():
    cq = CqState(1, {
        "0": (0.25, to_density(bb84(0, 0))),
        "1": (0.75, DensityOperator.fully_mixed(2)),
    })
    # accept outcome "1" everywhere: 0.25 * 0 + 0.75 * 0.5
    strat = Strategy("accept_one", ("0", "1"), standard_basis_povm(2).stacked()[[1, 1]])
    assert strategy_acceptance(cq, strat) == pytest.approx(0.375, abs=1e-12)


def test_secrecy_lower_requires_strategies_and_clamps():
    cq = CqState(1, {"0": (0.5, DensityOperator.fully_mixed(2)),
                     "1": (0.5, DensityOperator.fully_mixed(2))})
    with pytest.raises(ValueError):
        secrecy_eps_lower(cq, [])
    reject_all = Strategy("reject_all", ("0", "1"), np.zeros((2, 2, 2)))
    assert secrecy_eps_lower(cq, [reject_all]) == 0.0


def test_optimal_decision_rule_achieves_induced_tv():
    rng = np.random.default_rng(9)
    for _ in range(20):
        real = rand_cq(rng, 1, 2)
        ideal = canonical_ideal(real).to_cq(1)
        v = security_metrics._haar_basis(2, rng)
        povm = Povm.from_basis(v)
        # the rule the default strategies apply to each of their measurements
        rule = security_metrics._optimal_strategy(
            "optimal", real, security_metrics._ideal(real), lambda labels: (v, 1.0)
        )
        adv = distinguishing_advantage(real, ideal, rule)
        # the optimum for a fixed measurement is the TV of the induced joints
        tv = 0.0
        for label in set(real.branches) | set(ideal.branches):
            pr, rho_r = real.branches.get(label, (0.0, None))
            pi, rho_i = ideal.branches.get(label, (0.0, None))
            out_r = measure(rho_r, povm) if pr else {}
            out_i = measure(rho_i, povm) if pi else {}
            for z in set(out_r) | set(out_i):
                tv += abs(pr * out_r.get(z, 0.0) - pi * out_i.get(z, 0.0))
        assert adv == pytest.approx(0.5 * tv, abs=1e-9)
        # and no worse than trivial rules
        accept_all = Strategy("accept_all", ("0", "1"), np.stack([np.eye(2)] * 2))
        assert adv >= distinguishing_advantage(real, ideal, accept_all) - 1e-12


def test_strategy_refuses_effects_that_do_not_fit():
    cq = rand_cq(np.random.default_rng(5), 1, 3)  # labels "0" and "1", a qutrit register
    eye = np.eye(3)
    with pytest.raises(ValueError, match="stack of square matrices"):
        Strategy("rank", ("0", "1"), eye)
    with pytest.raises(ValueError, match="one effect per distinct label"):
        Strategy("count", ("0", "1", PERP), np.stack([eye, eye]))
    with pytest.raises(ValueError, match="one effect per distinct label"):
        Strategy("twice", ("0", "0"), np.stack([eye, eye]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        strategy_acceptance(cq, Strategy("qubit", ("0", "1"), np.stack([np.eye(2)] * 2)))
    with pytest.raises(ValueError, match="no effect for label '1'"):
        strategy_acceptance(cq, Strategy("partial", ("0",), eye[None]))


def test_strategy_refuses_effects_outside_zero_and_identity():
    # 3 |z><z| would accept the one-bit read-out state with probability 3, an
    # advantage of 1.5 that secrecy_eps_lower would clamp to 1/2 unseen
    basis = standard_basis_povm(2).stacked()
    with pytest.raises(ValueError, match="effect of strategy 'x' on label '0' exceeds I"):
        Strategy("x", ("0", "1"), 3 * basis)
    with pytest.raises(ValueError, match="strategy 'negative' on label '1' is not PSD"):
        Strategy("negative", ("0", "1"), np.stack([basis[0], -basis[1]]))
    with pytest.raises(ValueError, match="strategy 'skew' on label '1' is not Hermitian"):
        Strategy("skew", ("0", "1"), np.stack([basis[0], [[0.5, 0.25], [0.0, 0.5]]]))
    # the library's own strategies are effects, however many batches they span
    for n in range(2, 7):
        assert len(parity_strategy(n).labels) == 2 ** (n + 1)
    for cq in (rand_cq(np.random.default_rng(3), 2, 4, include_perp=True), build_attack_state(4).cq):
        assert len(default_strategies(cq, num_random=8, seed=1)) == 10


def _dense_acceptance(cq, strategy, povm_for):
    """The acceptance of a strategy that measures label s with ``povm_for(s)`` and
    accepts the outcomes its effect projects on, from the dense Born rule: the sum
    over accepted cells of ``p_b tr(E_z rho_b)``."""
    effect = dict(zip(strategy.labels, strategy.effects))
    total = 0.0
    for label, p, rho in zip(cq.labels, cq.probs, cq.matrices):
        povm = povm_for(label)
        weights = born_table(effect[label][None], povm)[0]
        accept = weights > 0.5
        assert np.allclose(weights, accept, atol=1e-12)  # the effect is a sum of whole outcomes
        total += p * born_table(rho[None], povm)[0][accept].sum()
    return total


def _prefix_povm(label, nq):
    bases = [0.0] * nq if label == PERP else [QUBIT_BASIS_ANGLES["diag"] * int(b) for b in label[:nq]]
    return product_qubit_povm(bases)


@pytest.mark.parametrize("n", range(2, 6))
def test_parity_acceptance_matches_the_dense_born_rule(n):
    strategy = parity_strategy(n)
    attack = build_attack_state(n).cq
    states = [attack, canonical_ideal(attack).to_cq(n + 1)]
    states += [rand_cq(np.random.default_rng(seed), n + 1, 2**n, max_branches=2**n + 1) for seed in range(3)]
    for cq in states:
        want = _dense_acceptance(cq, strategy, lambda label: _prefix_povm(label, n))
        assert abs(strategy_acceptance(cq, strategy) - want) <= 1e-15


@pytest.mark.parametrize("seed", range(6))
def test_default_strategy_acceptance_matches_the_dense_born_rule(seed):
    key_len = 1 + seed % 3
    nq = min(1 + seed % 2, key_len)
    cq = rand_cq(np.random.default_rng(seed), key_len, 2**nq, include_perp=True, max_branches=2**key_len - 1)
    ideal = canonical_ideal(cq).to_cq(key_len)
    rng = np.random.default_rng(seed)
    haar = [Povm.from_basis(security_metrics._haar_basis(2**nq, rng)) for _ in range(3)]
    _, label_basis, *random = default_strategies(cq, num_random=3, seed=seed)
    assert label_basis.name == "label_basis" and len(random) == 3
    checks = [(label_basis, lambda label: _prefix_povm(label, nq))]
    checks += [(strategy, lambda label, povm=povm: povm) for strategy, povm in zip(random, haar)]
    for strategy, povm_for in checks:
        for state in (cq, ideal):
            want = _dense_acceptance(state, strategy, povm_for)
            assert abs(strategy_acceptance(state, strategy) - want) <= 1e-15


@pytest.mark.parametrize("perp", [False, True])
def test_default_strategy_lower_end_matches_the_report(perp):
    # evaluate_cq_security rates each default strategy from the tables
    # that define its rule; rating them again gives the same bits, up to
    # the report's clamp to the upper end
    for seed in range(12):
        cq = rand_cq(np.random.default_rng(seed), 1 + seed % 3, 2 + seed % 3, include_perp=perp)
        report = evaluate_cq_security(
            cq, num_random_strategies=seed % 4, search_budget=2, seed=seed, iacc_families=("per_qubit",)
        )
        lower = secrecy_eps_lower(cq, default_strategies(cq, seed % 4, seed))
        assert min(lower, report.eps_secret_upper) == report.eps_secret_lower


@pytest.mark.parametrize("perp", [False, True])
def test_report_reads_the_abort_mass_off_the_state(perp):
    for seed in range(6):
        cq = rand_cq(np.random.default_rng(seed), 1 + seed % 3, 2, include_perp=perp)
        report = evaluate_cq_security(cq, num_random_strategies=0, search_budget=2, iacc_families=("per_qubit",))
        assert report.eps_robust.hex() == (float(cq.probs[cq.labels.index(PERP)]) if perp else 0.0).hex()
        assert (report.eps_robust > 0.0) == perp


@pytest.mark.parametrize("seed", [8, 14, 63])
def test_lower_end_never_exceeds_the_upper_end(seed):
    # here the best advantage comes out a few ulps above the trace distance,
    # e.g. 0.22895945830209008 > 0.22895945830208997 at seed 8
    cq = rand_cq(np.random.default_rng(seed), 1, 2)
    strategies = default_strategies(cq, num_random=seed % 4, seed=seed)
    upper = secrecy_eps_upper(cq)
    ideal = canonical_ideal(cq).to_cq(cq.key_len)
    assert max(distinguishing_advantage(cq, ideal, s) for s in strategies) > upper
    assert secrecy_eps_lower(cq, strategies) == upper


@pytest.mark.parametrize(
    "seed, key_len, dim, shape, lower, upper, iacc",
    [
        (101, 2, 2, {"include_perp": True}, "0.3506476126049486", "0.42018315340484813", "0.1111297881848623"),
        (202, 3, 2, {"max_branches": 5}, "0.5625016342064798", "0.5843765756541102", "0.1757768935787447"),
        (303, 1, 3, {}, "0.20057255869778345", "0.2870397976024258", "0.0"),
    ],
)
def test_secrecy_bracket_golden_values(seed, key_len, dim, shape, lower, upper, iacc):
    # the I_acc winners here are dense per-qubit scores, so iacc pins the
    # summation order of cq_measure and mutual_information; no family
    # applies to the qutrit register of seed 303
    cq = rand_cq(np.random.default_rng(seed), key_len, dim, **shape)
    report = evaluate_cq_security(cq, num_random_strategies=4, search_budget=8, seed=seed)
    got = (repr(report.eps_secret_lower), repr(report.eps_secret_upper), repr(report.iacc_lower_bits))
    assert got == (lower, upper, iacc)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=25)
def test_bracket_orders_on_random_states(seed, perp):
    rng = np.random.default_rng(seed)
    cq = rand_cq(rng, 2, 4, include_perp=perp)
    upper = secrecy_eps_upper(cq)
    lower = secrecy_eps_lower(cq, default_strategies(cq, num_random=3, seed=seed))
    assert lower <= upper + 1e-9
    assert 0.0 <= lower and upper <= 1.0


# ---------------------------------------------------------------------------
# accessible information


def _independent_iacc_per_qubit_max(n: int) -> float:
    """Brute-force oracle: best per-qubit-basis mutual information for the
    pad-encoding state, computed from kets and Born overlaps only."""

    def basis_vecs(theta):
        c, s = math.cos(theta), math.sin(theta)
        return [np.array([c, s]), np.array([-s, c])]

    best = 0.0
    keys = list(itertools.product([0, 1], repeat=n + 1))
    for assign in itertools.product(QUBIT_BASIS_ANGLES.values(), repeat=n):
        vecs = [basis_vecs(t) for t in assign]
        joint = {}
        for s in keys:
            pads = [r for r in itertools.product([0, 1], repeat=n) if sum(r) % 2 == s[n]]
            for z in itertools.product([0, 1], repeat=n):
                p = 0.0
                for r in pads:
                    term = 1.0
                    for i in range(n):
                        amp = bb84(r[i], s[i])
                        term *= abs(np.dot(vecs[i][z[i]], amp)) ** 2
                    p += term / len(pads)
                joint[(s, z)] = p * 2.0 ** -(n + 1)
        px, pz = {}, {}
        for (s, z), p in joint.items():
            px[s] = px.get(s, 0.0) + p
            pz[z] = pz.get(z, 0.0) + p
        mi = entropy_bits(px.values()) + entropy_bits(pz.values()) - entropy_bits(joint.values())
        best = max(best, mi)
    return best


def test_accessible_info_matches_independent_oracle():
    from qkdlab.attack_lab import build_attack_state

    for n in (2, 3):
        cq = build_attack_state(n).cq
        got = accessible_info_lower(cq, search_budget=4, families=("per_qubit",))
        want = _independent_iacc_per_qubit_max(n)
        assert got.bits == pytest.approx(want, abs=1e-9)
        assert got.bits == pytest.approx(2.0**-n, abs=1e-9)
        assert "per_qubit_exhaustive" in got.family


def _dense_per_qubit_search(cq: CqState) -> tuple[str, str, int, tuple[str, ...]]:
    """The exhaustive per-qubit search with a dense Born rule for every
    member, as ``repr`` of (bits, best strategy, evaluations, family);
    like the search, it counts only members above the noise floor."""
    n = cq.dim.bit_length() - 1
    best_bits, best = security_metrics.IACC_FLOOR_BITS, "none"
    members = list(itertools.product(QUBIT_BASIS_ANGLES, repeat=n))
    for names in members:
        povm = product_qubit_povm([QUBIT_BASIS_ANGLES[name] for name in names])
        bits = mutual_information(cq_measure(cq, povm))
        if bits > best_bits:
            best_bits, best = bits, "per_qubit:" + ",".join(names)
    return repr(0.0 if best == "none" else best_bits), best, len(members), ("per_qubit_exhaustive",)


def _per_qubit_search(cq: CqState) -> tuple[str, str, int, tuple[str, ...]]:
    got = accessible_info_lower(cq, search_budget=4, families=("per_qubit",))
    return repr(got.bits), got.best_strategy, got.evaluations, got.family


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exhaustive_per_qubit_search_equals_the_dense_loop_on_attack_states(n):
    # the attack state ties many members at the maximum (32 at n = 5)
    cq = build_attack_state(n).cq
    assert _per_qubit_search(cq) == _dense_per_qubit_search(cq)


def test_exhaustive_per_qubit_search_equals_the_dense_loop_on_random_states():
    rng = np.random.default_rng(12)
    for k in range(240):
        n, key_len = 1 + k % 3, 1 + k % 2
        cq = rand_cq(
            rng, key_len, 2**n, include_perp=bool(k % 5 == 0), max_branches=None if k % 3 else 1 + k % 2**key_len
        )
        assert _per_qubit_search(cq) == _dense_per_qubit_search(cq), k


@pytest.mark.parametrize("dim, dense", [(4, ("0.0", "none", 9, ("per_qubit_exhaustive",))),
                                        (8, ("0.0", "none", 27, ("per_qubit_exhaustive",)))])
def test_exhaustive_per_qubit_search_scores_every_member_of_a_full_tie_once(monkeypatch, dim, dense):
    # a fully mixed register: every member learns nothing, exactly at
    # dim 4 and up to rounding (below the noise floor) at dim 8
    mixed = DensityOperator.fully_mixed(dim)
    cq = CqState(key_len=2, branches={"00": (0.5, mixed), "11": (0.25, mixed), PERP: (0.25, mixed)})
    calls = []
    monkeypatch.setattr(security_metrics, "cq_measure", lambda *args: calls.append(1) or cq_measure(*args))
    got = _per_qubit_search(cq)
    assert len(calls) == got[2]  # one dense score per member
    assert got == _dense_per_qubit_search(cq)
    assert got == dense


# single_label: one key label and the abort branch (a point-mass key on a
# fully mixed register scores exactly 0 under every per-qubit product)
@pytest.mark.parametrize(
    "branches",
    [{"00": (0.5, 8), "11": (0.25, 8), PERP: (0.25, 8)}, {"0": (0.9, 4), PERP: (0.1, 4)}],
    ids=["fully_mixed_register", "single_label"],
)
def test_rounding_noise_is_not_reported_as_information(monkeypatch, branches):
    # every measurement learns exactly nothing, yet rounding lifts some
    # dense scores a few ulps above zero
    key_len = len(next(iter(branches)))
    cq = CqState(key_len, {s: (p, DensityOperator.fully_mixed(d)) for s, (p, d) in branches.items()})
    got = accessible_info_lower(cq)
    assert (got.bits, got.best_strategy) == (0.0, "none")
    monkeypatch.setattr(security_metrics, "IACC_FLOOR_BITS", 0.0)
    noise = accessible_info_lower(cq)  # what the floor keeps out
    assert 0.0 < noise.bits < 1e-15 and noise.best_strategy != "none"
    assert noise.evaluations == got.evaluations


def test_search_skips_the_declared_family_and_scores_every_per_qubit_member_once(monkeypatch):
    # the declared measurement is scored by its state's builder: the library search has
    # none, so a search of that family alone does nothing.  On the attack state the
    # exhaustive per-qubit family scores each of its 27 members once, densely
    cq = build_attack_state(3).cq
    assert accessible_info_lower(cq, families=("declared",)) == IaccSearchResult(0.0, (), "none", 0)
    calls = []
    monkeypatch.setattr(security_metrics, "cq_measure", lambda *args: calls.append(1) or cq_measure(*args))
    got = accessible_info_lower(cq)
    assert (got.family, got.evaluations, len(calls)) == (("per_qubit_exhaustive",), 27, 27)
    assert got.best_strategy.startswith("per_qubit:")


def test_the_search_and_the_evaluator_take_no_declared_knob():
    # the search and the evaluator read the state alone: no declared measurement, I_acc
    # upper end or ideal is passed in
    assert list(inspect.signature(accessible_info_lower).parameters) == [
        "cq", "search_budget", "rng_seed", "families"]
    parameters = inspect.signature(evaluate_cq_security).parameters
    assert list(parameters) == ["cq", "num_random_strategies", "search_budget", "seed", "iacc_families", "correctness"]
    assert all(parameters[name].kind is inspect.Parameter.KEYWORD_ONLY for name in list(parameters)[1:])


def _oracle_state(kind: str, arg: int) -> CqState:
    rng = np.random.default_rng(arg)
    if kind == "abort":
        return rand_cq(rng, 1 + arg % 3, 2 + arg % 3, include_perp=True)
    if kind == "missing":  # some keys absent, with and without an abort branch
        key_len = 2 + arg % 2
        return rand_cq(rng, key_len, 2 + arg % 2, include_perp=arg % 2 == 0, max_branches=2**key_len - 1 - arg % 3)
    if kind == "all_abort":  # no key mass left: the ideal has no key label, the state one of probability 0
        return CqState(2, {"01": (0.0, rand_density(rng, 2)), PERP: (1.0, rand_density(rng, 2))})
    if kind == "wide":  # registers past 8192 entries, where a batch of one contracts in a different order
        return CqState(0, {"": (0.75, rand_density(rng, arg)), PERP: (0.25, rand_density(rng, arg))})
    if kind.startswith("rank"):
        return _factor_state(kind, arg)[0]
    return build_attack_state(arg).cq


_ORACLE_STATES = [("abort", seed) for seed in range(4)] + [("missing", seed) for seed in range(4)]
_ORACLE_STATES += [("all_abort", 0), ("wide", 91), ("wide", 128)] + [("attack", n) for n in range(2, 7)]
_ORACLE_STATES += [(kind, seed) for kind in ("rank1", "rank_wide") for seed in range(2)]


@pytest.mark.parametrize("kind, arg", _ORACLE_STATES)
def test_one_matrix_ideal_gives_the_dense_ideals_figures_bit_for_bit(kind, arg):
    # the ideal's 2^l copies of rho' (IdealForm.to_cq) are the oracle for every figure
    # read from the one matrix: distance, gaps, every default strategy and parity; a
    # state built from factors (the attack state, rank1, rank_wide) is scored from its stack
    cq = _oracle_state(kind, arg)
    dense, ideal = canonical_ideal(cq).to_cq(cq.key_len), security_metrics._ideal(cq)
    # the ideal side's own labels are the ones it gives a probability
    own = ideal.q > 0.0
    assert tuple(itertools.compress(ideal.labels, own)) == dense.labels
    assert ideal.q[own].tobytes() == dense.probs.tobytes()
    distance = quantum_core.cq_trace_distance(cq, dense)
    assert security_metrics._distance(cq, ideal) == secrecy_eps_upper(cq) == distance
    labels = ideal.labels
    assert labels == tuple(sorted(set(cq.labels) | set(dense.labels), key=quantum_core._label_sort_key))
    gaps = quantum_core._gaps(cq, ideal, security_metrics._BATCH)
    want = [_weighted_or_zero(cq, label) - _weighted_or_zero(dense, label) for label in labels]
    assert np.array_equal(np.concatenate([gap for _, gap in gaps]), want)
    strategies = default_strategies(cq, num_random=3, seed=arg)
    if kind == "attack":
        strategies.append(parity_strategy(arg))
    for strategy in strategies:
        assert security_metrics._advantage(cq, ideal, strategy) == distinguishing_advantage(cq, dense, strategy)
    lower = secrecy_eps_lower(cq, strategies)
    assert lower == min(distance, max(0.0, *(distinguishing_advantage(cq, dense, s) for s in strategies)))


def _weighted_or_zero(cq: CqState, label: str) -> np.ndarray:
    p, rho = cq.branches.get(label, (0.0, DensityOperator.fully_mixed(cq.dim)))
    return p * rho.matrix


def _factor_state(kind: str, arg: int) -> tuple[CqState, np.ndarray]:
    """A state built from factors, and its factors W: a random state's branches rebuilt from
    W = V sqrt(Lambda) (complex, full rank), or random complex factors of rank 1 or rank d + 1,
    wider than d."""
    if kind.startswith("rank"):
        rng = np.random.default_rng(arg)
        shape = (4, 4, 1 if kind == "rank1" else 5)
        w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        w /= np.linalg.norm(w, axis=(1, 2))[:, None, None]
        return CqState.from_factors(2, ["00", "01", "11", PERP], rng.dirichlet(np.ones(4)), w), w
    cq = _oracle_state(kind, arg)
    lam, v = np.linalg.eigh(cq.matrices)
    w = v * np.sqrt(np.clip(lam, 0.0, None))[:, None, :]
    return CqState.from_factors(cq.key_len, cq.labels, cq.probs, w), w


_FACTOR_STATES = [("abort", seed) for seed in range(4)] + [("missing", seed) for seed in range(4)]
_FACTOR_STATES += [("all_abort", 0)] + [(kind, seed) for kind in ("rank1", "rank_wide") for seed in range(2)]


@pytest.mark.parametrize("kind, arg", _FACTOR_STATES)
def test_factor_figures_equal_the_dense_ones(kind, arg):
    # a state built from factors is scored from the stack it formed: its distance to a
    # scalar ideal (I / d on every label), its strategies' advantages and its Born tables
    # are the dense oracle's, which reads the ideal's copies, for that ideal and (not
    # scalar) the canonical one; the Born oracle is p tr(E W W^dagger), read off the factors
    cq, w = _factor_state(kind, arg)
    mixed = DensityOperator.fully_mixed(cq.dim)
    declared = IdealForm(cq.p_perp, mixed, mixed)
    rules = list(security_metrics._default_rules(cq, 3, arg))
    povm = rand_povm(np.random.default_rng(arg), cq.dim, 3)
    got = [security_metrics._distance(cq, security_metrics._ideal(cq, declared))]
    want = [quantum_core.cq_trace_distance(cq, declared.to_cq(cq.key_len))]
    for form in (declared, canonical_ideal(cq)):
        ideal, dense = security_metrics._ideal(cq, form), form.to_cq(cq.key_len)
        for name, bases in rules:
            strategy = security_metrics._optimal_strategy(name, cq, ideal, bases)
            got.append(security_metrics._advantage(cq, ideal, strategy))
            want.append(distinguishing_advantage(cq, dense, strategy))
    assert got == pytest.approx(want, abs=1e-12, rel=0)
    born = np.einsum("kij,bjr,bir->bk", povm.stacked(), w, w.conj()).real
    born *= (cq.probs / np.einsum("bir,bir->b", w, w.conj()).real)[:, None]
    assert np.abs(cq_measure(cq, povm) - born / born.sum()).max() <= 1e-12


_TABLE_STATES = [("attack", n) for n in range(2, 6)]
_TABLE_STATES += [(kind, seed) for kind in ("abort", "missing") for seed in range(4)]
_TABLE_STATES += [(kind, seed) for kind in ("rank1", "rank_wide") for seed in range(2)]


@pytest.mark.parametrize("kind, arg", _TABLE_STATES)
def test_factor_advantages_have_the_bits_of_the_dense_ideals_copies(kind, arg):
    # every default rule (all ten on the attack state), Haar included, scored with no
    # stop: each advantage read off the ideal's two matrices has the bits of the one
    # scored against the per-label copies of IdealForm.to_cq, for the scalar ideal I / d
    # and for the canonical one, whose rounded average (and a random abort register) is not scalar
    cq = build_attack_state(arg).cq if kind == "attack" else _factor_state(kind, arg)[0]
    mixed = DensityOperator.fully_mixed(cq.dim)
    for form in (IdealForm(cq.p_perp, mixed, mixed), canonical_ideal(cq)):
        ideal, dense = security_metrics._ideal(cq, form), form.to_cq(cq.key_len)
        got = list(security_metrics._default_advantages(cq, ideal, 8, arg))
        rules = security_metrics._default_rules(cq, 8, arg)
        strategies = [security_metrics._optimal_strategy(name, cq, ideal, bases) for name, bases in rules]
        want = [distinguishing_advantage(cq, dense, strategy) for strategy in strategies]
        assert len(got) == len(want) == 10 or kind != "attack"  # random states may lack the label basis
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("stop_at", range(10))
def test_strategy_stock_stops_at_the_first_advantage_that_meets_the_upper_end(stop_at):
    # the stopped stock is a prefix of the full one, Haar bases included
    cq = rand_cq(np.random.default_rng(5), 2, 4)
    ideal, dense = security_metrics._ideal(cq), canonical_ideal(cq).to_cq(cq.key_len)
    full = default_strategies(cq, 8, 3)
    advantages = list(security_metrics._default_advantages(cq, ideal, 8, 3))
    assert len(full) == len(advantages) == 10
    assert advantages == [distinguishing_advantage(cq, dense, s) for s in full]
    upper = advantages[stop_at]
    first = next(i for i, a in enumerate(advantages) if a >= upper)
    assert list(security_metrics._default_advantages(cq, ideal, 8, 3, upper=upper)) == advantages[: first + 1]


def test_epsilon_stop_leaves_every_figure_of_the_report_unchanged():
    # the report scores the default stock only until an advantage meets the trace
    # distance; its lower end is that of the full stock, every strategy scored
    stopped = 0
    for seed in range(50):
        cq = rand_cq(np.random.default_rng(seed), 1 + seed % 3, 2 + seed % 2, include_perp=seed % 5 == 0)
        report = evaluate_cq_security(cq, num_random_strategies=8, search_budget=2, seed=seed,
                                      iacc_families=("per_qubit",))
        full = default_strategies(cq, 8, seed)
        assert repr(report.eps_secret_lower) == repr(secrecy_eps_lower(cq, full))
        assert report.eps_secret_upper == secrecy_eps_upper(cq)
        stopped += report.provenance["strategy_count"] < len(full)
    assert stopped == 3  # the stop fires where an advantage rounds up to the trace distance


def test_accessible_info_sampling_fallback_and_validation(monkeypatch):
    from qkdlab.attack_lab import build_attack_state

    cq = build_attack_state(2).cq
    monkeypatch.setattr(security_metrics, "EXHAUSTIVE_WORK_CAP", 1)
    res = accessible_info_lower(cq, search_budget=5, families=("per_qubit",))
    assert "per_qubit_sampled" in res.family
    assert res.evaluations == 5
    with pytest.raises(ValueError, match="budget"):
        accessible_info_lower(cq, search_budget=0)
    with pytest.raises(ValueError, match="families"):
        accessible_info_lower(cq, families=("made_up",))


@pytest.mark.parametrize("families", [("per_qubit", "per_qubit"), ["declared", "per_qubit", "declared"]])
def test_a_repeated_family_is_refused(families):
    from qkdlab.attack_lab import secrecy_reports

    cq = build_attack_state(2).cq
    for call in (lambda: security_metrics.check_families(families),
                 lambda: accessible_info_lower(cq, families=families),
                 lambda: evaluate_cq_security(cq, iacc_families=families),
                 lambda: secrecy_reports(2, families=families)):
        with pytest.raises(ValueError, match="repeated families"):
            call()


# ---------------------------------------------------------------------------
# sufficiency bound and report plumbing


def test_ben_or_sufficient_eps_frozen_value():
    # 10-bit key, accessible information 2^-20: sqrt(2^-20 * 2^12) = 2^-4
    assert ben_or_sufficient_eps(2.0**-20, 10) == 2.0**-4


def test_ben_or_sufficient_eps_edges():
    assert ben_or_sufficient_eps(0.0, 5) == 0.0
    assert ben_or_sufficient_eps(1.0, 5) == 1.0
    with pytest.raises(ValueError):
        ben_or_sufficient_eps(-1e-9, 5)


@given(st.floats(1e-15, 1.0), st.integers(0, 30))
def test_ben_or_inequality_direct(iacc, key_len):
    eps = ben_or_sufficient_eps(iacc, key_len)
    assert 0.0 <= eps <= 1.0
    if eps < 1.0:
        # certified: iacc <= 2^-(key_len+2) eps^2 (up to roundoff)
        assert iacc <= 2.0 ** -(key_len + 2) * eps**2 * (1 + 1e-12)
        # minimal: a slightly smaller eps would no longer be certified
        smaller = eps * (1 - 1e-9)
        assert 2.0 ** -(key_len + 2) * smaller**2 < iacc


_HALF = np.eye(2) / 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: CqState(1, {"0": (math.nan, DensityOperator(_HALF)), "1": (1.0, DensityOperator(_HALF))}),
        lambda: DensityOperator(np.array([[math.nan, 0.0], [0.0, 0.5]])),
        lambda: CqState.from_stack(1, ["0", "1"], [0.5, 0.5], [_HALF, np.diag([math.nan, 0.5])]),
        lambda: Povm([("0", np.diag([1.0, math.nan])), ("1", np.diag([0.0, 1.0]))]),
        lambda: Povm.from_basis(np.array([[1.0, 0.0], [0.0, math.nan]])),
        lambda: CqState.from_factors(1, ["0", PERP], [0.5, math.nan], np.full((2, 2, 1), math.sqrt(0.5))),
        lambda: ben_or_sufficient_eps(math.nan, 3),
        lambda: clopper_pearson_upper(1, 10, 1.5),
        lambda: clopper_pearson_upper(1, 10, math.nan),
    ],
    ids=["cq_branch", "density", "cq_stack", "povm", "povm_from_basis",
         "abort_mass", "ben_or", "confidence_above_1", "confidence_nan"],
)
def test_nan_and_out_of_range_inputs_are_refused(build):
    with pytest.raises(ValueError):
        build()


def test_compose_report_clamps_and_validates():
    assert compose_report(0.1, 0.2, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert compose_report(0.5, 0.5, 0.5) == 1.0
    with pytest.raises(ValueError):
        compose_report(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        compose_report(0.0, 1.1, 0.0)


def test_security_report_validation_and_json():
    report = SecurityReport(
        key_len=3, eps_correct=0.01, eps_robust=0.02,
        eps_secret_lower=0.1, eps_secret_upper=0.2,
        iacc_lower_bits=0.5, eps_total=0.23,
        provenance={"note": "test"},
    )
    data = report.to_json_dict()
    assert data["eps_secret_upper"] == report.eps_secret_upper
    assert data["provenance"] == {"note": "test"}
    with pytest.raises(TypeError):
        report.provenance["note"] = "mutate"
    with pytest.raises(ValueError, match="lower bound exceeds"):
        SecurityReport(3, 0.0, 0.0, 0.5, 0.2, 0.0, 0.5)
    with pytest.raises(ValueError, match="iacc"):
        SecurityReport(3, 0.0, 0.0, 0.1, 0.2, 3.5, 0.2)


def test_evaluate_cq_security_assembles_consistent_report():
    from qkdlab.attack_lab import build_attack_state

    cq = build_attack_state(2).cq
    report = evaluate_cq_security(cq, num_random_strategies=2, search_budget=8, seed=3)
    assert report.key_len == 3
    assert report.eps_robust == 0.0
    assert report.eps_secret_lower <= report.eps_secret_upper + 1e-12
    assert report.eps_total == pytest.approx(
        min(1.0, report.eps_correct + report.eps_secret_upper + report.eps_robust), abs=1e-12
    )
    assert report.provenance["correctness_source"] == "assumed_zero"

    with_corr = evaluate_cq_security(
        cq, num_random_strategies=1, search_budget=4, seed=3,
        correctness=[("000", "000")] * 50,
    )
    assert with_corr.provenance["correctness_source"] == "samples"
    assert with_corr.eps_correct > 0.0  # Clopper-Pearson never returns 0
