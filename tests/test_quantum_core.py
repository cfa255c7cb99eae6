import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bb84,
    dense_embedding,
    entropy_bits,
    make_pure,
    nuclear_trace_distance,
    rand_cq,
    rand_density,
    rand_povm,
    rand_pure_vec,
    standard_basis_povm,
    to_density,
    traced_peak,
)
from qkdlab import attack_lab, quantum_core
from qkdlab.attack_lab import build_attack_state, even_x_eigenbasis
from qkdlab.quantum_core import (
    PERP,
    CqState,
    DensityOperator,
    Povm,
    born_table,
    cq_measure,
    cq_trace_distance,
    measure,
    mutual_information,
    product_born_tables,
    product_qubit_povm,
    qubit_basis,
    total_variation,
    trace_distance,
)
from qkdlab.security_metrics import _haar_basis, canonical_ideal

H = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# density operators


def test_density_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_density_rejects_negative_eigenvalues():
    with pytest.raises(ValueError, match="PSD"):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))


def test_density_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))


def test_density_clips_rounding_negatives():
    # eigenvalue -1e-12 is within tolerance and must be clipped to zero
    v = np.array([H, H])
    m = np.outer(v, v) * (1.0 + 1e-12) - 1e-12 * np.outer([H, -H], [H, -H])
    rho = DensityOperator(m)
    assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12


def test_density_matrix_is_readonly():
    rho = DensityOperator.fully_mixed(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_fully_mixed():
    rho = DensityOperator.fully_mixed(4)
    assert np.allclose(rho.matrix, np.eye(4) / 4)


# ---------------------------------------------------------------------------
# dtypes: float64 for real input (or complex with exactly zero imaginary parts)


@pytest.mark.parametrize("n", range(2, 6))
def test_attack_state_its_ideal_and_the_declared_basis_are_real(n):
    cq = build_attack_state(n).cq
    assert cq.matrices.dtype == canonical_ideal(cq).to_cq(cq.key_len).matrices.dtype == np.float64
    assert even_x_eigenbasis(n).basis.dtype == np.float64
    assert product_qubit_povm([0.0, math.pi / 4] * (n // 2)).basis.dtype == np.float64
    assert qubit_basis(math.pi / 8).dtype == np.float64
    # a basis with a relative phase e^{i phi} on |1> stays complex
    assert Povm.from_basis(qubit_basis(0.0) * [1.0, np.exp(0.5j)]).basis.dtype == np.complex128


def test_a_state_with_a_phase_stays_complex():
    rho = to_density(make_pure([1.0, 1j]))  # |+i><+i|
    assert rho.matrix.dtype == np.complex128
    assert rho.matrix[0, 1] == -0.5j


def test_only_an_exactly_zero_imaginary_part_is_dropped():
    m = np.array([[0.5, 1e-300j], [-1e-300j, 0.5]])
    kept = DensityOperator(m).matrix
    assert kept.dtype == np.complex128 and kept[0, 1] == 1e-300j
    assert DensityOperator(m.real.astype(np.complex128)).matrix.dtype == np.float64


def test_complex_povm_on_a_real_stack_matches_its_complex_copy():
    rng = np.random.default_rng(5)
    matrices = build_attack_state(3).cq.matrices
    for povm in (Povm.from_basis(_haar_basis(8, rng)), rand_povm(rng, 8, 3)):
        assert matrices.dtype == np.float64 and povm.stacked().dtype == np.complex128
        got = born_table(matrices, povm)
        assert np.abs(got - born_table(matrices.astype(np.complex128), povm)).max() <= 1e-15


# ---------------------------------------------------------------------------
# state vectors and encodings


def test_bb84_encode_table():
    assert np.array_equal(bb84(0, 0), [1, 0])
    assert np.array_equal(bb84(1, 0), [0, 1])
    assert np.array_equal(bb84(0, 1), [H, H])
    assert np.array_equal(bb84(1, 1), [H, -H])


def test_bb84_cross_basis_overlap():
    # conjugate-basis states overlap in probability exactly 1/2
    for r in (0, 1):
        for rp in (0, 1):
            ov = abs(np.vdot(bb84(r, 0), bb84(rp, 1))) ** 2
            assert abs(ov - 0.5) < 1e-15


def test_to_density_is_projector():
    psi = make_pure([H, 1j * H])
    rho = to_density(psi)
    assert np.allclose(rho.matrix @ rho.matrix, rho.matrix)


# ---------------------------------------------------------------------------
# trace distance


def test_trace_distance_known_values():
    zero = to_density(make_pure([1, 0]))
    one = to_density(make_pure([0, 1]))
    plus = to_density(make_pure([H, H]))
    assert trace_distance(zero, one) == 1.0
    assert trace_distance(zero, zero) == 0.0
    # |0> vs |+>: sqrt(1 - 1/2)
    assert abs(trace_distance(zero, plus) - math.sqrt(0.5)) < 1e-12
    mixed = DensityOperator.fully_mixed(2)
    assert abs(trace_distance(zero, mixed) - 0.5) < 1e-12


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(DensityOperator.fully_mixed(2), DensityOperator.fully_mixed(4))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 6]))
def test_trace_distance_matches_nuclear_norm(seed, dim):
    rng = np.random.default_rng(seed)
    a, b = rand_density(rng, dim), rand_density(rng, dim)
    d = trace_distance(a, b)
    assert abs(d - nuclear_trace_distance(a.matrix, b.matrix)) < 1e-10
    assert 0.0 <= d <= 1.0
    assert abs(d - trace_distance(b, a)) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_trace_distance_triangle(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rand_density(rng, 3) for _ in range(3))
    assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


# ---------------------------------------------------------------------------
# cq-states


def test_cq_state_validation():
    rho = DensityOperator.fully_mixed(2)
    with pytest.raises(ValueError, match="label"):
        CqState(1, {"2": (1.0, rho)})
    with pytest.raises(ValueError, match="label"):
        CqState(1, {"00": (1.0, rho)})
    with pytest.raises(ValueError, match="sum"):
        CqState(1, {"0": (0.6, rho), "1": (0.6, rho)})
    with pytest.raises(ValueError, match="dimension"):
        CqState(1, {"0": (0.5, rho), "1": (0.5, DensityOperator.fully_mixed(4))})
    with pytest.raises(ValueError, match="at least one"):
        CqState(1, {})


def test_cq_state_ordering_and_accessors():
    rho = DensityOperator.fully_mixed(2)
    cq = CqState(1, {PERP: (0.2, rho), "1": (0.5, rho), "0": (0.3, rho)})
    assert list(cq.branches) == ["0", "1", PERP]
    assert cq.p_perp == 0.2
    assert cq.branches["1"][0] == 0.5
    assert cq.branches["0"][0] == 0.3
    assert dict(zip(cq.labels, cq.probs.tolist())) == {"0": 0.3, "1": 0.5, PERP: 0.2}
    assert cq.dim == 2


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([2, 3]))
@settings(max_examples=40)
def test_cq_trace_distance_equals_dense_embedding(seed, perp_a, perp_b, size_a, size_b, dim):
    # full, partial, overlapping and disjoint label sets
    rng = np.random.default_rng(seed)
    a = rand_cq(rng, 2, dim, include_perp=perp_a, max_branches=size_a)
    b = rand_cq(rng, 2, dim, include_perp=perp_b, max_branches=size_b)
    order = sorted(set(a.branches) | set(b.branches))
    dense = nuclear_trace_distance(dense_embedding(a, order), dense_embedding(b, order))
    assert abs(cq_trace_distance(a, b) - dense) < 1e-9


def test_cq_trace_distance_of_disjoint_label_sets_is_one():
    rng = np.random.default_rng(8)
    a = CqState(2, {"00": (0.25, rand_density(rng, 2)), "01": (0.75, rand_density(rng, 2))})
    b = CqState(2, {"10": (0.5, rand_density(rng, 2)), PERP: (0.5, rand_density(rng, 2))})
    order = ["00", "01", "10", PERP]
    assert abs(nuclear_trace_distance(dense_embedding(a, order), dense_embedding(b, order)) - 1.0) < 1e-12
    assert abs(cq_trace_distance(a, b) - 1.0) < 1e-12


@pytest.mark.parametrize("shared_label", [False, True])
def test_cq_trace_distance_is_symmetric_bit_for_bit(shared_label):
    # eigvalsh of -X need not be -eigvalsh(X) to the last bit; about one such
    # one-branch pair in eight differed between the two argument orders
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        a = CqState(1, {"0": (1.0, rand_density(rng, dim))})
        b = CqState(1, {"0" if shared_label else "1": (1.0, rand_density(rng, dim))})
        assert cq_trace_distance(a, b) == cq_trace_distance(b, a)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_attack_state_upper_bound_is_exactly_one_half_either_way(n):
    cq = build_attack_state(n).cq
    ideal = canonical_ideal(cq).to_cq(cq.key_len)
    assert cq_trace_distance(cq, ideal) == cq_trace_distance(ideal, cq) == 0.5


@pytest.mark.parametrize("entries", [4 * 4**2, quantum_core._STACK_CHUNK])
def test_gaps_subtract_each_operator_run_with_the_bits_of_the_gathered_copies(entries):
    # the other side's operator changes several times along the labels, PERP included, and the
    # state lacks some of them; batches of 4 labels split the runs, one batch holds them all
    rng = np.random.default_rng(9)
    cq = rand_cq(rng, 3, 4, include_perp=True, max_branches=5)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    labels = [format(k, "03b") for k in range(8)] + [PERP]
    index = [2, 2, 0, 1, 1, 0, 2, 2, 1]
    pair = quantum_core._pair(cq, labels, rng.dirichlet(np.ones(9)), stack, index)
    assert len(pair.labels) == 9 and (pair.rows < 0).any()
    got = np.concatenate([gap for _, gap in quantum_core._gaps(cq, pair, entries)])
    weighted = (cq.matrices[pair.rows] * pair.p[:, None, None]).astype(complex)
    assert got.tobytes() == (weighted - pair.q[:, None, None] * pair.stack[pair.index]).tobytes()


def test_cq_trace_distance_gathers_no_copy_of_the_other_side():
    # d = 32 complex: a batch of 4 blocks is 64 KB; gathering the other side's operators
    # and scaling them added two such arrays, a 0.32 MB peak
    rng = np.random.default_rng(3)
    a, b = rand_cq(rng, 3, 32, include_perp=True), rand_cq(rng, 3, 32)
    peak = traced_peak(lambda: cq_trace_distance(a, b))[1]
    assert peak < 0.25 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


def test_cq_trace_distance_mismatches():
    rho = DensityOperator.fully_mixed(2)
    a = CqState(1, {"0": (1.0, rho)})
    with pytest.raises(ValueError, match="key length"):
        cq_trace_distance(a, CqState(2, {"00": (1.0, rho)}))
    with pytest.raises(ValueError, match="dimension"):
        cq_trace_distance(a, CqState(1, {"0": (1.0, DensityOperator.fully_mixed(4))}))


def _raw_stack(rng, count: int, dim: int, clip: bool) -> np.ndarray:
    """``count`` unvalidated density matrices; with ``clip`` (and ``dim > 1``)
    each has an eigenvalue of -1e-12 and a trace 1e-12 off 1, both within
    tolerance."""
    mats = []
    for _ in range(count):
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        w = rng.dirichlet(np.ones(dim))
        if clip and dim > 1:
            w[0] = -1e-12
            w[1:] *= (1.0 + 2e-12) / w[1:].sum()
        mats.append((u * w) @ u.conj().T)
    return np.array(mats)


def _from_mapping(key_len, labels, probs, matrices):
    return CqState(key_len, {s: (p, DensityOperator(m)) for s, p, m in zip(labels, probs, matrices)})


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([1, 2, 3, 4]), st.booleans(),
       st.integers(0, 2), st.booleans())
@settings(max_examples=40)
def test_from_stack_and_the_mapping_constructor_agree_bit_for_bit(seed, key_len, dim, perp, zeros, clip):
    rng = np.random.default_rng(seed)
    labels = [format(i, f"0{key_len}b") for i in range(2**key_len)] + [PERP] * perp
    probs = rng.dirichlet(np.ones(len(labels)))
    probs[rng.choice(len(labels), size=min(zeros, len(labels) - 1), replace=False)] = 0.0
    probs /= probs.sum()
    raw = _raw_stack(rng, len(labels), dim, clip)
    stacked = CqState.from_stack(key_len, labels, probs, raw)
    mapped = _from_mapping(key_len, labels[::-1], probs[::-1], raw[::-1])  # the mapping may come in any order
    assert stacked.labels == mapped.labels == tuple(labels)
    assert stacked.probs.tobytes() == mapped.probs.tobytes()
    assert stacked.matrices.tobytes() == mapped.matrices.tobytes()
    assert not stacked.matrices.flags.writeable and not stacked.probs.flags.writeable
    if clip and dim > 1:
        assert np.linalg.eigvalsh(stacked.matrices).min() > -1e-15  # the dip was clipped
    assert stacked.p_perp == mapped.p_perp


_HALF = np.eye(2) / 2
_BAD_INPUTS = {
    # case: (key_len, labels, probs, matrices), message
    "non_hermitian": ((1, ["0", "1"], [0.5, 0.5], [_HALF, [[0.5, 1.0], [0.0, 0.5]]]), "Hermitian"),
    "negative_eigenvalue": ((1, ["0", "1"], [0.5, 0.5], [_HALF, np.diag([1.5, -0.5])]), "PSD"),
    "trace_off": ((1, ["0", "1"], [0.5, 0.5], [np.eye(2), _HALF]), "trace"),
    "nan_entry": ((1, ["0", "1"], [0.5, 0.5], [_HALF, np.diag([math.nan, 0.5])]), "non-finite"),
    "inf_entry": ((1, ["0", "1"], [0.5, 0.5], [_HALF, np.diag([math.inf, 0.5])]), "non-finite"),
    "bad_label": ((1, ["0", "2"], [0.5, 0.5], [_HALF, _HALF]), "label"),
    "long_label": ((1, ["0", "00"], [0.5, 0.5], [_HALF, _HALF]), "label"),
    "duplicate_label": ((1, ["0", "0"], [0.5, 0.5], [_HALF, _HALF]), "distinct and sorted"),
    "unsorted_labels": ((1, [PERP, "0"], [0.5, 0.5], [_HALF, _HALF]), "distinct and sorted"),
    "mixed_dims": ((1, ["0", "1"], [0.5, 0.5], [_HALF, np.eye(4) / 4]), "dimension|shape"),
    "nan_probability": ((1, ["0", "1"], [math.nan, 1.0], [_HALF, _HALF]), "outside"),
    "probability_above_1": ((1, ["0", "1"], [1.5, -0.5], [_HALF, _HALF]), "outside"),
    "negative_probability": ((1, ["0", "1"], [-0.1, 1.1], [_HALF, _HALF]), "outside"),
    "probabilities_sum_wrong": ((1, ["0", "1"], [0.6, 0.6], [_HALF, _HALF]), "sum"),
    "no_branch": ((1, [], [], np.empty((0, 2, 2))), "at least one"),
}
_MAPPING_CANNOT_SAY = {"duplicate_label", "unsorted_labels"}  # a dict has unique keys and is sorted on entry


@pytest.mark.parametrize(
    "build, case",
    [(build, case) for case in _BAD_INPUTS for build in (CqState.from_stack, _from_mapping)
     if not (build is _from_mapping and case in _MAPPING_CANNOT_SAY)],
    ids=lambda v: getattr(v, "__name__", v).lstrip("_") if callable(v) else v,
)
def test_both_cq_constructors_refuse_the_same_bad_input(build, case):
    args, message = _BAD_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        build(*args)


def _unit_factors(rng, count: int, dim: int, rank: int) -> np.ndarray:
    # Ginibre factors, each scaled to unit Frobenius norm
    w = rng.normal(size=(count, dim, rank)) + 1j * rng.normal(size=(count, dim, rank))
    return w / np.linalg.norm(w, axis=(1, 2))[:, None, None]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim, rank", [(1, 1), (2, 2), (4, 4), (8, 8), (2, 1), (4, 2), (8, 3), (8, 12)])
def test_from_factors_matches_from_stack_of_the_products(seed, dim, rank):
    # full rank (rank >= dim) and deficient rank, where the dense path clips rounding dips
    rng = np.random.default_rng(seed)
    labels = [format(i, "02b") for i in range(4)] + [PERP]
    probs = rng.dirichlet(np.ones(len(labels)))
    w = _unit_factors(rng, len(labels), dim, rank)
    built = CqState.from_factors(2, labels, probs, w)
    oracle = CqState.from_stack(2, labels, probs, w @ w.conj().swapaxes(1, 2))
    assert built.labels == oracle.labels and built.probs.tobytes() == oracle.probs.tobytes()
    assert np.abs(built.matrices - oracle.matrices).max() <= 1e-15
    assert np.array_equal(built.matrices, built.matrices.conj().swapaxes(1, 2))  # exactly Hermitian
    assert not built.matrices.flags.writeable and not built.probs.flags.writeable


def test_from_factors_divides_out_a_trace_within_tolerance():
    w = _unit_factors(np.random.default_rng(5), 2, 3, 2) * math.sqrt(1.0 + 5e-10)
    cq = CqState.from_factors(1, ["0", "1"], [0.5, 0.5], w)
    units = w @ w.conj().swapaxes(1, 2) / (1.0 + 5e-10)
    assert np.abs(cq.matrices - units).max() <= 1e-15
    assert np.abs(np.trace(cq.matrices, axis1=1, axis2=2) - 1.0).max() <= 1e-15


def test_from_factors_forms_the_stack_at_once_and_keeps_no_factors():
    rng = np.random.default_rng(6)
    w = _unit_factors(rng, 3, 4, 2)
    given = w.copy()
    cq = CqState.from_factors(2, ["00", "01", PERP], [0.25, 0.25, 0.5], given)
    given[:] = 0.0  # the caller's array is not read again
    assert cq.dim == 4 and not hasattr(cq, "factors")
    assert "matrices" in vars(cq) and "branches" not in vars(cq) and not cq.matrices.flags.writeable
    assert cq.branches[PERP][0] == 0.5
    products = w @ w.conj().swapaxes(1, 2)
    assert np.abs(cq.matrices - products).max() <= 1e-15
    # each product made exactly Hermitian, then divided by its trace
    products += products.conj().swapaxes(1, 2)
    products /= 2
    products /= np.trace(products, axis1=1, axis2=2).real[:, None, None]
    assert cq.matrices.tobytes() == products.tobytes()
    with pytest.raises(AttributeError, match="no attribute 'stack'"):
        cq.stack


@pytest.mark.parametrize("build", [CqState.from_stack, _from_mapping], ids=["from_stack", "mapping"])
def test_branch_views_are_made_on_the_first_read_of_branches(monkeypatch, build):
    labels, probs = ["00", "01", "11", PERP], [0.25, 0.25, 0.125, 0.375]
    raw = _raw_stack(np.random.default_rng(8), len(labels), 2, False)
    made = []
    view = DensityOperator._view

    def counted(matrix):
        made.append(matrix)
        return view(matrix)

    monkeypatch.setattr(DensityOperator, "_view", staticmethod(counted))
    cq = build(2, labels, probs, raw)
    assert made == [] and "branches" not in vars(cq)
    branches = cq.branches
    assert len(made) == len(labels) and tuple(branches) == cq.labels
    for b, (p, rho) in enumerate(branches.values()):
        assert p == float(cq.probs[b]) and isinstance(rho, DensityOperator)
        assert np.shares_memory(rho.matrix, cq.matrices) and rho.matrix.tobytes() == cq.matrices[b].tobytes()
    assert cq.branches is branches and len(made) == len(labels)  # a second read makes none


def test_from_factors_checks_its_factors_without_a_copy_of_their_size():
    # the finiteness check reads the traces: np.isfinite over the 16 MB of factors at n = 7
    # took 2 MB; past the 32 MB stack, its branches are formed one at a time
    labels, probs, w = attack_lab._attack_factors(7)
    cq, peak = traced_peak(lambda: CqState.from_factors(8, labels, probs, w))
    assert peak - cq.matrices.nbytes < 0.5 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


_HALF_FACTOR = np.eye(2) / math.sqrt(2)
_BAD_FACTORS = {
    # case: (labels, factors), message
    "nan_entry": ((["0", "1"], [_HALF_FACTOR, np.diag([math.nan, 1.0])]), "non-finite"),
    "inf_entry": ((["0", "1"], [_HALF_FACTOR, np.diag([math.inf, 1.0])]), "non-finite"),
    "trace_off": ((["0", "1"], [_HALF_FACTOR, _HALF_FACTOR * math.sqrt(1.0 + 2e-9)]), "trace"),
    "trace_two": ((["0", "1"], [_HALF_FACTOR, np.eye(2)]), "branch '1' has trace"),
    "too_few_labels": ((["0"], [_HALF_FACTOR, _HALF_FACTOR]), "1 labels for 2 branch factors"),
    "too_many_labels": ((["0", "1"], [_HALF_FACTOR]), "2 labels for 1 branch factors"),
    "not_a_stack": ((["0"], _HALF_FACTOR), "stack of factors"),
    "empty_factor": ((["0"], np.empty((1, 2, 0))), "stack of factors"),
}


@pytest.mark.parametrize("case", _BAD_FACTORS)
def test_from_factors_refuses_bad_factors(case):
    (labels, factors), message = _BAD_FACTORS[case]
    with pytest.raises(ValueError, match=message):
        CqState.from_factors(1, labels, [1.0 / len(labels)] * len(labels), factors)


# ---------------------------------------------------------------------------
# POVMs and measurement


def test_povm_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="identity"):
        Povm((("0", 0.4 * eye), ("1", 0.4 * eye)))
    with pytest.raises(ValueError, match="duplicate"):
        Povm((("0", 0.5 * eye), ("0", 0.5 * eye)))
    with pytest.raises(ValueError, match="PSD"):
        Povm((("0", np.diag([1.5, 0.5])), ("1", np.diag([-0.5, 0.5]))))
    with pytest.raises(ValueError, match="Hermitian"):
        Povm((("0", np.array([[0.5, 0.3], [0.0, 0.5]])), ("1", np.array([[0.5, -0.3], [0.0, 0.5]]))))


def test_povm_from_basis_checks_orthonormality():
    with pytest.raises(ValueError, match="orthonormal"):
        Povm.from_basis(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="one label per"):
        Povm.from_basis(np.eye(2), labels=["a"])
    povm = Povm.from_basis(qubit_basis(0.3), labels=["a", "b"])
    assert povm.labels == ("a", "b")
    total = povm.stacked().sum(axis=0)
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_qubit_basis_rows_orthonormal():
    for theta in (0.0, math.pi / 8, math.pi / 4, 1.1):
        v = qubit_basis(theta) * [1.0, np.exp(0.7j)]  # relative phase e^{0.7 i} on |1>
        assert np.abs(v @ v.conj().T - np.eye(2)).max() < 1e-12


def test_standard_and_bb84_povm():
    povm = standard_basis_povm(4)
    assert povm.labels == ("00", "01", "10", "11")
    diag = Povm.from_basis(qubit_basis(math.pi / 4), labels=["0", "1"])
    probs = measure(to_density(bb84(0, 1)), diag)
    assert abs(probs["0"] - 1.0) < 1e-12


def test_product_qubit_povm_label_order():
    # qubit 0 is the leftmost label bit: |1> tensor |0> measured in the
    # computational product basis must give outcome "10"
    povm = product_qubit_povm([0.0, 0.0])
    rho = to_density(np.kron(bb84(1, 0), bb84(0, 0)))
    probs = measure(rho, povm)
    assert abs(probs["10"] - 1.0) < 1e-12


def test_measure_born_rule_against_direct_overlap():
    rng = np.random.default_rng(23)
    for _ in range(25):
        v = rand_pure_vec(rng, 4)
        rho = to_density(v)
        basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0].T
        povm = Povm.from_basis(basis)
        probs = measure(rho, povm)
        for i, label in enumerate(povm.labels):
            direct = abs(np.vdot(basis[i], v)) ** 2
            assert abs(probs[label] - direct) < 1e-11
        assert abs(sum(probs.values()) - 1.0) < 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_measure_random_povm_is_distribution(seed):
    rng = np.random.default_rng(seed)
    rho = rand_density(rng, 3)
    povm = rand_povm(rng, 3, 5)
    probs = measure(rho, povm)
    assert all(p >= 0.0 for p in probs.values())
    assert abs(sum(probs.values()) - 1.0) < 1e-9


def test_cq_measure_joint_values():
    rng = np.random.default_rng(5)
    cq = rand_cq(rng, 1, 2, include_perp=True)
    povm = standard_basis_povm(2)
    joint = cq_measure(cq, povm)
    assert joint.shape == (len(cq.labels), len(povm.labels))
    for b, (p, rho) in enumerate(cq.branches.values()):
        for k, z in enumerate(povm.labels):
            direct = p * measure(rho, povm)[z]
            assert abs(joint[b, k] - direct) < 1e-12
    assert np.abs(joint.sum(axis=1) - cq.probs).max() < 1e-9


def _oracle_joint(cq: CqState, povm: Povm) -> list[list[float]]:
    # per-branch Born rule, renormalised like cq_measure
    table = [[p * pr for pr in measure(rho, povm).values()] for p, rho in cq.branches.values()]
    total = sum(map(sum, table))
    return [[v / total for v in row] for row in table]


def _oracle_information(table: list[list[float]]) -> float:
    cells = [p for row in table for p in row]
    return entropy_bits(map(sum, table)) + entropy_bits(map(sum, zip(*table))) - entropy_bits(cells)


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["basis", "product", "general"]))
@settings(max_examples=40)
def test_batched_kernel_matches_per_branch_oracle(seed, perp, kind):
    rng = np.random.default_rng(seed)
    cq = rand_cq(rng, 2, 4, include_perp=perp)
    if kind == "basis":
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        povm = Povm.from_basis(np.linalg.qr(z)[0].T)
    elif kind == "product":
        povm = product_qubit_povm(rng.uniform(0, math.pi, 2))
    else:
        povm = rand_povm(rng, 4, 5)
    table = born_table(cq.matrices, povm)
    for row, (_, rho) in zip(table, cq.branches.values()):
        assert np.abs(row - list(measure(rho, povm).values())).max() < 1e-12
    joint = cq_measure(cq, povm)
    oracle = _oracle_joint(cq, povm)
    assert joint.shape == np.shape(oracle)
    assert np.abs(joint - oracle).max() < 1e-12
    assert abs(mutual_information(joint) - _oracle_information(oracle)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_product_born_tables_match_the_dense_born_rule(n):
    rng = np.random.default_rng(n)
    states = [
        rand_cq(rng, min(n, 3), 2**n),
        rand_cq(rng, 2, 2**n, include_perp=True, max_branches=2),  # PERP, two labels missing
    ]
    if n >= 2:
        states.append(build_attack_state(n).cq)
    # the I_acc angles, plus two others where the tree stays small
    thetas = [0.0, math.pi / 4, math.pi / 8] + ([0.3, 2.0] if n <= 3 else [])
    candidates = list(itertools.product(thetas, repeat=n))
    for cq in states:
        chunks = list(product_born_tables(cq.matrices, thetas))
        assert sum(len(chunk) for chunk in chunks) == len(candidates)
        for table, angles in zip(itertools.chain.from_iterable(chunks), candidates):
            dense = born_table(cq.matrices, product_qubit_povm(angles))
            assert table.shape == dense.shape
            assert np.abs(table - dense).max() <= 1e-12


def test_mutual_information_takes_batch_axes():
    rng = np.random.default_rng(3)
    tables = rng.dirichlet(np.ones(12), size=(2, 3)).reshape(2, 3, 4, 3)
    tables[0, 1, 2] = 0.0  # empty cells add nothing
    tables[0, 1] /= tables[0, 1].sum()
    batched = mutual_information(tables)
    assert batched.shape == (2, 3)
    for index in np.ndindex(2, 3):
        one = mutual_information(tables[index])
        assert batched[index] == one  # the same summation order, bit for bit


def test_projective_povm_keeps_basis_and_stacks_once():
    v = qubit_basis(0.4) * [1.0, np.exp(0.9j)]  # a complex basis
    povm = Povm.from_basis(v, labels=["a", "b"])
    assert np.array_equal(povm.basis, v) and povm.dim == 2
    stack = povm.stacked()
    assert povm.stacked() is stack and not stack.flags.writeable
    assert povm.labels == ("a", "b")
    for k, effect in enumerate(stack):
        assert np.array_equal(effect, np.outer(v[k], v[k].conj()))
    assert rand_povm(np.random.default_rng(1), 2, 3).basis is None


def test_cq_state_branches_are_views_of_the_stack():
    cq = rand_cq(np.random.default_rng(4), 2, 2, include_perp=True)
    assert cq.labels == tuple(cq.branches) and cq.matrices.shape == (5, 2, 2)
    assert not cq.matrices.flags.writeable
    for b, (p, rho) in enumerate(cq.branches.values()):
        assert p == cq.probs[b]
        assert np.shares_memory(rho.matrix, cq.matrices) and np.array_equal(rho.matrix, cq.matrices[b])


# ---------------------------------------------------------------------------
# distributions and information


def test_mutual_information_extremes():
    assert mutual_information(np.full((2, 2), 0.25)) == 0.0
    assert abs(mutual_information(np.eye(2) / 2) - 1.0) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_mutual_information_bounds(seed):
    rng = np.random.default_rng(seed)
    joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
    mi = mutual_information(joint)
    hx = entropy_bits(joint.sum(axis=1))
    hz = entropy_bits(joint.sum(axis=0))
    assert 0.0 <= mi <= min(hx, hz) + 1e-12


def test_total_variation_known():
    assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
    assert total_variation({"a": 0.6, "b": 0.4}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.1, abs=1e-15)
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
