"""Dense linear algebra for small quantum systems.

Density operators, pure states, classical-quantum (cq) states, POVM
measurement, and the distance / information measures built on top of
them.  Everything is dense complex128 numpy; the intended regime is a
handful of qubits (the accessible-information search refuses registers
above :data:`DEFAULT_DIM_CAP`).  All containers are immutable after
construction, so values can be shared freely.
Measuring a cq-state gives one plain array: the ``(B, K)`` Born table
over its branch labels and the POVM's outcome labels, which
:func:`mutual_information` reads directly.

Conventions:

* Classical key labels are bit strings such as ``"0110"``.  The abort
  symbol is the reserved label :data:`PERP`, which is never a valid bit
  string and is carried explicitly alongside the key labels.
* Logarithms in information quantities are base 2; ``0 * log 0 == 0``.
* Tolerances are module constants and are deliberately asymmetric:
  state vectors are held to 1e-12, operator-level checks to 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "PERP",
    "DEFAULT_DIM_CAP",
    "DensityOperator",
    "PureState",
    "CqState",
    "Povm",
    "bb84_encode",
    "trace_distance",
    "cq_trace_distance",
    "measure",
    "born_table",
    "product_born_tables",
    "cq_measure",
    "mutual_information",
    "total_variation",
    "qubit_basis",
    "product_qubit_povm",
]

PERP = "PERP"

HERM_TOL = 1e-9
EIG_TOL = 1e-9
TRACE_TOL = 1e-9
PURE_NORM_TOL = 1e-12
PROB_SUM_TOL = 1e-12
POVM_SUM_TOL = 1e-9
DEFAULT_DIM_CAP = 2**14


def _as_square_complex(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    return m


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace complex matrix.

    Construction validates all three properties.  Hermiticity is checked
    elementwise to 1e-9 and the matrix is then exactly symmetrised.
    Eigenvalues above ``-1e-9`` are accepted: genuine but tiny negative
    dips are clipped to zero and the operator renormalised, while harder
    violations raise ``ValueError``.  The stored matrix is read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
        m = (m + m.conj().T) / 2
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -EIG_TOL:
            raise ValueError(f"matrix is not PSD (min eigenvalue {evals[0]:.3e})")
        if evals[0] < 0.0:
            w, v = np.linalg.eigh(m)
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within {TRACE_TOL}")
        if tr != 1.0:
            m = m / tr
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def _view(cls, matrix: np.ndarray) -> "DensityOperator":
        # wraps an already validated read-only matrix without copying it
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        return rho

    @classmethod
    def fully_mixed(cls, dim: int) -> "DensityOperator":
        if dim < 1:
            raise ValueError("dim must be positive")
        return cls(np.eye(dim, dtype=np.complex128) / dim)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex state vector (norm within 1e-12 of 1)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.shape[0] < 1:
            raise ValueError("amplitudes must be a nonempty 1-d vector")
        norm = float(np.linalg.norm(a))
        if not abs(norm - 1.0) <= PURE_NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {PURE_NORM_TOL}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def bb84_encode(r: int, s: int) -> PureState:
    """BB84 encoding of data bit ``r`` in basis bit ``s``.

    Basis 0 is computational, basis 1 diagonal::

        (r=0, s=0) -> |0>          (r=0, s=1) -> (|0> + |1>)/sqrt(2)
        (r=1, s=0) -> |1>          (r=1, s=1) -> (|0> - |1>)/sqrt(2)
    """
    if r not in (0, 1) or s not in (0, 1):
        raise ValueError("r and s must be bits")
    h = 1.0 / math.sqrt(2.0)
    table = {
        (0, 0): (1.0, 0.0),
        (1, 0): (0.0, 1.0),
        (0, 1): (h, h),
        (1, 1): (h, -h),
    }
    return PureState(np.array(table[(r, s)], dtype=np.complex128))


def _valid_label(label: str, key_len: int) -> bool:
    if label == PERP:
        return True
    return len(label) == key_len and all(ch in "01" for ch in label)


def _label_sort_key(label: str):
    # bit strings lexicographically, PERP last
    return (label == PERP, label)


@dataclass(frozen=True, eq=False)
class CqState:
    """Classical-quantum state: a labelled mixture ``{(s, p_s, rho_s)}``.

    ``key_len`` is the classical register width in bits; labels are bit
    strings of that length plus the optional abort label :data:`PERP`.
    Branch probabilities must sum to 1 within 1e-9 and all branch
    operators must share one dimension.  Absent labels mean probability
    zero.  Branches are stored sorted (bit strings first, PERP last) as
    a read-only ``(B, d, d)`` stack ``matrices`` with the probability
    vector ``probs`` and the label tuple ``labels``; the read-only
    mapping ``branches`` hands out views of that stack.
    """

    key_len: int
    branches: Mapping[str, tuple[float, DensityOperator]]
    labels: tuple[str, ...] = field(init=False)
    probs: np.ndarray = field(init=False, repr=False)
    matrices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.key_len, int) or self.key_len < 0:
            raise ValueError("key_len must be a nonnegative integer")
        if not self.branches:
            raise ValueError("a cq-state needs at least one branch")
        labels = sorted(self.branches, key=_label_sort_key)
        probs = np.empty(len(labels))
        dim = None
        for b, label in enumerate(labels):
            p, rho = self.branches[label]
            if not _valid_label(label, self.key_len):
                raise ValueError(f"label {label!r} is not a {self.key_len}-bit string or {PERP}")
            p = float(p)
            if not -PROB_SUM_TOL <= p <= 1.0 + PROB_SUM_TOL:
                raise ValueError(f"branch probability {p!r} outside [0, 1]")
            probs[b] = min(1.0, max(0.0, p))
            if not isinstance(rho, DensityOperator):
                raise ValueError("branch operators must be DensityOperator instances")
            if dim is None:
                dim = rho.dim
            elif rho.dim != dim:
                raise ValueError("all branch operators must share one dimension")
        total = sum(probs.tolist())
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")
        matrices = np.stack([self.branches[label][1].matrix for label in labels])
        matrices.setflags(write=False)
        probs.setflags(write=False)
        views = {
            label: (float(p), DensityOperator._view(m))
            for label, p, m in zip(labels, probs, matrices)
        }
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "branches", MappingProxyType(views))

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def p_perp(self) -> float:
        entry = self.branches.get(PERP)
        return entry[0] if entry is not None else 0.0

    def label_distribution(self) -> dict[str, float]:
        return {label: p for label, (p, _) in self.branches.items()}


@dataclass(frozen=True, eq=False, init=False)
class Povm:
    """POVM: an ordered tuple of outcome labels with one effect each.

    Built from ``(outcome_label, effect)`` pairs, each effect must be
    Hermitian and PSD (to the operator tolerances) and the effects must
    sum to the identity elementwise within 1e-9.

    A projective POVM made by :meth:`from_basis` keeps its orthonormal
    basis matrix ``basis`` (row k spans effect k) and forms its effect
    stack only when :meth:`stacked` is first asked for; ``basis`` is
    None for a general POVM.
    """

    labels: tuple[str, ...]
    basis: np.ndarray | None
    _stack: np.ndarray | None

    def __init__(self, effects: Sequence[tuple[str, np.ndarray]]):
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        labels = []
        mats = []
        dim = None
        total = None
        for label, e in effects:
            label = str(label)
            if label in labels:
                raise ValueError(f"duplicate outcome label {label!r}")
            labels.append(label)
            e = _as_square_complex(e)
            if dim is None:
                dim = e.shape[0]
                total = np.zeros((dim, dim), dtype=np.complex128)
            elif e.shape[0] != dim:
                raise ValueError("all effects must share one dimension")
            if float(np.abs(e - e.conj().T).max()) > HERM_TOL:
                raise ValueError(f"effect {label!r} is not Hermitian")
            emin = float(np.linalg.eigvalsh(e)[0])
            if emin < -EIG_TOL:
                raise ValueError(f"effect {label!r} is not PSD (min eigenvalue {emin:.3e})")
            total += e
            mats.append(e)
        dev = float(np.abs(total - np.eye(dim)).max())
        if dev > POVM_SUM_TOL:
            raise ValueError(f"effects do not sum to identity (deviation {dev:.3e})")
        stack = np.stack(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "basis", None)
        object.__setattr__(self, "_stack", stack)

    @property
    def dim(self) -> int:
        return (self.basis if self.basis is not None else self._stack).shape[-1]

    def stacked(self) -> np.ndarray:
        """The read-only ``(K, d, d)`` effect stack, formed once."""
        if self._stack is None:
            v = self.basis
            stack = v[:, :, None] * v.conj()[:, None, :]  # |v_k><v_k|
            stack.setflags(write=False)
            object.__setattr__(self, "_stack", stack)
        return self._stack

    @classmethod
    def from_basis(cls, basis: np.ndarray, labels: Sequence[str] | None = None) -> "Povm":
        """Projective POVM from the rows of an orthonormal basis matrix."""
        v = _as_square_complex(basis)
        dim = v.shape[0]
        dev = float(np.abs(v @ v.conj().T - np.eye(dim)).max())
        if dev > POVM_SUM_TOL:
            raise ValueError(f"rows are not orthonormal (deviation {dev:.3e})")
        if labels is None:
            labels = _default_outcome_labels(dim)
        if len(labels) != dim:
            raise ValueError("need exactly one label per basis vector")
        v.setflags(write=False)
        povm = object.__new__(cls)
        object.__setattr__(povm, "labels", tuple(str(label) for label in labels))
        object.__setattr__(povm, "basis", v)
        object.__setattr__(povm, "_stack", None)
        return povm


def _default_outcome_labels(dim: int) -> list[str]:
    # bit strings when dim is a power of two, decimal strings otherwise
    n = dim.bit_length() - 1
    if dim == 2**n:
        return [format(i, f"0{max(n, 1)}b") if n else "" for i in range(dim)]
    return [str(i) for i in range(dim)]


def qubit_basis(theta: float, phi: float = 0.0) -> np.ndarray:
    """Orthonormal qubit basis rotated by ``theta`` with relative phase ``phi``.

    Row 0 is ``cos(theta)|0> + e^{i phi} sin(theta)|1>``; theta = 0 is
    the computational basis, pi/4 the diagonal basis, pi/8 the Breidbart
    (intermediate) basis.
    """
    c, s = math.cos(theta), math.sin(theta)
    ph = complex(math.cos(phi), math.sin(phi))
    return np.array([[c, ph * s], [-s, ph * c]], dtype=np.complex128)


def product_qubit_povm(thetas: Sequence[float], phis: Sequence[float] | None = None) -> Povm:
    """Product of single-qubit projective measurements, one angle per qubit.

    Outcome labels are bit strings with qubit 0 as the leftmost bit.
    An empty angle list yields the trivial measurement on dimension 1.
    """
    if phis is None:
        phis = [0.0] * len(thetas)
    if len(phis) != len(thetas):
        raise ValueError("need one phase per angle")
    v = np.array([[1.0 + 0.0j]])
    for theta, phi in zip(thetas, phis):
        # Kronecker product v (x) u, without np.kron's per-call overhead
        v = (v[:, None, :, None] * qubit_basis(theta, phi)[None, :, None, :]).reshape(2 * len(v), -1)
    n = len(thetas)
    labels = [format(i, f"0{n}b") if n else "" for i in range(2**n)]
    return Povm.from_basis(v, labels=labels)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Trace distance ``0.5 * ||a - b||_1`` via eigenvalues of the difference."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    evals = np.linalg.eigvalsh(a.matrix - b.matrix)
    return min(1.0, max(0.0, 0.5 * float(np.abs(evals).sum())))


def cq_trace_distance(a: CqState, b: CqState) -> float:
    """Trace distance between two cq-states over the same key register.

    Exploits block-diagonality: the distance is the sum over labels of
    ``0.5 * || p_s rho_a^s - q_s rho_b^s ||_1``, which equals the trace
    distance of the dense classical-quantum embeddings.  Labels present
    on one side only contribute with the missing side treated as
    probability zero.  Blocks are summed in label order, so the result
    does not depend on string hashing.
    """
    if a.key_len != b.key_len:
        raise ValueError("cq-states have different key lengths")
    if a.dim != b.dim:
        raise ValueError("cq-states have different branch dimensions")
    dim = a.dim
    zero = np.zeros((dim, dim), dtype=np.complex128)
    total = 0.0
    for label in sorted(set(a.branches) | set(b.branches), key=_label_sort_key):
        ea = a.branches.get(label)
        eb = b.branches.get(label)
        ma = ea[0] * ea[1].matrix if ea is not None else zero
        mb = eb[0] * eb[1].matrix if eb is not None else zero
        evals = np.linalg.eigvalsh(ma - mb)
        total += 0.5 * float(np.abs(evals).sum())
    return min(1.0, max(0.0, total))


def measure(rho: DensityOperator, povm: Povm) -> dict[str, float]:
    """Outcome distribution ``Pr[z] = tr(E_z rho)`` (Born rule).

    The returned probabilities are clipped at zero against rounding
    noise and sum to 1 within the POVM completeness tolerance; they are
    not renormalised.  This is the one-branch reference form of
    :func:`born_table`.
    """
    if rho.dim != povm.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, POVM {povm.dim}")
    probs = np.einsum("kij,ji->k", povm.stacked(), rho.matrix).real
    probs = np.maximum(probs, 0.0)
    return {label: float(p) for label, p in zip(povm.labels, probs)}


def born_table(matrices: np.ndarray, povm: Povm) -> np.ndarray:
    """Born rule for a ``(B, d, d)`` stack of states: the ``(B, K)`` table ``tr(E_k rho_b)``.

    A projective POVM with basis rows ``v_k`` evaluates ``<v_k| rho_b
    |v_k>``, the diagonal of ``conj(V) rho_b V^T``, from one matrix
    product over the whole stack; a general POVM contracts its effect
    stack against every state in one ``einsum``.  Entries are clipped at
    zero against rounding noise and not renormalised.
    """
    if matrices.shape[-1] != povm.dim:
        raise ValueError(f"dimension mismatch: state {matrices.shape[-1]}, POVM {povm.dim}")
    v = povm.basis
    if v is not None:
        # rho_b V^T for every b as one product over the stacked rows
        right = (matrices.reshape(-1, matrices.shape[-1]) @ v.T).reshape(matrices.shape)
        probs = np.einsum("ki,bik->bk", v.conj(), right).real
    else:
        probs = np.einsum("kij,bji->bk", povm.stacked(), matrices).real
    return np.maximum(probs, 0.0)


def product_born_tables(matrices: np.ndarray, thetas: Sequence[float]) -> Iterator[np.ndarray]:
    """Born tables of every product of the qubit bases ``qubit_basis(theta)``, theta in ``thetas``.

    For a ``(B, d, d)`` stack with ``d = 2**n`` there are ``K**n``
    candidates, ``K = len(thetas)``, enumerated like
    ``itertools.product(thetas, repeat=n)`` (qubit 0 first).  They come
    in consecutive ``(C, B, d)`` chunks; candidate ``c`` gets
    ``born_table(matrices, product_qubit_povm(c))`` up to rounding.

    The candidates form a prefix tree.  Measuring the leading qubit of a
    stack in one basis splits each state into two unnormalised branch
    states on the remaining qubits, so candidates that share a basis
    prefix share that work, and no ``d x d`` effect is ever formed.  The
    bases are real, so only the real parts of the states are read.  The
    tree is walked one child at a time near the root and breadth first
    inside small subtrees, so the extra memory stays below one state stack.
    """
    weights = [(math.cos(2 * theta) / 2, math.sin(2 * theta) / 2) for theta in thetas]
    # (rows, columns, candidates, branches x outcomes): with the batch
    # axes innermost, every split of a block is a view with long rows
    stack = matrices.real.transpose(1, 2, 0)[:, :, None, :]
    # A subtree is expanded breadth first once its tables take at most an
    # eighth of the complex stack's bytes: the walk's peak, a few tables
    # plus the open prefix states, then stays below the one stack-sized
    # product that the dense born_table allocates.
    yield from _born_subtree(stack, weights, len(matrices), matrices.size // 4)


def _born_subtree(stack: np.ndarray, weights: list, branches: int, limit: int) -> Iterator[np.ndarray]:
    # stack: (m, m, 1, R), the branch states left after one basis prefix
    m, rows = stack.shape[0], stack.shape[3]
    if m == 1 or len(weights) ** (m.bit_length() - 1) * rows * m <= limit:
        while stack.shape[0] > 1:
            stack = _measure_leading_qubit(stack, weights)
        yield np.maximum(stack, 0.0, out=stack).reshape(stack.shape[2], branches, -1)
    else:
        for w in weights:
            yield from _born_subtree(_measure_leading_qubit(stack, [w]), weights, branches, limit)


def _measure_leading_qubit(stack: np.ndarray, weights: list) -> np.ndarray:
    """``(m, m, C, R)`` to ``(m/2, m/2, C * len(weights), 2 * R)``.

    Candidate ``(c, k)`` and row ``(r, z)`` hold the unnormalised state
    left when the leading qubit of ``stack[:, :, c, r]`` is measured in
    basis ``k`` with outcome ``z``.  For the basis rows ``(cos t, sin t)``
    and ``(-sin t, cos t)`` that is ``(A + D)/2 +- (cos 2t (A - D) + sin
    2t (B + C))/2``, over the 2 x 2 grid ``[[A, B], [C, D]]`` of sub-blocks.
    """
    m, _, c, rows = stack.shape
    h = m // 2
    grid = stack.reshape(2, h, 2, h, c, rows)
    mean = grid[0, :, 0] + grid[1, :, 1]
    mean *= 0.5
    diff = grid[0, :, 0] - grid[1, :, 1]
    cross = grid[0, :, 1] + grid[1, :, 0]
    out = np.empty((h, h, c, len(weights), rows, 2), dtype=stack.dtype)
    for k, (w_diff, w_cross) in enumerate(weights):
        tilt = diff * w_diff
        tilt += cross * w_cross
        np.add(mean, tilt, out=out[:, :, :, k, :, 0])
        np.subtract(mean, tilt, out=out[:, :, :, k, :, 1])
    return out.reshape(h, h, c * len(weights), 2 * rows)


def cq_measure(cq: CqState, povm: Povm) -> np.ndarray:
    """Joint distribution of (key label, measurement outcome) as a ``(B, K)`` array.

    Measures every branch with the same POVM: entry ``[b, k]`` is ``p_s
    tr(E_z rho_s)`` for ``s = cq.labels[b]`` and ``z = povm.labels[k]``.
    The table is renormalised by its total, a factor within the POVM
    completeness tolerance of 1, so its entries sum to 1 up to rounding.
    """
    if cq.dim != povm.dim:
        raise ValueError(f"dimension mismatch: state {cq.dim}, POVM {povm.dim}")
    table = cq.probs[:, None] * born_table(cq.matrices, povm)
    total = float(_ordered_sum(table.ravel(), 0))
    if not (0.5 < total < 2.0):
        raise ValueError(f"measurement table sums to {total!r}; POVM or state invalid")
    return table / total


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    # Sums strictly in index order, as the reference loops over the
    # table do.  numpy's pairwise summation rounds differently: reported
    # information figures would move in their last digits, and search
    # candidates that tie in exact arithmetic could swap places.
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def _entropy_bits(probs: np.ndarray) -> np.ndarray:
    # entropy over the last axis; cells of zero probability add nothing
    terms = np.where(probs > 0.0, probs, 1.0)
    np.log2(terms, out=terms)
    terms *= probs
    return -_ordered_sum(terms, -1)


def mutual_information(joint: np.ndarray) -> float | np.ndarray:
    """Shannon mutual information of a joint distribution, in bits.

    An ``(X, Z)`` probability table, such as the output of
    :func:`cq_measure`, gives a float; tables with leading batch axes
    give an array of that batch shape.
    """
    p = np.asarray(joint)
    hx = _entropy_bits(_ordered_sum(p, -1))
    hz = _entropy_bits(_ordered_sum(p, -2))
    hxz = _entropy_bits(p.reshape(*p.shape[:-2], -1))
    mi = hx + hz - hxz
    return max(0.0, float(mi)) if mi.ndim == 0 else np.maximum(mi, 0.0)


def total_variation(p: Mapping, q: Mapping) -> float:
    """Total variation distance ``0.5 * sum |p - q|`` over the key union."""
    keys = set(p) | set(q)
    tv = 0.5 * sum(abs(float(p.get(k, 0.0)) - float(q.get(k, 0.0))) for k in keys)
    return min(1.0, max(0.0, tv))
