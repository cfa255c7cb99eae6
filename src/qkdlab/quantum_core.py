"""Dense linear algebra for small quantum systems.

Density operators, classical-quantum (cq) states, POVM measurement,
and the distance / information measures built on top of them.
Everything is dense numpy: a stack is float64 when its input is real
(or complex with every imaginary part exactly zero) and complex128
otherwise, and products of the two promote.  The intended regime is a
handful of qubits (the accessible-information search refuses registers
above :data:`DEFAULT_DIM_CAP`).  All containers are immutable after
construction, so values can be shared freely.

A cq-state is its sorted labels and probabilities with one validated
``(B, d, d)`` stack of branch operators, however it was built.
Measuring it gives one plain array: the ``(B, K)`` Born table over its
branch labels and the POVM's outcome labels, which
:func:`mutual_information` reads directly.

Conventions:

* Classical key labels are bit strings such as ``"0110"``.  The abort
  symbol is the reserved label :data:`PERP`, which is never a valid bit
  string and is carried explicitly alongside the key labels.
* Logarithms in information quantities are base 2; ``0 * log 0 == 0``.
* Tolerances are module constants and are deliberately asymmetric: a
  single probability is held to [0, 1] within 1e-12, operator-level
  checks and probability sums to 1e-9.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ._json import Record, field

__all__ = [
    "PERP",
    "DEFAULT_DIM_CAP",
    "DensityOperator",
    "CqState",
    "Povm",
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
PROB_SUM_TOL = 1e-12
POVM_SUM_TOL = 1e-9
DEFAULT_DIM_CAP = 2**14
_STACK_CHUNK = 2**12  # entries per chunk of a matrix stack: 32 KB real, 64 KB complex


def _as_exact(a) -> np.ndarray:
    # float64 when the input is real or its imaginary parts are all exactly zero
    # (then a view of the real parts, not a copy), else complex128
    a = np.asarray(a)
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def _as_square(matrix, stacked: bool = False) -> np.ndarray:
    m = _as_exact(matrix)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        kind = "stack of square matrices" if stacked else "square matrix"
        raise ValueError(f"expected a {kind}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    return m


def _chunks(count: int, dim: int, entries: int = _STACK_CHUNK) -> Iterator[slice]:
    # slices of a stack of `count` dim x dim matrices, each `entries` entries or one matrix
    step = max(1, entries // dim**2)
    return (slice(start, start + step) for start in range(0, count, step))


def _hermitian_psd(m: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrised ``(B, d, d)`` stack, checked Hermitian and PSD to the operator
    tolerances, and each matrix's spectrum, ascending; errors name ``names[b]``."""
    mh = m.conj().swapaxes(1, 2)
    herm_dev = np.abs(m - mh).max(axis=(1, 2))
    bad = np.flatnonzero(herm_dev > HERM_TOL)
    if bad.size:
        raise ValueError(f"{names[bad[0]]} is not Hermitian (deviation {herm_dev[bad[0]]:.3e})")
    m = (m + mh) / 2
    spectra = np.linalg.eigvalsh(m)
    bad = np.flatnonzero(spectra[:, 0] < -EIG_TOL)
    if bad.size:
        raise ValueError(f"{names[bad[0]]} is not PSD (min eigenvalue {spectra[bad[0], 0]:.3e})")
    return m, spectra


def _density_stack(m: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Validate a finite ``(B, d, d)`` stack of density operators; return it read-only.

    A tiny negative dip (down to -1e-9) in a spectrum is clipped to zero
    and a trace within 1e-9 of 1 divided out, with the bits of one
    matrix at a time; a few matrices are checked at a time.
    """
    out = np.empty(m.shape, dtype=m.dtype)
    for part in _chunks(len(m), m.shape[1]):
        rho, spectra = _hermitian_psd(m[part], names[part])
        dips = spectra[:, 0] < 0.0
        if dips.any():
            w, v = np.linalg.eigh(rho[dips])
            rho[dips] = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(1, 2)
        tr = np.trace(rho, axis1=1, axis2=2).real
        bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
        if bad.size:
            name, trace = names[part][bad[0]], float(tr[bad[0]])
            raise ValueError(f"{name} has trace {trace!r}, not 1 within {TRACE_TOL}")
        np.divide(rho, tr[:, None, None], out=rho, where=(tr != 1.0)[:, None, None])
        out[part] = rho
    out.setflags(write=False)
    return out


class DensityOperator(Record, eq=False):
    """Hermitian, positive semidefinite, unit-trace matrix: float64 when the input is real.

    Construction validates all three properties, as a stack of one.
    Hermiticity is checked elementwise to 1e-9 and the matrix is then
    exactly symmetrised.  Eigenvalues above ``-1e-9`` are accepted:
    genuine but tiny negative dips are clipped to zero and the operator
    renormalised, while harder violations raise ``ValueError``.  The
    stored matrix is read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix)
        object.__setattr__(self, "matrix", _density_stack(m[None], ("matrix",))[0])

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
        return cls(np.eye(dim) / dim)


def _valid_label(label: str, key_len: int) -> bool:
    if label == PERP:
        return True
    return len(label) == key_len and all(ch in "01" for ch in label)


def _label_sort_key(label: str):
    # bit strings lexicographically, PERP last
    return (label == PERP, label)


class CqState(Record, eq=False):
    """Classical-quantum state: a labelled mixture ``{(s, p_s, rho_s)}``.

    ``key_len`` is the classical register width in bits; labels are bit
    strings of that length plus the optional abort label :data:`PERP`.
    Branch probabilities must sum to 1 within 1e-9 and all branch
    operators must share one dimension.  Absent labels mean probability
    zero.  Branches are kept sorted (bit strings first, PERP last) as the
    label tuple ``labels``, the probability vector ``probs`` and the
    read-only ``(B, d, d)`` stack ``matrices``.  :meth:`from_stack` builds
    a state from those three; the mapping constructor takes
    :class:`DensityOperator` branches and then the same path.
    :meth:`from_factors` forms that stack from the W_b with rho_b = W_b W_b^dagger.
    The read-only mapping ``branches`` of views of the stack is built on its first read.
    """

    key_len: int
    labels: tuple[str, ...]
    probs: np.ndarray = field(repr=False)
    matrices: np.ndarray = field(repr=False)

    def __init__(self, key_len: int, branches: Mapping[str, tuple[float, DensityOperator]]):
        labels = tuple(sorted(branches, key=_label_sort_key))
        entries = [branches[label] for label in labels]
        if not all(isinstance(rho, DensityOperator) for _, rho in entries):
            raise ValueError("branch operators must be DensityOperator instances")
        if len({rho.dim for _, rho in entries}) > 1:
            raise ValueError("all branch operators must share one dimension")
        matrices = np.array([rho.matrix for _, rho in entries])
        self._assemble(key_len, labels, [p for p, _ in entries], matrices)

    @classmethod
    def from_stack(cls, key_len: int, labels: Sequence[str], probs, matrices) -> "CqState":
        """The state with branches ``(labels[b], probs[b], matrices[b])``; the labels must
        come distinct and sorted, and each matrix is checked as :class:`DensityOperator` checks it."""
        labels = tuple(labels)
        m = _as_square(matrices, stacked=True)
        if len(m) != len(labels):
            raise ValueError(f"{len(labels)} labels for {len(m)} branch operators")
        cq = object.__new__(cls)
        cq._assemble(key_len, labels, probs, _density_stack(m, [f"branch {label!r}" for label in labels]))
        return cq

    @classmethod
    def from_factors(cls, key_len: int, labels: Sequence[str], probs, factors) -> "CqState":
        """The state with branches ``(labels[b], probs[b], W_b W_b^dagger)`` for the
        ``(B, d, r)`` stack ``factors`` of the ``W_b``; the labels as in :meth:`from_stack`.

        Each branch's trace, ``||W_b||_F^2``, must be 1 within 1e-9.  The
        stack is formed at once, a few branches at a time: each ``W W^dagger``,
        PSD by construction and not clipped, is made exactly Hermitian and
        divided by its trace.  No reference to ``factors`` is kept.
        """
        labels = tuple(labels)
        w = _as_exact(factors)
        if w.ndim != 3 or min(w.shape[1:]) < 1:
            raise ValueError(f"expected a (B, d, r) stack of factors, got shape {w.shape}")
        tr = np.einsum("bij,bij->b", w, w.conj()).real
        # a trace sums |w|^2 terms, which cannot cancel: a NaN or inf entry leaves its branch's
        # trace non-finite, so only those branches' entries are read
        if not np.isfinite(w[~np.isfinite(tr)]).all():
            raise ValueError("factor has a non-finite entry")
        if len(w) != len(labels):
            raise ValueError(f"{len(labels)} labels for {len(w)} branch factors")
        bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
        if bad.size:
            raise ValueError(f"branch {labels[bad[0]]!r} has trace {float(tr[bad[0]])!r}, not 1 within {TRACE_TOL}")
        matrices = np.empty((len(w), w.shape[1], w.shape[1]), dtype=w.dtype)
        for part in _chunks(len(w), w.shape[1]):
            rho = w[part] @ w[part].conj().swapaxes(1, 2)
            rho += rho.conj().swapaxes(1, 2)
            rho /= 2
            rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
            matrices[part] = rho
        cq = object.__new__(cls)
        cq._assemble(key_len, labels, probs, matrices)
        return cq

    def _assemble(self, key_len: int, labels: tuple[str, ...], probs, matrices: np.ndarray) -> None:
        # the one path that sets attributes, for a validated stack
        if not isinstance(key_len, int) or key_len < 0:
            raise ValueError("key_len must be a nonnegative integer")
        if not labels:
            raise ValueError("a cq-state needs at least one branch")
        for label in labels:
            if not (isinstance(label, str) and _valid_label(label, key_len)):
                raise ValueError(f"label {label!r} is not a {key_len}-bit string or {PERP}")
        keys = [_label_sort_key(label) for label in labels]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("labels must be distinct and sorted: bit strings in order, then PERP")
        probs = np.array(probs, dtype=np.float64)
        if probs.shape != (len(labels),):
            raise ValueError(f"need one probability per label, got shape {probs.shape}")
        bad = np.flatnonzero(~((probs >= -PROB_SUM_TOL) & (probs <= 1.0 + PROB_SUM_TOL)))
        if bad.size:
            raise ValueError(f"branch probability {float(probs[bad[0]])!r} outside [0, 1]")
        probs = np.clip(probs, 0.0, 1.0)
        total = sum(probs.tolist())
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "key_len", key_len)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        matrices.setflags(write=False)
        object.__setattr__(self, "matrices", matrices)

    @functools.cached_property
    def branches(self) -> Mapping[str, tuple[float, DensityOperator]]:
        return MappingProxyType(
            {label: (float(p), DensityOperator._view(m)) for label, p, m in zip(self.labels, self.probs, self.matrices)}
        )

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def p_perp(self) -> float:
        return float(self.probs[-1]) if self.labels[-1] == PERP else 0.0


class Povm(Record, eq=False):
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
        labels = [str(label) for label, _ in effects]
        for k, label in enumerate(labels):
            if label in labels[:k]:
                raise ValueError(f"duplicate outcome label {label!r}")
        mats = [_as_square(e) for _, e in effects]
        if len({e.shape for e in mats}) > 1:
            raise ValueError("all effects must share one dimension")
        stack = np.stack(mats)
        _hermitian_psd(stack, [f"effect {label!r}" for label in labels])
        dev = float(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max())
        if dev > POVM_SUM_TOL:
            raise ValueError(f"effects do not sum to identity (deviation {dev:.3e})")
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
        v = _as_square(basis).copy()
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
    return _bit_strings(n) if dim == 2**n else [str(i) for i in range(dim)]


def _bit_strings(n: int) -> list[str]:
    """Every n-bit string in lexicographic order (string v spells v in binary), "" for n = 0."""
    if n > 16:
        raise ValueError(f"refusing to enumerate 2^{n} bit strings")
    return [format(i, f"0{n}b") if n else "" for i in range(2**n)]


def qubit_basis(theta: float) -> np.ndarray:
    """Real orthonormal qubit basis rotated by ``theta``.

    Row 0 is ``cos(theta)|0> + sin(theta)|1>``; theta = 0 is the
    computational basis, pi/4 the diagonal basis, pi/8 the Breidbart
    (intermediate) basis.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def product_qubit_povm(thetas: Sequence[float]) -> Povm:
    """Product of single-qubit projective measurements in the bases
    :func:`qubit_basis`, one angle per qubit.

    Outcome labels are bit strings with qubit 0 as the leftmost bit.
    An empty angle list yields the trivial measurement on dimension 1.
    """
    v = np.ones((1, 1))
    for theta in thetas:
        # Kronecker product v (x) u, without np.kron's per-call overhead
        v = (v[:, None, :, None] * qubit_basis(theta)[None, :, None, :]).reshape(2 * len(v), -1)
    return Povm.from_basis(v, labels=_bit_strings(len(thetas)))


def _kron_rows(factors: np.ndarray) -> np.ndarray:
    """The ``(B, 2^n, 2^n)`` Kronecker products ``factors[b, 0] (x) factors[b, 1] (x) ...`` of a
    ``(B, n, 2, 2)`` stack, n >= 1, taken from the last factor so each step's inner axis is long
    (:func:`product_qubit_povm` folds from the first, the roundings its I_acc figures carry)."""
    out = factors[:, -1]
    for i in range(factors.shape[1] - 2, -1, -1):
        out = (factors[:, i, :, None, :, None] * out[:, None, :, None, :]).reshape(len(out), 2 * out.shape[1], -1)
    return out


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
    probability zero.  The blocks are the :func:`_gaps` of ``a`` laid out
    against ``b`` (:func:`_pair`); their eigenvalues come from batched
    calls over a few blocks at a time, and they are summed in label order.
    """
    if a.key_len != b.key_len:
        raise ValueError("cq-states have different key lengths")
    if a.dim != b.dim:
        raise ValueError("cq-states have different branch dimensions")
    pair = _pair(a, b.labels, b.probs, b.matrices)
    return _block_distance(gap for _, gap in _gaps(a, pair, _STACK_CHUNK))


class _Pair(NamedTuple):
    """A cq-state laid out against another side on their sorted label union ``labels``:
    for each label, the state's row ``rows`` (-1 where it lacks the label) and probability
    ``p``, and the other side's probability ``q`` and operator ``stack[index]`` (q is 0, and
    index 0, where that side lacks the label)."""

    labels: tuple[str, ...]
    rows: np.ndarray
    p: np.ndarray
    q: np.ndarray
    index: np.ndarray
    stack: np.ndarray


def _pair(cq: CqState, labels: Sequence[str], probs: np.ndarray, stack: np.ndarray, index=None) -> _Pair:
    """``cq`` against the side whose sorted ``labels`` have probabilities ``probs`` and
    operators ``stack[index]``, by default ``stack`` itself, one operator per label."""
    union = tuple(sorted(set(cq.labels).union(labels), key=_label_sort_key))
    rows, theirs = _rows(cq.labels, union), _rows(labels, union)
    index = np.arange(len(labels)) if index is None else np.asarray(index, dtype=np.intp)
    return _Pair(
        union,
        rows,
        np.where(rows >= 0, cq.probs[rows], 0.0),
        np.where(theirs >= 0, probs[theirs], 0.0),
        np.where(theirs >= 0, index[theirs], 0),
        stack,
    )


def _rows(labels: Sequence[str], wanted: Sequence[str]) -> np.ndarray:
    """The index in ``labels`` of each label of ``wanted``, -1 where it is missing."""
    index = {label: k for k, label in enumerate(labels)}
    return np.array([index.get(label, -1) for label in wanted], dtype=np.intp)


def _gaps(a: CqState, pair: _Pair, entries: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The ``(b, d, d)`` stacks ``p_k rho_k - q_k sigma_k`` over the pair's labels, ``entries``
    entries a batch, with each batch's slice: ``rho_k`` is the branch of ``a`` and ``sigma_k``
    the other side's operator, and a label missing on one side weighs 0 there.  ``q sigma``
    is subtracted run by run of labels that share an operator, which is never gathered."""
    dtype = np.result_type(a.matrices, pair.stack)
    for part in _chunks(len(pair.labels), a.dim, entries):
        gap = a.matrices[pair.rows[part]]
        gap *= pair.p[part, None, None]
        gap = gap.astype(dtype, copy=False)
        q, index = pair.q[part, None, None], pair.index[part]
        for run in _runs(index):
            gap[run] -= q[run] * pair.stack[index[run.start]]
        yield part, gap


def _runs(index: np.ndarray) -> Iterator[slice]:
    """The slices of the runs of equal entries of the 1-d ``index``, in order."""
    starts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]]).tolist()
    return (slice(a, b) for a, b in zip(starts, [*starts[1:], len(index)]))


def _block_distance(blocks: Iterable[np.ndarray]) -> float:
    """Half the summed trace norms of the Hermitian blocks of a sequence of ``(B, d, d)``
    stacks, in order, clamped to [0, 1]; each stack is overwritten.

    fl(x - y) == -fl(y - x): a block whose first nonzero component is negative is
    negated, and -0.0 made 0.0, so a block and its negation give eigvalsh the same bits.
    """
    norms = []
    for stack in blocks:
        flat = stack.view(np.float64).reshape(len(stack), -1)
        first = flat[np.arange(len(flat)), np.argmax(flat != 0.0, axis=1)]
        np.negative(stack, out=stack, where=(first < 0.0)[:, None, None])
        stack += 0.0
        norms.append(np.abs(np.linalg.eigvalsh(stack)).sum(axis=1))
    return min(1.0, max(0.0, float(_ordered_sum(0.5 * np.concatenate(norms), 0))))


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
    # A subtree is expanded breadth first once its float64 tables take at
    # most an eighth of the stack's bytes: the walk's peak, a few tables
    # plus the open prefix states, then stays below the one stack-sized
    # product that the dense born_table allocates.
    yield from _born_subtree(stack, weights, len(matrices), matrices.nbytes // 64)


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
