"""Shared fixtures, random-object factories and independent oracles.

The factories here deliberately construct objects through a different
route than the package internals (Ginibre sampling, nuclear norms via
SVD, block-diagonal embeddings via kron) so that agreement between the
two is evidence, not tautology.
"""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
from hypothesis import HealthCheck, settings

from qkdlab.attack_lab import _BB84_AMPS, _complete_pads
from qkdlab.keystream import StreamParams
from qkdlab.quantum_core import PERP, CqState, DensityOperator, Povm
from qkdlab.security_metrics import Strategy, strategy_acceptance

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# One line per acceptance criterion, collected by the acceptance tests
# and printed after the run (the summary hook survives output capture).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# Key-stream schedules whose columns reach every branch of the epsilon formula.
COLUMN_PARAMS = [
    StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000),
    StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=100),  # clamped early rounds
    StreamParams(n0=30_000, c=7.3, ell=100, ell0=50),
    StreamParams(gamma=0.002, rate_rho=0.03, nu=0.0007, n0=10**6, c=10**6, ell0=40_000, eps0=1e-12),  # an int c
    StreamParams(gamma=1.0, n0=10, c=1.0, ell=1000, ell0=1),  # exponents past the 700 cap
    StreamParams(rate_rho=1e305, n0=10**4, c=1e-305, ell=4, ell0=5),  # rate_rho * n_i overflows
]
COLUMN_PARAMS_IDS = ["small", "clamped", "slow_growth", "int_c", "capped", "overflowed"]


def make_pure(amplitudes) -> np.ndarray:
    """Normalise a nonzero complex vector into a unit state vector."""
    a = np.array(amplitudes, dtype=np.complex128)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError("amplitudes must be a nonempty 1-d vector")
    norm = float(np.linalg.norm(a))
    if not 1e-12 <= norm < math.inf:
        raise ValueError("cannot normalise a (near-)zero or non-finite vector")
    return a / norm


def bb84(r: int, s: int) -> np.ndarray:
    """The package's BB84 amplitudes of data bit ``r`` in basis ``s`` (0 computational, 1 diagonal)."""
    return _BB84_AMPS[s, r]


def to_density(psi: np.ndarray) -> DensityOperator:
    """The projector onto the unit state vector ``psi``."""
    return DensityOperator(np.outer(psi, np.conj(psi)))


def standard_basis_povm(dim: int) -> Povm:
    return Povm.from_basis(np.eye(dim, dtype=np.complex128))


def rand_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityOperator:
    """Ginibre-sampled density operator (full rank unless ``rank`` given)."""
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def rand_pure_vec(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def rand_povm(rng: np.random.Generator, dim: int, outcomes: int) -> Povm:
    """Random POVM: PSD pieces whitened by the inverse square root of their sum."""
    mats = []
    for _ in range(outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append(g @ g.conj().T)
    s = np.sum(mats, axis=0)
    w, v = np.linalg.eigh(s)
    inv_sqrt = (v * (w**-0.5)) @ v.conj().T
    return Povm(tuple((str(i), inv_sqrt @ m @ inv_sqrt) for i, m in enumerate(mats)))


def rand_cq(
    rng: np.random.Generator,
    key_len: int,
    dim: int,
    include_perp: bool = False,
    max_branches: int | None = None,
) -> CqState:
    labels = [format(i, f"0{key_len}b") for i in range(2**key_len)]
    if max_branches is not None and max_branches < len(labels):
        picked = rng.choice(len(labels), size=max_branches, replace=False)
        labels = [labels[i] for i in picked]
    if include_perp:
        labels.append(PERP)
    probs = rng.dirichlet(np.ones(len(labels)))
    branches = {
        label: (float(p), rand_density(rng, dim)) for label, p in zip(labels, probs)
    }
    return CqState(key_len=key_len, branches=branches)


def dense_embedding(cq: CqState, label_order: list[str]) -> np.ndarray:
    """Block-diagonal classical-quantum embedding over a fixed label order."""
    dim = cq.dim
    size = len(label_order) * dim
    out = np.zeros((size, size), dtype=np.complex128)
    for idx, label in enumerate(label_order):
        entry = cq.branches.get(label)
        if entry is None:
            continue
        p, rho = entry
        sl = slice(idx * dim, (idx + 1) * dim)
        out[sl, sl] = p * rho.matrix
    return out


def distinguishing_advantage(cq_real: CqState, cq_ideal: CqState, strategy: Strategy) -> float:
    """Acceptance gap of one strategy between two cq-states (exact): the dense oracle for
    the advantages the library reads off an ideal's one register or one branch per orbit."""
    return strategy_acceptance(cq_real, strategy) - strategy_acceptance(cq_ideal, strategy)


def traced_peak(fn):
    """``fn()`` and the peak of the memory that Python and numpy traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nuclear_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance through the nuclear norm (SVD route)."""
    return 0.5 * float(np.linalg.norm(a - b, "nuc"))


def entropy_bits(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def assert_same_bytes(got: bytes, want: bytes) -> None:
    """Assert ``got == want``; on a mismatch, report the lengths and the first differing offset.

    A plain ``assert`` on two long strings makes pytest diff them with difflib,
    which takes about a minute for a report of a few hundred kB.
    """
    if got == want:
        return
    common = min(len(got), len(want))
    differ = np.flatnonzero(np.frombuffer(got[:common], np.uint8) != np.frombuffer(want[:common], np.uint8))
    at = int(differ[0]) if differ.size else common
    window = slice(max(0, at - 40), at + 40)
    raise AssertionError(
        f"got {len(got)} bytes, want {len(want)}; first difference at offset {at}:"
        f"\n  got  {got[window]!r}\n  want {want[window]!r}"
    )


# ---------------------------------------------------------------------------
# scalar oracles for the batched attack rounds and the RSA auctions


def measure_encoded_qubit(r: int, s: int, basis: int, rng: np.random.Generator) -> int:
    """Measure the BB84 state |r>_s in BB84 basis ``basis``; return the outcome bit.

    The Born rule gives outcome r with probability exactly 1 when the
    bases match and a uniform bit otherwise, so the sampling dispatches
    on basis equality; the numeric Born probabilities are verified
    separately in the test suite.
    """
    if r not in (0, 1) or s not in (0, 1) or basis not in (0, 1):
        raise ValueError("r, s and basis must be bits")
    if basis == s:
        return r
    return int(rng.integers(0, 2))


def sample_pad(n: int, parity: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform n-bit pad with the given XOR, via n-1 free bits."""
    return tuple(_complete_pads(rng.integers(0, 2, size=(1, n - 1)), parity)[0].tolist())


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


def _rsa_key(p: int, q: int, e: int) -> RsaKey:
    phi = (p - 1) * (q - 1)
    return RsaKey(n=p * q, e=e, d=pow(e, -1, phi), p=p, q=q)


def rsa_encrypt(key: RsaKey, m: int) -> int:
    if not 0 <= m < key.n:
        raise ValueError("plaintext out of range")
    return pow(m, key.e, key.n)


def rsa_decrypt(key: RsaKey, c: int) -> int:
    if not 0 <= c < key.n:
        raise ValueError("ciphertext out of range")
    return pow(c, key.d, key.n)
