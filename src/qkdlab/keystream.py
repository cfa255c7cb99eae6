"""Epsilon budgeting for an unbounded authenticated key stream.

A short initial secret seeds round 1; each round i consumes the stored
key of the previous round (length ell_{i-1}) to authenticate its
classical traffic, produces ell_i + ell fresh bits, stores ell_i for
the next round, and emits ell to the consumer stream.  Per-round
failure is bounded by

    eps_i <= exp(-gamma (rate_rho n_i - ell_i - ell)) + exp(-nu ell_{i-1} + ln n_i)

with the published sizes growing linearly, ``n_i = n0 + ceil(c i)`` and
``ell_i = ell + ceil(c rate_rho i / 2)``, so the stream's total epsilon
is a convergent series summable in closed form.  ``log`` in the second
exponent is read as the natural logarithm; the default rate constants
are RATE_RHO_DEFAULT = 1e-2 and GAMMA_DEFAULT = NU_DEFAULT = 1e-3.

Both terms fall below the smallest float within a few thousand rounds,
after which every round's epsilon is exactly 0.0.  A schedule is
therefore worked out in blocks of rounds, and a block keeps the columns
of its rounds up to its last nonzero term only, none if it has none;
the sizes of its later rounds are computed again when their rows are
written.  No array spans every round of a long schedule.

The module also contains an exact bit-conservation simulator for the
store/consume/emit ledger, which is where accounting bugs would hide.
Round i's output is ``ell_i`` stored bits followed by ``ell`` emitted
ones.  The initial secret and then every round's stored part make up the
stored stream, which authentication reads first in, first out: round i
consumes its offsets ``[C_{i-1}, C_i)``, ``C_i = ell_0 + ... + ell_{i-1}``.
The simulator checks in closed form, a block of rounds at a time, that
every consumed range exists when it is read, that no two overlap and
that no stored bit goes missing, so no key bit is used twice, which
composability forbids.  Only the emitted bits are drawn, in one batch.

Sizes count bits or signals and are evaluated in floating point, so
they must stay at most 2**53, the largest range over which a float
holds every integer exactly; larger sizes are a ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from ._json import JsonRecord, Record

__all__ = [
    "GAMMA_DEFAULT",
    "NU_DEFAULT",
    "RATE_RHO_DEFAULT",
    "StreamParams",
    "RoundRecord",
    "StreamBudget",
    "PlanningError",
    "StreamError",
    "KeyLedgerUnderflow",
    "RetryLimitExceeded",
    "LedgerBroken",
    "MockKeySource",
    "RoundLedger",
    "StreamLog",
    "schedule",
    "total_eps",
    "plan",
    "simulate_stream",
]

GAMMA_DEFAULT = 1e-3
NU_DEFAULT = 1e-3
RATE_RHO_DEFAULT = 1e-2

_EXP_MAX = 700.0  # math.exp overflows just above 709
_EXP_MIN = -746.0  # math.exp is exactly 0.0 below about -745.13
_MAX_BITS = 2**53  # every integer up to here is exactly a float
_LOG_MAX = math.log(_MAX_BITS)  # no size exceeds 2**53, so no log of one exceeds this


def _safe_exp(x: float) -> float:
    return math.exp(min(x, _EXP_MAX))


def _check_rate(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite")


def _check_size(name: str, value: int) -> None:
    if not isinstance(value, int) or not 0 < value <= _MAX_BITS:
        raise ValueError(f"{name} must be a positive integer at most 2**53")


def _ceil_size(x: float, what: str) -> int:
    """``ceil(x)`` as a count of bits or signals, refusing what exceeds 2**53."""
    if not x <= _MAX_BITS:
        raise ValueError(f"{what} of {x} exceeds 2**53")
    return math.ceil(x)


class StreamParams(JsonRecord):
    """Parameters of the key-stream schedule.

    ``n0``/``c`` size the per-round signal counts, ``ell`` is the
    per-round output length, ``ell0`` the initial stored secret, and
    ``eps0`` the epsilon charged for producing that initial secret.
    The planner additionally enforces ``rate_rho * n0 > 2 * ell`` so
    the first exponent decays; the constructor does not, since the
    clamped epsilon formula stays well defined without it.
    """

    JSON_TYPE = "stream_params"

    gamma: float = GAMMA_DEFAULT
    rate_rho: float = RATE_RHO_DEFAULT
    nu: float = NU_DEFAULT
    n0: int = 1_000_000
    c: float = 1_000_000.0
    ell: int = 256
    ell0: int = 40_000
    eps0: float = 0.0

    def __post_init__(self):
        # sizes first: c defaults to n0 on the command line, so a bad n0 is named as n0
        for name in ("n0", "ell", "ell0"):
            _check_size(name, getattr(self, name))
        for name in ("gamma", "rate_rho", "nu", "c"):
            _check_rate(name, float(getattr(self, name)))
        if not 0.0 <= self.eps0 <= 1.0:
            raise ValueError("eps0 must lie in [0, 1]")

    def signal_count(self, i: int, real_valued: bool = False) -> float | int:
        raw = self.n0 + self.c * i
        return raw if real_valued else self.n0 + math.ceil(self.c * i)

    def stored_len(self, i: int, real_valued: bool = False) -> float | int:
        """Length of the key stored by round i (consumed by round i+1)."""
        if i == 0:
            return self.ell0
        raw = self.c * self.rate_rho * i / 2.0
        return self.ell + (raw if real_valued else math.ceil(raw))


class RoundRecord(Record):
    """One scheduled round: sizes, the two epsilon terms, and their clamped sum."""

    i: int
    n_i: float
    ell_i: float
    eps_i: float
    term_signal: float
    term_auth: float
    clamped: bool


def _check_rounds(p: StreamParams, rounds: int) -> None:
    """Refuse a schedule of no round, or one whose sizes exceed 2**53."""
    if rounds < 1:
        raise ValueError("need at least one round")
    # sizes grow with i, so the last round bounds them all
    if rounds > _MAX_BITS or max(p.signal_count(rounds, True), p.stored_len(rounds, True)) > _MAX_BITS:
        raise ValueError(f"the sizes of round {rounds} exceed 2**53")


def _sizes(p: StreamParams, lo: int, hi: int, real_valued: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`StreamParams.signal_count` of rounds lo..hi-1 and ``stored_len`` of lo-1..hi-1, as arrays.

    Each element is the same expression whatever the range, so the sizes of
    a block of rounds equal those of the whole schedule.
    """
    _check_rounds(p, hi - 1)
    i = np.arange(lo - 1, hi)  # an int c keeps int sizes, as in Python
    n = p.c * i[1:]
    ell = p.c * p.rate_rho * i / 2.0
    if not real_valued:
        n = np.ceil(n).astype(np.int64)
        ell = np.ceil(ell).astype(np.int64)
    ell = p.ell + ell
    if lo == 1:
        ell[0] = p.ell0
    return p.n0 + n, ell


class _Columns(NamedTuple):
    """Rounds lo..hi-1 of a schedule; its live rounds ``lo``..``lo + len(eps) - 1``, those up to
    its last nonzero term, are parallel arrays, with ``ell[0]`` ``ell_{lo-1}`` and ``ell[j]``
    round ``lo + j - 1``'s.  Every later round has both terms and ``eps`` exactly 0.0, unclamped."""

    lo: int
    hi: int
    n: np.ndarray
    ell: np.ndarray
    term_signal: np.ndarray
    term_auth: np.ndarray
    eps: np.ndarray
    clamped: np.ndarray

    @property
    def rounds(self) -> range:
        """The live rounds."""
        return range(self.lo, self.lo + len(self.eps))


class _Schedule(NamedTuple):
    """Rounds 1..``rounds`` of a schedule as its :class:`_Columns`, blocks of ``_BATCH`` rounds, in order."""

    p: StreamParams
    real_valued: bool
    blocks: list[_Columns]

    @property
    def live(self) -> int:
        """The last round with a nonzero term, or 0 if there is none."""
        return max((block.rounds.stop - 1 for block in self.blocks if len(block.eps)), default=0)

    def parts(self) -> Iterator[tuple[_Columns, np.ndarray, np.ndarray, np.ndarray]]:
        """Each block as ``(columns, i, n, ell)``: its :class:`_Columns`, then the rounds
        after its live ones, with their ``n_i`` and ``ell_i`` from :func:`_sizes`."""
        for block in self.blocks:
            n, ell = _sizes(self.p, block.rounds.stop, block.hi, self.real_valued)
            yield block, np.arange(block.rounds.stop, block.hi), n, ell[1:]


# rounds in a block of _columns or _check_ledger, or array elements turned into Python numbers, at a time
_BATCH = 4096
# bytes of rows that _fill and _int_rows write out as one piece: a piece is at most this plus one
# row, whatever the row count, so a writer holds one bounded piece however long its rows are
_PIECE_BYTES = 2**18


def _batches(column: np.ndarray) -> Iterator[np.ndarray]:
    """``column`` in slices of ``_BATCH`` elements."""
    return (column[start:start + _BATCH] for start in range(0, len(column), _BATCH))


def _elements(column: np.ndarray) -> Iterator:
    """The elements of ``column`` in order, as Python numbers, converted ``_BATCH`` at a time."""
    return itertools.chain.from_iterable(batch.tolist() for batch in _batches(column))


def _joined(parts: list[str]) -> bytes:
    """``parts`` joined and encoded, emptying ``parts`` first: neither the rows nor their
    join outlive the call, and the caller keeps no reference to the piece it hands on."""
    text = "".join(parts)
    parts.clear()
    return text.encode()


def _fill(template: str, rows: Iterable[tuple]) -> Iterator[bytes]:
    """``template % row`` for each of ``rows``, one Python fill per row, encoded in pieces.

    A piece is joined once its rows reach ``_PIECE_BYTES`` characters (bytes, for the
    ASCII rows the commands write), so it is at most that plus one row, however long
    or short the rows are; ``_BATCH`` does not bound it.
    """
    parts, size = [], 0
    for row in map(template.__mod__, rows):
        parts.append(row)
        size += len(row)
        if size >= _PIECE_BYTES:
            yield _joined(parts)
            size = 0
    if parts:
        yield _joined(parts)


# 10, 100, ..., 10**18: a non-negative int64 has one digit more than the number of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _int_rows(template: str, columns: list[np.ndarray]) -> Iterator[bytes | memoryview]:
    """:func:`_fill` of ``template``, one ``%s`` per column, with the rows of ``columns``.

    Integer columns (sizes and round numbers, never negative) are written by array
    arithmetic instead, ``_BATCH`` rows at a time.  Each run of rows whose values have
    the same digit counts (found by a ``searchsorted`` on powers of ten) has its digits
    worked out over the whole run, one numpy call per digit place, into a ``(rows,
    width)`` uint8 matrix per column.  Only then is the run written, as pieces of at
    most ``_PIECE_BYTES`` (or one row, if a row is longer): each piece is a ``(rows,
    len(row))`` uint8 block, the row template with every slot as wide as its value and
    the digit matrices copied into the slots, yielded as a byte view of the array.  So
    no more than one piece of rows is held, while the arithmetic still runs on up to
    ``_BATCH`` rows at a time.  A batch with a float column, printed by ``repr``, goes
    through :func:`_fill`.
    """
    literals = [part.encode() for part in template.split("%s")]
    for batch in zip(*map(_batches, columns)):
        if any(column.dtype.kind != "i" for column in batch):
            yield from _fill(template, zip(*(column.tolist() for column in batch)))
            continue
        widths = np.searchsorted(_POWERS_OF_TEN, np.stack(batch), side="right") + 1
        edges = (np.flatnonzero((widths[:, 1:] != widths[:, :-1]).any(axis=0)) + 1).tolist()
        for lo, hi in zip([0, *edges], [*edges, len(batch[0])]):
            digits = widths[:, lo].tolist()
            row = literals[0] + b"".join(b"0" * width + literal for width, literal in zip(digits, literals[1:]))
            slots, end = [], len(literals[0])
            for column, width, literal in zip(batch, digits, literals[1:]):
                matrix = np.empty((hi - lo, width), np.uint8)
                x = column[lo:hi]
                for place in range(width - 1, -1, -1):
                    quotient = x // 10
                    matrix[:, place] = x - 10 * quotient + 48  # the ASCII digit
                    x = quotient
                slots.append((slice(end, end + width), matrix))
                end += width + len(literal)
            step = max(1, _PIECE_BYTES // len(row))
            for start in range(0, hi - lo, step):
                yield _piece(row, slots, start, min(start + step, hi - lo))


def _piece(row: bytes, slots: list[tuple[slice, np.ndarray]], start: int, stop: int) -> memoryview:
    """Rows start..stop-1 of a run of :func:`_int_rows` as one ``(rows, len(row))`` uint8
    block, a byte view of the array: ``row`` in every row, then each digit matrix in its
    slot.  The caller keeps no reference to it, so it is freed once written, before the
    next piece is made.
    """
    piece = np.empty((stop - start, len(row)), np.uint8)
    piece[:] = np.frombuffer(row, np.uint8)
    for slot, matrix in slots:
        piece[:, slot] = matrix[start:stop]
    return memoryview(piece).cast("B")


def _math(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """The array of ``f(v)`` for every element ``v`` of ``x``, one Python call per element."""
    return np.fromiter(map(f, _elements(x)), np.float64, len(x))


def _math_where(f: Callable[[float], float], x: np.ndarray, called: np.ndarray) -> np.ndarray:
    """:func:`_math` of ``x`` where ``called`` is true, and 0.0 elsewhere; no call at all
    where nothing is called, as in every block past a schedule's live rounds."""
    where = called.nonzero()[0]
    if len(where) == len(x):
        return _math(f, x)
    out = np.zeros(len(x))
    if len(where):
        out[where] = _math(f, x[where])
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element of ``x``, called only where it can be nonzero (and on NaN)."""
    return _math_where(math.exp, x, ~(x < _EXP_MIN))


def _add_log(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``x + math.log(n)`` elementwise, in place, with ``log`` called only where the sum
    can reach ``_EXP_MIN`` (and on NaN).

    No ``n`` exceeds 2**53, so wherever even ``x + log(2**53)`` stays below ``_EXP_MIN``,
    ``x`` gets 0.0 added instead: it is below ``_EXP_MIN`` too, and its :func:`_exp` is
    0.0, as that of the sum would be.
    """
    x += _math_where(math.log, n, ~(x + _LOG_MAX < _EXP_MIN))
    return x


def _block(p: StreamParams, lo: int, hi: int, real_valued: bool) -> _Columns:
    """Rounds lo..hi-1 of the schedule, column by column (see :func:`_columns`)."""
    n, ell = _sizes(p, lo, hi, real_valued)
    # float64 copies, as an int rate times int64 sizes would wrap; the signal
    # exponent -gamma (rate_rho n_i - ell_i - ell) is built in the copy of n
    # once auth has read it
    signal = n.astype(np.float64)
    with np.errstate(over="ignore"):
        auth = ell[:-1].astype(np.float64)
        auth *= -p.nu
        t_auth = _exp(np.minimum(_add_log(auth, signal), _EXP_MAX, out=auth))
        signal *= p.rate_rho
        signal -= ell[1:]
        signal -= p.ell
        signal *= -p.gamma
    t_signal = _exp(np.minimum(signal, _EXP_MAX, out=signal))
    eps = t_signal + t_auth
    nonzero = eps != 0.0  # both terms are at least 0.0, so eps is 0.0 only where both are
    live = len(eps) - int(np.argmax(nonzero[::-1])) if nonzero.any() else 0
    # copies of the live rounds: a view would keep the whole work arrays alive
    return _Columns(lo, hi, n[:live].copy(), ell[:live + 1].copy(), t_signal[:live].copy(), t_auth[:live].copy(),
                    np.minimum(eps[:live], 1.0), eps[:live] > 1.0)


def _columns(p: StreamParams, rounds: int, real_valued: bool = False) -> _Schedule:
    """The schedule of rounds 1..rounds, in blocks of ``_BATCH`` rounds, column by column.

    Round i's epsilon is ``min(1, t_signal + t_auth)`` with ``t_signal = exp(min(-gamma
    (rate_rho n_i - ell_i - ell), 700))`` and ``t_auth = exp(min(-nu ell_{i-1} + log n_i,
    700))``, the IEEE operations of a per-round loop on arrays, but every ``exp`` and
    ``log`` is ``math``'s: numpy's differ in the last unit on some inputs.  ``math`` is
    called only where a term can be nonzero (:func:`_exp`, :func:`_add_log`): ``exp`` of
    an exponent below ``_EXP_MIN`` is 0.0, and ``log(n_i)`` is needed only where adding
    ``log(2**53)`` would lift ``-nu ell_{i-1}`` to ``_EXP_MIN``.  In a long schedule that
    is the first few thousand rounds; every later one is 0.0 without a call, and a block
    keeps its columns only up to its last nonzero term (see :class:`_Columns`), so the
    schedule holds about 41 bytes a round only up to its last live round.
    """
    _check_rounds(p, rounds)
    return _Schedule(p, real_valued, [
        _block(p, lo, min(lo + _BATCH, rounds + 1), real_valued) for lo in range(1, rounds + 1, _BATCH)
    ])


def schedule(p: StreamParams, rounds: int, real_valued: bool = False) -> list[RoundRecord]:
    """Records for rounds 1..rounds.

    Integer mode (default) applies the ceilings; ``real_valued`` drops
    them, which makes the signal-term epsilons exactly geometric with
    ratio ``exp(-gamma c rate_rho / 2)`` and exists so that algebraic
    identities can be tested exactly.
    """
    records = []
    for c, rounds_after, n, ell in _columns(p, rounds, real_valued).parts():
        records += map(RoundRecord, c.rounds,
                       *map(_elements, (c.n, c.ell[1:], c.eps, c.term_signal, c.term_auth, c.clamped)))
        records += (RoundRecord(i, n_i, ell_i, 0.0, 0.0, 0.0, False)
                    for i, n_i, ell_i in zip(*map(_elements, (rounds_after, n, ell))))
    return records


def _running_sum(start: float, eps: np.ndarray) -> np.ndarray:
    """``start``, then ``start + eps[0]`` and each further element added in turn: the
    left-to-right sums a ``+=`` loop gives (``np.cumsum`` of one axis adds in order)."""
    return np.cumsum(np.concatenate(([start], eps)))


def _csv(columns: _Schedule) -> Iterator[bytes | memoryview]:
    """The schedule as RFC 4180 CSV with a running epsilon sum, encoded, in pieces of at most
    ``_PIECE_BYTES`` plus one row (the header is a piece of its own).

    No field of a row needs quoting, and ``csv`` writes a number as its ``repr``,
    so each row is a template filled with ``%s``.  The running sum is carried from
    block to block in round order.  Rounds after a block's live ones have ``eps_i``
    0.0 and the running sum so far, so their template holds both fixed and
    :func:`_int_rows` fills in the sizes.
    """
    cumulative = 0.0
    yield b"i,n_i,ell_i,eps_i,cumulative_eps\r\n"
    for c, rounds, n, ell in columns.parts():
        running = _running_sum(cumulative, c.eps)
        yield from _fill("%s,%s,%s,%s,%s\r\n", zip(
            c.rounds, _elements(c.n), _elements(c.ell[1:]), _elements(c.eps), _elements(running[1:]),
        ))
        cumulative = float(running[-1])
        yield from _int_rows(f"%s,%s,%s,0.0,{cumulative!r}\r\n", [rounds, n, ell])


class StreamBudget(JsonRecord):
    """Total-epsilon accounting: explicit rounds plus an infinite-tail bound."""

    JSON_TYPE = "stream_budget"

    horizon: int
    real_valued: bool
    partial_sum: float
    tail_bound: float
    eps_total: float
    divergent: bool


def total_eps(p: StreamParams, horizon: int = 200, real_valued: bool = False) -> StreamBudget:
    """Upper bound on the whole stream's epsilon: ``eps0 + partial + tail``.

    Rounds 1..horizon are summed explicitly.  Beyond the horizon both
    term families decay geometrically (ratios ``exp(-gamma c rate_rho/2)``
    and ``exp(-nu c rate_rho/2)``) and are bounded by closed forms: a
    geometric tail for the signal terms and an arithmetico-geometric
    tail for the authentication terms.  In integer mode each ceiling can
    lift a term above its real-valued value by at most ``exp(gamma)``
    (signal) or ``exp(1/n0)`` (authentication), and the tails carry those
    safety factors.  The series converges for any valid parameters; the
    ``divergent`` flag covers the (constructor-excluded) degenerate case
    and numeric overflow, in which case ``eps_total`` is reported as 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    return _budget(p, (block.eps for block in _columns(p, horizon, real_valued).blocks), horizon, real_valued)


def _budget(p: StreamParams, eps: Iterable[np.ndarray], horizon: int, real_valued: bool) -> StreamBudget:
    """:func:`total_eps` of rounds 1..horizon, given the epsilons ``eps`` of those rounds in
    blocks, in round order; rounds the blocks leave out have epsilon 0.0.

    The partial sum adds them left to right in round order, carried from block
    to block, on every Python version (``sum`` compensates float rounding since
    3.12).  Adding 0.0 to a sum of epsilons leaves it as it is, so the rounds
    left out change nothing, and an empty block leaves the sum as it is.
    """
    partial = 0.0
    for block in eps:
        partial = float(_running_sum(partial, block)[-1])

    g1 = p.gamma * p.c * p.rate_rho / 2.0
    g2 = p.nu * p.c * p.rate_rho / 2.0
    # the authentication tail divides by (1 - q2)^2, which underflows for tiny rates
    divergent = not (g1 > 0.0 and math.expm1(-g2) ** 2 > 0.0)
    if divergent:
        return StreamBudget(horizon, real_valued, partial, math.inf, 1.0, True)

    # signal terms: t1(i) = exp(-gamma (rate_rho n0 - 2 ell)) * q1^i
    log_q1 = -g1
    denom1 = -math.expm1(log_q1)
    log_tail1 = -p.gamma * (p.rate_rho * p.n0 - 2.0 * p.ell) + (horizon + 1) * log_q1 - math.log(denom1)
    if not real_valued:
        log_tail1 += p.gamma
    tail1 = _safe_exp(log_tail1)

    # authentication terms: t2(i) = (n0 + c i) exp(-nu ell) * q2^(i-1)
    log_q2 = -g2
    denom2 = -math.expm1(log_q2)
    q2 = math.exp(log_q2)
    bracket = (p.n0 + p.c * (horizon + 1)) / denom2 + p.c * q2 / (denom2 * denom2)
    log_tail2 = -p.nu * p.ell + horizon * log_q2 + math.log(bracket)
    if not real_valued:
        log_tail2 += 1.0 / p.n0
    tail2 = _safe_exp(log_tail2)

    tail = tail1 + tail2
    total = p.eps0 + partial + tail
    if not math.isfinite(total):
        return StreamBudget(horizon, real_valued, partial, math.inf, 1.0, True)
    return StreamBudget(horizon, real_valued, partial, tail, min(1.0, total), False)


class PlanningError(ValueError):
    """Raised when no schedule within the search bounds meets the target."""

    def __init__(self, message: str, best_params: "StreamParams | None" = None, best_budget: "StreamBudget | None" = None):
        super().__init__(message)
        self.best_params = best_params
        self.best_budget = best_budget


def plan(
    target_eps: float,
    gamma: float = GAMMA_DEFAULT,
    rate_rho: float = RATE_RHO_DEFAULT,
    nu: float = NU_DEFAULT,
    eps0: float = 0.0,
    ell: int = 256,
    horizon: int = 200,
    max_n0: int = 2**40,
) -> StreamParams:
    """Smallest-n0 parameter set whose total epsilon meets the target.

    Deterministic grid-plus-bisection search: for each candidate n0 a
    small grid of growth constants c and initial-secret slacks is
    scored with :func:`total_eps`, n0 is swept geometrically to find a
    feasible point, then bisected down to the smallest feasible value.
    Tightening the target can only push n0 up.  Each candidate n0 is
    scored once per call, and none above ``max_n0``; when none meets the
    target a :class:`PlanningError` carries the best one scored, if any.
    """
    return _plan(target_eps, gamma, rate_rho, nu, eps0, ell, horizon, max_n0)[0]


def _plan(
    target_eps: float, gamma: float, rate_rho: float, nu: float,
    eps0: float, ell: int, horizon: int, max_n0: int,
) -> tuple[StreamParams, StreamBudget]:
    """:func:`plan`'s winner together with its :func:`total_eps` budget."""
    if not 0.0 < target_eps <= 1.0:
        raise ValueError("target_eps must lie in (0, 1]")
    if target_eps <= eps0:
        raise ValueError("target_eps must exceed eps0")
    for name, value in (("gamma", gamma), ("rate_rho", rate_rho), ("nu", nu)):
        _check_rate(name, value)
    _check_size("ell", ell)
    if max_n0 < 1:
        raise ValueError("max_n0 must be positive")

    def candidates(n0: int):
        for c_mult in (0.5, 1.0, 2.0):
            for slack in (1.0, 1.25):
                decay = gamma * (rate_rho * n0 - 2.0 * ell)
                if decay <= 0.0:
                    continue
                c = max(1.0, c_mult * n0)
                ell0 = _ceil_size(slack * (decay + math.log(n0 + c)) / nu, "initial secret")
                yield StreamParams(
                    gamma=gamma, rate_rho=rate_rho, nu=nu,
                    n0=n0, c=c, ell=ell, ell0=ell0, eps0=eps0,
                )

    @functools.cache
    def best_for(n0: int) -> tuple[StreamParams, StreamBudget] | None:
        best = None
        for params in candidates(n0):
            budget = total_eps(params, horizon)
            if budget.divergent:
                continue
            if best is None or budget.eps_total < best[1].eps_total:
                best = (params, budget)
        return best

    def feasible(n0: int) -> tuple[StreamParams, StreamBudget] | None:
        best = best_for(n0)
        if best is not None and best[1].eps_total <= target_eps:
            return best
        return None

    overall_best: tuple[StreamParams, StreamBudget] | None = None
    lo = max(1, _ceil_size(2.0 * ell / rate_rho, "signal count") + 1)
    if lo > max_n0:
        raise PlanningError(f"no schedule with n0 <= {max_n0} exists: the key rate needs n0 >= {lo}")
    hi = lo
    found = feasible(hi)
    while found is None:
        probe = best_for(hi)
        if probe is not None and (overall_best is None or probe[1].eps_total < overall_best[1].eps_total):
            overall_best = probe
        if hi >= max_n0:
            raise PlanningError(
                f"no schedule with n0 <= {max_n0} reaches eps_total <= {target_eps}",
                best_params=overall_best[0] if overall_best else None,
                best_budget=overall_best[1] if overall_best else None,
            )
        lo = hi
        hi = min(2 * hi, max_n0)
        found = feasible(hi)

    # smallest feasible n0 in (lo, hi]
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible(mid) is not None:
            hi = mid
        else:
            lo = mid
    final = feasible(hi)
    assert final is not None
    return final


class StreamError(RuntimeError):
    """The stream simulation cannot go on; ``error`` names the reason in reports."""

    error = "stream_error"


class KeyLedgerUnderflow(StreamError):
    """Stored key ran out: an accounting bug or an unaffordable retry policy."""

    error = "key_ledger_underflow"


class RetryLimitExceeded(StreamError):
    """A round aborted on every one of its allowed attempts."""

    error = "retry_limit_exceeded"


class LedgerBroken(StreamError):
    """The bit-conservation identity failed after a round."""

    error = "ledger_broken"


class MockKeySource(Record):
    """Stand-in key source: fresh random bits, or an abort with fixed probability.

    An aborted attempt is retried, so a round takes a geometric number of
    attempts with success probability ``1 - abort_prob``.  :func:`simulate_stream`
    draws those counts for every round at once and then asks :meth:`generate`
    for the emitted bits of all rounds in one call; the stored part of each
    round's output is tracked as stream offsets and never drawn.
    """

    abort_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.abort_prob <= 1.0:
            raise ValueError("abort_prob must lie in [0, 1]")

    def generate(self, num_bits: int, rng: np.random.Generator) -> np.ndarray:
        """``num_bits`` fresh random bits, packed eight to a byte (``np.packbits`` order, zero padded)."""
        packed = rng.integers(0, 256, -(-num_bits // 8), dtype=np.uint8)
        if num_bits % 8:
            packed[-1] &= (0xFF00 >> num_bits % 8) & 0xFF  # keep the bits in use
        return packed


def _consumption(ell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored-stream bits ``[start, end)`` that rounds lo..hi-1 consume, each in its round's frame.

    ``ell`` holds ``ell_{lo-1}..ell_{hi-1}``.  Round i's offsets count from ``C_{i-1}``,
    where the bits stored by round i-1 begin (see :func:`_check_ledger`).
    First in, first out, round i takes exactly those ``ell_{i-1}`` bits:
    ``[0, ell_{i-1})``, which is ``[C_{i-1}, C_i)`` of the stream.
    """
    return np.zeros_like(ell[:-1]), ell[:-1].copy()


class RoundLedger(Record):
    i: int
    n_i: float
    ell_i: float
    attempts: int
    consumed_after: int
    stored_after: int
    emitted_after: int


class StreamLog(Record):
    """One :func:`simulate_stream` run, kept in arrays.

    It holds the attempts of each round (in the smallest unsigned type that
    holds the run's cap on them), the emitted bits packed eight to a byte
    (``np.packbits`` order) and the final stored and consumed counts.
    :attr:`rounds` rebuilds the per-round ledger on demand, so a run of
    10^6 rounds holds no Python object per round.
    """

    params: StreamParams
    attempts: np.ndarray
    packed_bits: np.ndarray
    stored_final: int
    consumed_final: int

    @property
    def bits_emitted(self) -> int:
        return len(self.attempts) * self.params.ell

    @property
    def total_retries(self) -> int:
        return int(self.attempts.sum()) - len(self.attempts)

    @property
    def rounds(self) -> tuple[RoundLedger, ...]:
        """One :class:`RoundLedger` per round, replayed from the sizes and the attempts over exact integers."""
        p = self.params
        n, ell = _sizes(p, 1, len(self.attempts) + 1)
        consumed, stored, ledger = 0, p.ell0, []
        for i, n_i, need, ell_i, attempts in zip(
            itertools.count(1), _elements(n), _elements(ell), _elements(ell[1:]), _elements(self.attempts)
        ):
            consumed += need
            stored += ell_i - need
            ledger.append(RoundLedger(i, n_i, ell_i, attempts, consumed, stored, i * p.ell))
        return tuple(ledger)


def _check_ledger(p: StreamParams, rounds: int) -> tuple[int, int]:
    """Check every round's consumption of the stored stream; return the final stored and consumed counts.

    The stored stream is the initial secret followed by each round's stored
    part, so no emitted bit has an offset in it.  Round i's offsets count
    from ``C_{i-1} = ell_0 + ... + ell_{i-2}``, where round i-1's stored bits
    begin: the stream then ends at ``ell_{i-1}``, and round i-1's frame
    starts at ``-ell_{i-2}``.  The frames keep every offset near 0, so int64
    holds them exactly at any stream length; only the totals are summed as
    Python ints.  The rounds are read ``_BATCH`` at a time, each block
    carrying where the previous one stopped reading, and every failure
    names the first round at fault, as a check of all rounds at once would.
    """
    _check_rounds(p, rounds)
    total, consumed = p.ell0, 0
    end = back = 0  # the previous round's end in its frame, and ell_{i-2}
    reuse = skip = None
    for lo in range(1, rounds + 1, _BATCH):
        ell = _sizes(p, lo, min(lo + _BATCH, rounds + 1))[1]
        starts, ends = _consumption(ell)
        short = np.flatnonzero(ends > ell[:-1])
        if short.size:
            i = short[0]
            raise KeyLedgerUnderflow(f"round {lo + i}: need {ends[i] - starts[i]} bits, have {ell[i] - starts[i]}")
        # where the previous round stopped reading, in this round's frame; ranges that run
        # forward, each from at or past the previous one's end, are pairwise disjoint
        front = np.concatenate(([end - back], ends[:-1] - ell[:-2]))
        reused = np.flatnonzero((starts < front) | (ends < starts))
        if reuse is None and reused.size:
            i = reused[0]
            reuse = LedgerBroken(
                f"round {lo + i} reuses key bits: it consumes [{starts[i]}, {ends[i]}) of the key stored before it,"
                f" which earlier rounds read up to offset {front[i]}"
            )
        moved = np.flatnonzero(starts != front)
        if skip is None and moved.size:
            skip = lo + int(moved[0])
        total += sum(ell[1:].tolist())
        consumed += sum((ends - starts).tolist())
        end, back = int(ends[-1]), int(ell[-2])
    if reuse is not None:
        raise reuse
    emitted = rounds * p.ell
    produced = total - p.ell0 + emitted
    stored = int(ell[-1]) + back - end  # the bits past the last consumed offset
    if emitted + stored + consumed != produced + p.ell0:  # some round skipped stored bits
        raise LedgerBroken(f"ledger broken at round {skip or 1}")
    return stored, consumed


def simulate_stream(
    p: StreamParams,
    rounds: int,
    key_source: MockKeySource,
    rng: np.random.Generator,
    max_attempts_per_round: int = 100_000,
) -> StreamLog:
    """Run the stream, enforcing the bit-conservation ledger exactly.

    Each round consumes the previous round's stored key (``ell_{i-1}``
    bits of authentication material), stores ``ell_i`` and emits
    ``ell``.  Stored key is read first in, first out: round i consumes
    offsets ``[C_{i-1}, C_i)`` of the stored stream (see the module
    docstring).  Every round is checked in closed form, over exact
    integers, a block of ``_BATCH`` rounds at a time:

    - a round that consumes past the stored total raises
      :class:`KeyLedgerUnderflow`;
    - each round must run forward from at or past where the previous
      one ended, so no consumed bit is used twice; the offsets address
      stored bits only, so no emitted bit is consumed either;
    - ``emitted + stored + consumed == produced + ell0``, where
      ``stored`` counts the bits past the last consumed offset, so a
      round that skips stored bits breaks it.

    The last two raise :class:`LedgerBroken`.  An aborting round is
    retried with fresh randomness and reuses its already-consumed
    authentication budget; every round's attempt count is drawn at once,
    and :class:`RetryLimitExceeded` names the first round that needs more
    than ``max_attempts_per_round``.  The emitted bits of all rounds are
    one :meth:`MockKeySource.generate` draw, kept packed, and the attempt
    counts are kept in the smallest unsigned type that holds
    ``max_attempts_per_round`` (uint32 at the default), so the run keeps
    about ``4 + ell / 8`` bytes per round; the sizes and the ledger are
    worked out ``_BATCH`` rounds at a time, so they add no array over
    every round.
    """
    stored, consumed = _check_ledger(p, rounds)
    if key_source.abort_prob == 1.0:  # no attempt ever succeeds
        raise RetryLimitExceeded(f"round 1: exceeded {max_attempts_per_round} attempts")
    attempts = rng.geometric(1.0 - key_source.abort_prob, rounds)
    over = np.flatnonzero(attempts > max_attempts_per_round)
    if over.size:
        raise RetryLimitExceeded(f"round {over[0] + 1}: exceeded {max_attempts_per_round} attempts")
    # every count is at most the cap, so the smallest unsigned type that holds it holds them all;
    # narrowed before the emitted bits are drawn, so the int64 draw is gone by then
    attempts = attempts.astype(np.min_scalar_type(max_attempts_per_round))
    return StreamLog(
        params=p,
        attempts=attempts,
        packed_bits=key_source.generate(rounds * p.ell, rng),
        stored_final=stored,
        consumed_final=consumed,
    )
