import csv
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COLUMN_PARAMS, traced_peak
from qkdlab import keystream
from qkdlab.keystream import (
    GAMMA_DEFAULT,
    NU_DEFAULT,
    RATE_RHO_DEFAULT,
    KeyLedgerUnderflow,
    LedgerBroken,
    MockKeySource,
    RetryLimitExceeded,
    PlanningError,
    StreamParams,
    plan,
    schedule,
    simulate_stream,
    total_eps,
)

SMALL = StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000)


def round_eps(p: StreamParams, i: int, ell_prev: float, n_i: float, ell_i: float) -> float:
    """Per-round epsilon bound, clamped into [0, 1]: the scalar oracle of the schedule's columns.

    The unclamped value is ``exp(-gamma (rate_rho n_i - ell_i - ell)) +
    exp(-nu ell_prev + ln n_i)``, each exponent capped at 700 so that
    ``math.exp`` cannot overflow; blow-ups are handled by the clamp.
    """
    if i < 1:
        raise ValueError("rounds are numbered from 1")
    t1 = math.exp(min(-p.gamma * (p.rate_rho * n_i - ell_i - p.ell), 700.0))
    t2 = math.exp(min(-p.nu * ell_prev + math.log(n_i), 700.0))
    return min(1.0, t1 + t2)


def schedule_csv(records) -> str:
    """RFC 4180 CSV export of a schedule (with a running epsilon sum), as ``csv.writer`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["i", "n_i", "ell_i", "eps_i", "cumulative_eps"])
    cumulative = 0.0
    for r in records:
        cumulative += r.eps_i
        writer.writerow([r.i, r.n_i, r.ell_i, repr(r.eps_i), repr(cumulative)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# parameters and per-round bounds


def test_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        StreamParams(gamma=0.0)
    with pytest.raises(ValueError, match="n0"):
        StreamParams(n0=0)
    with pytest.raises(ValueError, match="ell0"):
        StreamParams(ell0=-3)
    with pytest.raises(ValueError, match="eps0"):
        StreamParams(eps0=1.5)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("gamma", math.inf, "gamma"),
        ("rate_rho", math.nan, "rate_rho"),
        ("nu", -math.inf, "nu"),
        ("c", math.inf, "c must"),
        ("n0", 2**53 + 1, "n0"),
        ("ell0", 10**30, "ell0"),
    ],
)
def test_params_reject_nonfinite_and_unrepresentable(field, value, match):
    with pytest.raises(ValueError, match=match):
        StreamParams(**{field: value})


def test_params_json_form():
    data = SMALL.to_json_dict()
    assert data == {"type": "stream_params", **vars(SMALL)}


def test_size_formulas_integer_and_real():
    p = StreamParams(n0=100, c=2.5, ell=16, ell0=40)
    assert p.signal_count(3) == 100 + math.ceil(7.5)
    assert p.signal_count(3, real_valued=True) == 107.5
    assert p.stored_len(0) == 40
    # ell_i = ell + ceil(c rho i / 2)
    assert p.stored_len(7) == 16 + math.ceil(2.5 * RATE_RHO_DEFAULT * 7 / 2)
    assert p.stored_len(7, real_valued=True) == 16 + 2.5 * RATE_RHO_DEFAULT * 7 / 2


def test_round_eps_matches_direct_formula():
    p = StreamParams(n0=50_000, c=50_000.0, ell=128, ell0=9_000)
    n1 = p.signal_count(1)
    l1 = p.stored_len(1)
    direct = math.exp(-p.gamma * (p.rate_rho * n1 - l1 - p.ell)) + math.exp(
        -p.nu * p.ell0 + math.log(n1)
    )
    assert round_eps(p, 1, p.ell0, n1, l1) == pytest.approx(min(1.0, direct), rel=1e-15)
    with pytest.raises(ValueError):
        round_eps(p, 0, p.ell0, n1, l1)


def test_round_eps_clamps_to_one():
    p = StreamParams(n0=10, c=1.0, ell=4, ell0=1)
    records = schedule(p, 3)
    assert all(r.eps_i == 1.0 and r.clamped for r in records)


def test_schedule_first_round_consumes_initial_secret():
    records = schedule(SMALL, 2)
    want = math.exp(-SMALL.nu * SMALL.ell0 + math.log(SMALL.signal_count(1)))
    assert records[0].term_auth == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        schedule(SMALL, 0)


@pytest.mark.parametrize("real_valued", [False, True])
def test_schedule_refuses_sizes_beyond_2_pow_53(real_valued):
    # c * i overflowed to inf inside math.ceil here
    p = StreamParams(n0=60_000, c=1e308, ell=256, ell0=12_000)
    with pytest.raises(ValueError, match="exceed 2\\*\\*53"):
        schedule(p, 3, real_valued=real_valued)
    with pytest.raises(ValueError, match="exceed 2\\*\\*53"):
        schedule(SMALL, 2**53 + 1)


def test_real_valued_terms_are_geometric():
    records = schedule(SMALL, 8, real_valued=True)
    q_signal = math.exp(-SMALL.gamma * SMALL.c * SMALL.rate_rho / 2)
    q_auth = math.exp(-SMALL.nu * SMALL.c * SMALL.rate_rho / 2)
    for prev, cur in zip(records, records[1:]):
        assert cur.term_signal / prev.term_signal == pytest.approx(q_signal, rel=1e-12)
    # auth terms consume the previous round's stored key, so their law
    # starts once round 1 has retired the initial secret; the ratio is
    # arithmetico-geometric and carries n_{i+1}/n_i
    for prev, cur in zip(records[1:], records[2:]):
        want = q_auth * cur.n_i / prev.n_i
        assert cur.term_auth / prev.term_auth == pytest.approx(want, rel=1e-12)


def _reference_rounds(p, rounds, real_valued=False):
    """Rows ``(i, n_i, ell_i, eps_i, term_signal, term_auth, clamped)``, one math call per term and ``eps_i`` by :func:`round_eps`."""
    rows = []
    for i in range(1, rounds + 1):
        n_i = p.signal_count(i, real_valued)
        ell_i = p.stored_len(i, real_valued)
        ell_prev = p.stored_len(i - 1, real_valued)
        t_signal = math.exp(min(-p.gamma * (p.rate_rho * n_i - ell_i - p.ell), 700.0))
        t_auth = math.exp(min(-p.nu * ell_prev + math.log(n_i), 700.0))
        eps = round_eps(p, i, ell_prev, n_i, ell_i)
        rows.append((i, n_i, ell_i, eps, t_signal, t_auth, t_signal + t_auth > 1.0))
    return rows


def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _bits(rows):
    # repr tells every float bit pattern apart (but NaN, which never occurs)
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def _assert_blocks_are_the_reference(p, cols, want):
    """Each block's live columns are ``want``'s rows bit for bit, and ``want`` is 0.0 on every later round of the block.

    The blocks must cover rounds 1..len(want) in order, and ``cols.live`` must
    count the rounds up to ``want``'s last nonzero epsilon.
    """
    lo = 1
    for block in cols.blocks:
        assert block.lo == lo < block.hi <= lo + keystream._BATCH
        live = lo + len(block.eps)  # the first round after the live ones
        columns = (block.n, block.ell[1:], block.eps, block.term_signal, block.term_auth, block.clamped)
        assert live <= block.hi and {len(column) for column in columns} == {live - lo}
        assert block.ell.tolist()[0] == (p.ell0 if lo == 1 else want[lo - 2][2])
        assert _bits(zip(range(lo, live), *(column.tolist() for column in columns))) == _bits(want[lo - 1:live - 1])
        assert all(eps == t_signal == t_auth == 0.0 and not clamped
                   for _, _, _, eps, t_signal, t_auth, clamped in want[live - 1:block.hi - 1])
        assert live == lo or want[live - 2][3] != 0.0
        lo = block.hi
    assert lo == len(want) + 1
    assert cols.live == max((i for i, _, _, eps, *_ in want if eps != 0.0), default=0)


@pytest.mark.parametrize("batch", [4096, 64])
@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("p", COLUMN_PARAMS)
def test_columns_equal_a_per_round_math_reference_bit_for_bit(monkeypatch, p, real_valued, batch):
    monkeypatch.setattr(keystream, "_BATCH", batch)  # in 64-round blocks, some schedules drop blocks
    rounds = 1000
    want = _reference_rounds(p, rounds, real_valued)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from the array arithmetic
        cols = keystream._columns(p, rounds, real_valued)
        records = schedule(p, rounds, real_valued)
    _assert_blocks_are_the_reference(p, cols, want)
    fields = ("i", "n_i", "ell_i", "eps_i", "term_signal", "term_auth", "clamped")
    assert _bits([tuple(getattr(r, f) for f in fields) for r in records]) == _bits(want)


def test_columns_cover_clamped_and_capped_rounds():
    [clamped] = keystream._columns(COLUMN_PARAMS[1], 5).blocks
    assert clamped.clamped.tolist()[0] is True and clamped.eps.tolist()[0] == 1.0
    [capped] = keystream._columns(COLUMN_PARAMS[4], 3).blocks
    assert capped.term_signal.tolist()[0] == math.exp(700.0)
    [overflowed] = keystream._columns(COLUMN_PARAMS[5], 3).blocks
    assert overflowed.term_signal.tolist() == [0.0, 0.0, 0.0]


# Exponents on both sides of where math.exp underflows: it is 5e-324 down to
# about -745.1332 and exactly 0.0 below, and is not called below -746.
_EXPONENTS = [
    0.0, -1.0, -700.0, -745.0, -745.13, -745.1332191019411, -745.1332191019412, -745.2,
    -745.9999999999999, -746.0, -746.0000000000001, -1e308, -math.inf, math.nan,
]


def test_masked_exp_is_math_exp_element_by_element():
    x = np.array(_EXPONENTS)
    assert _bits([keystream._exp(x).tolist()]) == _bits([list(map(math.exp, _EXPONENTS))])


def test_masked_log_is_math_log_element_by_element(monkeypatch):
    # each exponent as -nu ell + log n for sizes n from 1 to 2**53, and with log(2**53) taken off
    sizes = [1.0, 2.0, 60_000.0, 2.0**52 + 1.0, 2.0**53]
    pairs = [(t - math.log(m), m) for t in _EXPONENTS for m in sizes]
    pairs += [(t - math.log(2.0**53), m) for t in _EXPONENTS for m in sizes]
    x, n = map(np.array, zip(*pairs))
    logged = []
    original = keystream._math

    def recording(f, values):
        if f is math.log:
            logged.extend(values.tolist())
        return original(f, values)

    monkeypatch.setattr(keystream, "_math", recording)
    got = keystream._exp(keystream._add_log(x.copy(), n))
    want = [math.exp(v + math.log(m)) for v, m in pairs]
    assert _bits([got.tolist()]) == _bits([want])
    # log is skipped exactly where x + log(2**53) stays below -746, and on nothing else
    called = [m for v, m in pairs if not v + math.log(2.0**53) < -746.0]
    assert _bits([logged]) == _bits([called]) and 0 < len(called) < len(pairs)


@pytest.mark.parametrize("real_valued", [False, True])
def test_columns_skip_only_terms_that_are_zero(monkeypatch, real_valued):
    # both exponents fall by about 0.3 a round and pass -746 near rounds 2490 and 2550;
    # round 2546 has the last nonzero term
    rounds = 3000
    calls = []
    original = keystream._math

    def counting(f, x):
        calls.append((f.__name__, len(x)))
        return original(f, x)

    monkeypatch.setattr(keystream, "_math", counting)
    cols = keystream._columns(SMALL, rounds, real_valued)
    _assert_blocks_are_the_reference(SMALL, cols, _reference_rounds(SMALL, rounds, real_valued))
    assert cols.live == 2546
    assert sorted(name for name, _ in calls) == ["exp", "exp", "log"]
    assert sum(count for _, count in calls) < 3 * 2600


def test_columns_traced_peak_when_every_term_is_live():
    # with c = 1 no term underflows in 2*10^5 rounds; the five columns, the float
    # sizes and two exponent columns come to 57-58 bytes a round, and a masked
    # copy of every round in the exp and log steps would add 16 more
    p = StreamParams(n0=60_000, c=1.0, ell0=12_000)
    rounds = 200_000
    cols, peak = traced_peak(lambda: keystream._columns(p, rounds))
    assert cols.live == rounds
    assert peak <= 62 * rounds, f"traced peak {peak / rounds:.1f} bytes a round"


@pytest.mark.parametrize("batch", [4096, 64])
@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("p, rounds", [(SMALL, 100_000), *((p, 1000) for p in COLUMN_PARAMS)])
def test_partial_sum_adds_the_epsilons_left_to_right(monkeypatch, p, rounds, real_valued, batch):
    monkeypatch.setattr(keystream, "_BATCH", batch)  # in 64-round blocks the sum is carried across blocks
    budget = total_eps(p, rounds, real_valued)
    assert repr(budget.partial_sum) == repr(_loop_sum(r.eps_i for r in schedule(p, rounds, real_valued)))


# ---------------------------------------------------------------------------
# series bounds


@pytest.mark.parametrize("real_valued", [False, True])
def test_tail_bound_dominates_actual_continuation(real_valued):
    p = StreamParams(n0=30_000, c=15_000.0, ell=64, ell0=8_000)
    horizon = 12
    budget = total_eps(p, horizon, real_valued=real_valued)
    continuation = sum(
        r.term_signal + r.term_auth
        for r in schedule(p, horizon + 600, real_valued=real_valued)[horizon:]
    )
    assert continuation <= budget.tail_bound * (1 + 1e-12)
    assert budget.partial_sum == pytest.approx(
        sum(r.eps_i for r in schedule(p, horizon, real_valued=real_valued)), rel=1e-12
    )
    assert not budget.divergent


def test_total_eps_is_bitwise_the_per_round_sum_for_every_plan_candidate(monkeypatch):
    scored = []
    original = keystream.total_eps

    def recording(p, horizon=200, real_valued=False):
        budget = original(p, horizon, real_valued)
        scored.append((p, horizon, real_valued, budget))
        return budget

    monkeypatch.setattr(keystream, "total_eps", recording)
    plan(1e-9)
    assert len(scored) == 174
    for p, horizon, real_valued, budget in scored:
        eps = [row[3] for row in _reference_rounds(p, horizon, real_valued)]
        # summed left to right in round order, as the per-record generator did
        want = keystream._budget(p, [np.array(eps)], horizon, real_valued)
        assert repr(budget.partial_sum) == repr(_loop_sum(eps))
        assert repr(budget.to_json_dict()) == repr(want.to_json_dict())


def test_total_eps_shrinks_with_horizon():
    p = StreamParams(n0=30_000, c=15_000.0, ell=64, ell0=8_000)
    totals = [total_eps(p, h).eps_total for h in (5, 20, 80)]
    # pushing the horizon out replaces tail bound by exact terms
    assert totals[0] >= totals[1] >= totals[2]
    with pytest.raises(ValueError):
        total_eps(p, 0)


def test_total_eps_with_vanishing_rate_is_divergent():
    # (1 - q2)^2 underflows to 0 here; the tail bound is then unbounded
    p = StreamParams(nu=1e-300, n0=60_000, c=60_000.0, ell=256, ell0=12_000)
    budget = total_eps(p, 3)
    assert budget.divergent and budget.eps_total == 1.0 and budget.tail_bound == math.inf


def test_total_eps_includes_initial_epsilon():
    p0 = StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000, eps0=0.25)
    base = StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000)
    assert total_eps(p0, 10).eps_total == pytest.approx(
        min(1.0, 0.25 + total_eps(base, 10).eps_total), rel=1e-12
    )


# ---------------------------------------------------------------------------
# planning


def test_plan_meets_target_and_is_monotone():
    loose = plan(1e-6)
    tight = plan(1e-9)
    assert total_eps(loose).eps_total <= 1e-6
    assert total_eps(tight).eps_total <= 1e-9
    assert tight.n0 >= loose.n0
    assert tight.rate_rho == RATE_RHO_DEFAULT
    assert tight.gamma == GAMMA_DEFAULT and tight.nu == NU_DEFAULT


def test_plan_validation_and_failure_carries_best():
    with pytest.raises(ValueError):
        plan(0.0)
    with pytest.raises(ValueError):
        plan(0.5, eps0=0.6)
    with pytest.raises(PlanningError) as info:
        plan(1e-9, max_n0=60_000)
    assert info.value.best_budget is None or info.value.best_budget.eps_total > 1e-9


def _scored_n0s(monkeypatch) -> list[int]:
    scored = []
    original = keystream.total_eps

    def recording(params, *args, **kwargs):
        scored.append(params.n0)
        return original(params, *args, **kwargs)

    monkeypatch.setattr(keystream, "total_eps", recording)
    return scored


def test_plan_returns_the_smallest_n0_within_its_bound(monkeypatch):
    # the sweep doubles n0 from 51201 to 819216; the next doubling would pass the
    # bound, so it probes the bound itself, and bisects down to 1635301, the
    # smallest n0 that meets 0.5
    scored = _scored_n0s(monkeypatch)
    assert plan(0.5, max_n0=1_636_000).n0 == 1_635_301
    assert max(scored) == 1_636_000


def test_plan_never_scores_past_its_bound(monkeypatch):
    # only n0 = 1635301 and above meet 0.5: the sweep used to probe 1638432
    # past a bound of 10^6 and return 1635301 from there
    scored = _scored_n0s(monkeypatch)
    with pytest.raises(PlanningError, match="n0 <= 1000000") as info:
        plan(0.5, max_n0=10**6)
    assert max(scored) == 10**6
    assert info.value.best_params.n0 <= 10**6 and info.value.best_budget.eps_total > 0.5


def test_plan_below_the_smallest_useful_n0_carries_no_best(monkeypatch):
    # the key rate needs n0 >= 51201 at the default ell and rate: nothing is scored
    scored = _scored_n0s(monkeypatch)
    with pytest.raises(PlanningError, match="needs n0 >= 51201") as info:
        plan(1.0, max_n0=1000)
    assert scored == [] and info.value.best_params is None and info.value.best_budget is None


@pytest.mark.parametrize("max_n0", [0, -3])
def test_plan_refuses_a_nonpositive_bound(max_n0):
    with pytest.raises(ValueError, match="max_n0 must be positive"):
        plan(1.0, max_n0=max_n0)


def test_plan_scores_each_candidate_once(monkeypatch):
    scored = []
    original = keystream.total_eps

    def counting(params, *args, **kwargs):
        scored.append(params)
        return original(params, *args, **kwargs)

    monkeypatch.setattr(keystream, "total_eps", counting)
    found = plan(1e-9)
    assert len(scored) == len(set(scored))
    assert (found.n0, found.c, found.ell0) == (3_720_601, 7_441_202.0, 66_153)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"gamma": math.inf}, "gamma"),
        ({"rate_rho": math.inf}, "rate_rho"),
        ({"rate_rho": 0.0}, "rate_rho"),
        ({"nu": math.nan}, "nu"),
        ({"nu": 1e-300}, "initial secret"),
        ({"gamma": 1e308}, "initial secret"),
        ({"rate_rho": 5e-324}, "signal count"),
        ({"ell": 10**400}, "ell"),
    ],
)
def test_plan_rejects_nonfinite_and_unrepresentable(kwargs, match):
    with pytest.raises(ValueError, match=match):
        plan(1e-9, **kwargs)


# ---------------------------------------------------------------------------
# the bit ledger


def _replay_ledger(params: StreamParams, log) -> None:
    # recompute the conservation identity from scratch per round
    produced = 0
    for row in log.rounds:
        produced += int(row.ell_i) + params.ell
        lhs = row.emitted_after + row.stored_after + row.consumed_after
        assert lhs == produced + params.ell0


def test_simulate_stream_exact_ledger_and_carryover():
    rng = np.random.default_rng(10)
    log = simulate_stream(SMALL, 40, MockKeySource(0.0), rng)
    _replay_ledger(SMALL, log)
    assert log.total_retries == 0
    assert log.bits_emitted == 40 * SMALL.ell
    # with one charge per round the store always holds exactly ell_i
    for row in log.rounds:
        assert row.stored_after == int(row.ell_i)
        assert row.attempts == 1


def test_simulate_stream_reads_the_sizes_only(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the simulator computes no epsilon term")

    monkeypatch.setattr(keystream, "_columns", refused)
    monkeypatch.setattr(keystream, "schedule", refused)
    log = simulate_stream(SMALL, 40, MockKeySource(abort_prob=0.2), np.random.default_rng(4))
    for led in log.rounds:
        assert (led.n_i, led.ell_i) == (SMALL.signal_count(led.i), SMALL.stored_len(led.i))
        assert type(led.n_i) is int and type(led.ell_i) is int


def test_simulate_stream_retries_follow_geometric_law():
    rng = np.random.default_rng(11)
    rounds, p_abort = 3000, 0.2
    log = simulate_stream(SMALL, rounds, MockKeySource(p_abort), rng)
    _replay_ledger(SMALL, log)
    mean = rounds * p_abort / (1 - p_abort)
    sigma = math.sqrt(rounds * p_abort / (1 - p_abort) ** 2)
    assert abs(log.total_retries - mean) <= 3 * sigma


def test_simulate_stream_attempt_guard():
    rng = np.random.default_rng(13)
    with pytest.raises(RetryLimitExceeded, match=r"^round 1: exceeded 25 attempts$"):
        simulate_stream(SMALL, 5, MockKeySource(1.0), rng, max_attempts_per_round=25)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_retry_limit_names_the_first_round_over_it(seed):
    free = simulate_stream(SMALL, 300, MockKeySource(0.5), np.random.default_rng(seed))
    cap = 4
    first = int(np.flatnonzero(free.attempts > cap)[0]) + 1
    with pytest.raises(RetryLimitExceeded, match=rf"^round {first}: exceeded {cap} attempts$"):
        simulate_stream(SMALL, 300, MockKeySource(0.5), np.random.default_rng(seed), max_attempts_per_round=cap)
    capped = simulate_stream(SMALL, 300, MockKeySource(0.5), np.random.default_rng(seed),
                             max_attempts_per_round=int(free.attempts.max()))
    assert np.array_equal(capped.attempts, free.attempts)


@pytest.mark.parametrize("cap, dtype", [(None, np.uint32), (2**33, np.uint64), (200, np.uint8)],
                         ids=["default_cap", "cap_above_2_to_the_32", "cap_below_2_to_the_8"])
def test_attempts_are_kept_in_the_smallest_type_that_holds_the_cap(cap, dtype):
    # the default cap of 100,000 needs 4 bytes a round, not the 8 of the int64 draw
    kwargs = {} if cap is None else {"max_attempts_per_round": cap}
    log = simulate_stream(SMALL, 300, MockKeySource(0.5), np.random.default_rng(4), **kwargs)
    drawn = np.random.default_rng(4).geometric(0.5, 300)  # the run's first draw
    assert log.attempts.dtype == dtype
    assert log.attempts.tolist() == drawn.tolist()
    assert log.total_retries == int(drawn.sum()) - 300
    assert log.rounds == simulate_stream(
        SMALL, 300, MockKeySource(0.5), np.random.default_rng(4), max_attempts_per_round=2**62
    ).rounds


def _recording_generate(monkeypatch) -> list[tuple[int, np.ndarray]]:
    """Record every ``MockKeySource.generate`` call as ``(num_bits, packed result)``."""
    calls = []
    original = MockKeySource.generate

    def generate(self, num_bits, rng):
        packed = original(self, num_bits, rng)
        calls.append((num_bits, packed.copy()))
        return packed

    monkeypatch.setattr(MockKeySource, "generate", generate)
    return calls


def test_simulate_stream_draws_only_the_emitted_bits(monkeypatch):
    calls = _recording_generate(monkeypatch)
    log = simulate_stream(SMALL, 25, MockKeySource(0.3), np.random.default_rng(3))
    assert log.total_retries > 0
    assert [num_bits for num_bits, _ in calls] == [25 * SMALL.ell]


@pytest.mark.parametrize("rounds", [1, 7, 8, 9, 17])
def test_stream_bits_are_the_drawn_bits_across_packs(monkeypatch, rounds):
    # 5-bit rounds, so most rounds end inside a byte
    params = StreamParams(n0=50, c=1.0, ell=5, ell0=16)
    calls = _recording_generate(monkeypatch)
    log = simulate_stream(params, rounds, MockKeySource(0.3), np.random.default_rng(rounds))
    [(num_bits, drawn)] = calls
    assert num_bits == rounds * params.ell
    assert log.packed_bits.size == -(-rounds * params.ell // 8)
    bits = np.unpackbits(log.packed_bits, count=log.bits_emitted)
    assert np.array_equal(bits, np.unpackbits(drawn, count=num_bits))
    # the padding past the last emitted bit is zero, as np.packbits leaves it
    assert np.array_equal(log.packed_bits, np.packbits(bits))
    assert [led.attempts for led in log.rounds] == log.attempts.tolist()
    assert sum(log.attempts.tolist()) == rounds + log.total_retries


def _mutate_consumption(monkeypatch, mutate):
    """Make ``keystream._consumption`` return ``mutate(starts, ends)`` instead.

    Round i's offsets count from where round i-1's stored bits begin, so
    it reads ``[0, ell_{i-1})`` and round i-1's range sits at ``[-ell_{i-2}, 0)``.
    """
    original = keystream._consumption
    monkeypatch.setattr(keystream, "_consumption", lambda ell: mutate(*original(ell)))


def test_simulate_stream_catches_key_reuse(monkeypatch):
    # Authentication that reads the store without removing what it read:
    # each round after the first reads again what the previous round read.
    def reread(starts, ends):
        return np.concatenate(([0], -ends[:-1])), np.concatenate((ends[:1], np.zeros_like(ends[1:])))

    _mutate_consumption(monkeypatch, reread)
    with pytest.raises(LedgerBroken, match="^round 2 reuses key bits"):
        simulate_stream(SMALL, 5, MockKeySource(0.0), np.random.default_rng(4))


@pytest.mark.parametrize("round_no", [2, 3, 40])
def test_a_round_that_reconsumes_one_bit_is_named(monkeypatch, round_no):
    def reuse_one_bit(starts, ends):
        starts[round_no - 1] -= 1  # one bit the previous round already used
        return starts, ends

    _mutate_consumption(monkeypatch, reuse_one_bit)
    with pytest.raises(LedgerBroken, match=rf"^round {round_no} reuses key bits"):
        simulate_stream(SMALL, 40, MockKeySource(0.1), np.random.default_rng(4))


def test_a_round_that_hands_back_used_bits_is_named(monkeypatch):
    # round 3's range runs backwards, which would hand round 2's bits back to the store
    def reverse(starts, ends):
        starts[2], ends[2] = ends[2], starts[2]
        return starts, ends

    _mutate_consumption(monkeypatch, reverse)
    with pytest.raises(LedgerBroken, match="^round 3 reuses key bits"):
        simulate_stream(SMALL, 10, MockKeySource(0.0), np.random.default_rng(0))


def test_a_round_that_skips_stored_bits_breaks_the_ledger(monkeypatch):
    def skip_one_bit(starts, ends):
        starts[4] += 1  # the bit at the old start is neither consumed nor stored
        return starts, ends

    _mutate_consumption(monkeypatch, skip_one_bit)
    with pytest.raises(LedgerBroken, match="^ledger broken at round 5$"):
        simulate_stream(SMALL, 10, MockKeySource(0.0), np.random.default_rng(0))


def test_the_ledger_carries_each_block_into_the_next(monkeypatch):
    # in 3-round blocks the last round of each block leaves its last stored bit unread,
    # so round 4, the first of the second block, starts past a bit no round consumed
    def stop_short(starts, ends):
        ends[-1] -= 1
        return starts, ends

    monkeypatch.setattr(keystream, "_BATCH", 3)
    _mutate_consumption(monkeypatch, stop_short)
    with pytest.raises(LedgerBroken, match="^ledger broken at round 4$"):
        simulate_stream(SMALL, 10, MockKeySource(0.0), np.random.default_rng(0))


def test_an_underflow_in_a_later_block_is_named_before_an_earlier_reuse(monkeypatch):
    # as when every round is checked at once: no round may consume past the stored total,
    # then none may reuse a bit; round 2 rereads one bit and round 7 takes one too many
    def mutate(starts, ends):
        if ends[0] == SMALL.ell0:  # the block of rounds 1..3
            starts[1] -= 1
        elif ends[0] == SMALL.stored_len(6):  # the block of rounds 7..9
            ends[0] += 1
        return starts, ends

    monkeypatch.setattr(keystream, "_BATCH", 3)
    _mutate_consumption(monkeypatch, mutate)
    with pytest.raises(KeyLedgerUnderflow, match="^round 7: need "):
        simulate_stream(SMALL, 10, MockKeySource(0.0), np.random.default_rng(0))
    with pytest.raises(LedgerBroken, match="^round 2 reuses key bits"):
        simulate_stream(SMALL, 6, MockKeySource(0.0), np.random.default_rng(0))


@pytest.mark.parametrize("round_no", [1, 2, 30])
def test_consuming_past_the_stored_total_underflows(monkeypatch, round_no):
    def take_one_more(starts, ends):
        ends[round_no - 1] += 1  # one bit past what is stored
        return starts, ends

    _mutate_consumption(monkeypatch, take_one_more)
    need, have = SMALL.stored_len(round_no - 1) + 1, SMALL.stored_len(round_no - 1)
    with pytest.raises(KeyLedgerUnderflow, match=rf"^round {round_no}: need {need} bits, have {have}$"):
        simulate_stream(SMALL, 30, MockKeySource(0.0), np.random.default_rng(0))


def test_stream_counters_pass_int64_at_the_size_cap():
    # ell_i grows to 2**52 + 8, so the consumed total passes 2**63 within 8192 rounds
    p = StreamParams(rate_rho=2.0, n0=2**20, c=float(2**39), ell=8, ell0=1000)
    rounds = 8192
    log = simulate_stream(p, rounds, MockKeySource(0.0), np.random.default_rng(0))
    consumed = sum(p.stored_len(i) for i in range(rounds))  # round i consumes ell_{i-1}
    assert (log.consumed_final, log.stored_final) == (consumed, p.stored_len(rounds))
    assert consumed > 2**63 and p.signal_count(rounds) <= 2**53
    last = log.rounds[-1]
    assert (last.consumed_after, last.stored_after) == (log.consumed_final, log.stored_final)
    _replay_ledger(p, log)


def test_simulate_stream_traced_peak_is_bounded():
    # a uint8 per emitted bit and a RoundLedger per round came to 11 MB here
    log, peak = traced_peak(lambda: simulate_stream(SMALL, 20_000, MockKeySource(0.0), np.random.default_rng(5)))
    assert log.bits_emitted == 20_000 * SMALL.ell
    assert peak <= 4 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_mock_key_source_validation():
    with pytest.raises(ValueError):
        MockKeySource(abort_prob=1.5)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.integers(1, 30),
    st.floats(0.0, 0.6),
)
@settings(max_examples=30)
def test_ledger_fuzz(seed, n0_scale, rounds, abort):
    params = StreamParams(n0=50 * n0_scale, c=float(n0_scale), ell=8, ell0=16)
    rng = np.random.default_rng(seed)
    log = simulate_stream(params, rounds, MockKeySource(abort), rng)
    _replay_ledger(params, log)
    assert log.bits_emitted == rounds * params.ell
    assert log.packed_bits.dtype == np.uint8 and log.packed_bits.size == -(-log.bits_emitted // 8)


# ---------------------------------------------------------------------------
# CSV export


# the default piece, one row a piece, and a few rows a piece, whose edges fall inside runs
# of rows with equal digit counts, on the edges between them and short of a run's end
_PIECES = [keystream._PIECE_BYTES, 1, 200]
_PIECE_IDS = ["default_piece", "one_row_a_piece", "a_few_rows_a_piece"]


@pytest.mark.parametrize("piece_bytes", _PIECES, ids=_PIECE_IDS)
@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("p, rounds, live", [
    (SMALL, 3000, 2546),  # every round after 2546 comes from the zero template
    (StreamParams(n0=60_000, c=1.0, ell0=12_000), 3000, 3000),  # no term underflows
    (StreamParams(n0=200_000_000, c=200_000_000.0, ell0=1_000_000), 40, 0),  # every term underflows
])
def test_templated_csv_is_schedule_csv_byte_for_byte(monkeypatch, p, rounds, live, real_valued, piece_bytes):
    monkeypatch.setattr(keystream, "_PIECE_BYTES", piece_bytes)
    columns = keystream._columns(p, rounds, real_valued)
    assert columns.live == live
    pieces = [bytes(piece) for piece in keystream._csv(columns)]
    want = schedule_csv(schedule(p, rounds, real_valued)).split("\r\n")
    # compared row by row: a failing assert on the whole text would make pytest diff it with difflib
    assert b"".join(pieces).decode().split("\r\n") == want
    longest = max(map(len, want)) + 2
    assert max(map(len, pieces)) <= piece_bytes + longest


# 0, 2**53, the largest int64 and both sides of every power of ten it holds
_DIGIT_EDGES = sorted({0, 2**53, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0)})


# literal text may be any character a UTF-8 output can carry: lone surrogates (category Cs) cannot be encoded
@given(
    st.lists(st.text(st.characters(exclude_characters="%\n", exclude_categories=("Cs",)), max_size=4), min_size=2, max_size=4),
    st.lists(st.one_of(st.sampled_from(_DIGIT_EDGES), st.integers(0, 2**63 - 1)), min_size=1, max_size=12),
    st.sampled_from([0, 1, 2, 7, keystream._BATCH - 1, keystream._BATCH, keystream._BATCH + 1]),
    st.sampled_from(["sorted", "shuffled", "runs"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([*_PIECES, 64]),
)
def test_int_rows_are_the_template_filled_row_by_row(literals, values, rows, order, seed, piece_bytes):
    template = "%s".join(literals) + "\n"
    rng = np.random.default_rng(seed)
    columns = []
    for _ in literals[1:]:
        column = rng.choice(np.array(values, np.int64), rows)
        if order == "sorted":
            column.sort()
        elif order == "runs":  # a few runs of one width, as in a schedule, in no order
            column = np.repeat(column[:4], -(-rows // 4))[:rows]
        columns.append(column)
    with mock.patch.object(keystream, "_PIECE_BYTES", piece_bytes):
        pieces = [bytes(piece) for piece in keystream._int_rows(template, columns)]
    want = [template % row for row in zip(*(c.tolist() for c in columns))]
    assert b"".join(pieces).decode().split("\n") == "".join(want).split("\n")
    longest = max((len(row.encode()) for row in want), default=0)
    assert max(map(len, pieces), default=0) <= max(piece_bytes, longest)


@pytest.mark.parametrize("piece_bytes", _PIECES, ids=_PIECE_IDS)
def test_int_rows_fills_a_float_column_row_by_row(monkeypatch, piece_bytes):
    monkeypatch.setattr(keystream, "_PIECE_BYTES", piece_bytes)
    columns = [np.array([0.5, 1e300, 3.0, 7.25] * 20), np.arange(80)]  # real-valued sizes print by repr
    template = "%s|%s\r\n"
    want = "".join(map(template.__mod__, zip(*(c.tolist() for c in columns)))).encode()
    assert b"".join(keystream._int_rows(template, columns)) == want


@given(st.lists(st.text("ab", max_size=40), max_size=60), st.sampled_from([1, 7, 50, keystream._PIECE_BYTES]))
def test_fill_joins_a_piece_once_its_rows_reach_the_piece_bytes(fields, piece_bytes):
    rows = [(field,) for field in fields]
    with mock.patch.object(keystream, "_PIECE_BYTES", piece_bytes):
        pieces = list(keystream._fill("<%s>", rows))
    assert b"".join(pieces) == "".join(f"<{field}>" for field in fields).encode()
    longest = max((len(field) + 2 for field in fields), default=0)
    # short rows make no short piece, and long ones no piece longer than the budget and its last row
    assert all(len(piece) >= piece_bytes for piece in pieces[:-1])
    assert all(len(piece) < piece_bytes + longest for piece in pieces)


def test_schedule_csv_layout():
    records = schedule(SMALL, 4)
    text = schedule_csv(records)
    assert text.endswith("\r\n")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["i", "n_i", "ell_i", "eps_i", "cumulative_eps"]
    assert len(rows) == 5
    running = 0.0
    for row, rec in zip(rows[1:], records):
        assert int(row[0]) == rec.i
        assert float(row[3]) == rec.eps_i  # repr round trip is lossless
        running += rec.eps_i
        assert float(row[4]) == running
