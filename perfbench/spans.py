"""Tracing for the benchmark's traced run, and the per-layer metrics.

:class:`Tracer` runs inside a command process.  It wraps the listed
public functions of each ``qkdlab`` module, in every module namespace
that binds them, so calls between modules are seen too.  Each call
records a span ``(name, start, end, parent)``; spans stay in memory and
the launcher writes them out when the command exits.  Counters are
taken at the same boundaries from arguments and return values.

:func:`self_times` and :func:`layer_metrics` run in the benchmark
process and turn the spans of many commands into per-layer numbers.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

Hook = Callable[[Counter, tuple, dict, object], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _born_cq(c: Counter, args: tuple, kwargs: dict, result) -> None:
    # one Born-rule evaluation per (branch, outcome)
    cq, povm = _arg(args, kwargs, 0, "cq"), _arg(args, kwargs, 1, "povm")
    c["quantum_core.born_evals"] += len(cq.branches) * len(povm.labels)


def _born_single(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["quantum_core.born_evals"] += len(_arg(args, kwargs, 1, "povm").labels)


def _iacc(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["security_metrics.iacc_evaluations"] += result.evaluations


def _generate(c: Counter, args: tuple, kwargs: dict, result) -> None:
    if result is not None:  # None is an aborted attempt: no key bits drawn
        c["keystream.bits_drawn"] += int(_arg(args, kwargs, 1, "num_bits"))


def _stream(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["keystream.bits_emitted"] += result.bits_emitted
    c["keystream.retries"] += result.total_retries


def _attack(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["attack_lab.attack_successes"] += bool(result.success)


def _advantage(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["composition_harness.samples_drawn"] += 2 * result.trials  # real and ideal world


def _composition(c: Counter, args: tuple, kwargs: dict, result) -> None:
    # three worlds (real, hybrid, ideal) per distinguisher
    c["composition_harness.samples_drawn"] += 3 * result.trials * len(result.rows)


def _prime(c: Counter, args: tuple, kwargs: dict, result) -> None:
    c["composition_harness.primes_accepted"] += bool(result)


# "<module>.<function>" or "<module>.<Class>.<method>" -> counter hook
TARGETS: dict[str, Hook | None] = {
    "cli.main": None,
    "quantum_core.cq_measure": _born_cq,
    "quantum_core.measure": _born_single,
    "quantum_core.mutual_information": None,
    "quantum_core.product_qubit_povm": None,
    "quantum_core.cq_trace_distance": None,
    "security_metrics.evaluate_cq_security": None,
    "security_metrics.accessible_info_lower": _iacc,
    "security_metrics.default_strategies": None,
    "security_metrics.secrecy_eps_lower": None,
    "security_metrics.secrecy_eps_upper": None,
    "attack_lab.build_attack_state": None,
    "attack_lab.secrecy_gap_report": None,
    "attack_lab.run_otp_attack": _attack,
    "attack_lab.single_qubit_guess_oracle": None,
    "attack_lab.fully_mixed_marginal_check": None,
    "keystream.simulate_stream": _stream,
    "keystream.MockKeySource.generate": _generate,
    "keystream.schedule": None,
    "keystream.total_eps": None,
    "keystream.plan": None,
    "composition_harness.estimate_advantage": _advantage,
    "composition_harness.verify_composition_bound": _composition,
    "composition_harness.rsa_auction_sweep": None,
    "composition_harness.is_probable_prime": _prime,
}


class Tracer:
    """Span and counter recorder for one command process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def install(self, package: str = "qkdlab") -> None:
        """Wrap every target, in every module of ``package`` that binds it."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for qualname, hook in TARGETS.items():
            module_name, *outer, attr = qualname.split(".")
            owner = sys.modules[f"{package}.{module_name}"]
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(qualname, original, hook)
            if outer:  # a method: the class attribute serves every caller
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, qualname: str, fn: Callable, hook: Hook | None) -> Callable:
        index = len(self.names)
        self.names.append(qualname)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def record(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# analysis, in the benchmark process


def self_times(spans: Iterable[tuple[str, float, float, int]]) -> dict[str, float]:
    """Per name, the summed span durations minus the time child spans cover.

    ``spans`` are ``(name, start, end, parent)`` with ``parent`` the index
    of the parent span or -1.  Overlapping children are counted once and
    clipped to their parent's interval.
    """
    spans = list(spans)
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[k]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    records: list[dict], passes: int, cmd_untraced: list[float], cmd_traced: list[float], names: Iterable[str]
) -> dict[str, float]:
    """The per-layer metrics ``names`` from the launcher records of the traced commands.

    ``passes`` is the number of traced passes the records come from;
    ``cmd_untraced``/``cmd_traced`` hold each pass's summed ``main`` time
    with tracing off and on, whose medians give the tracing overhead.
    Times, calls and counts are per traced pass unless the name says per
    request (one request = one command); ratios have unit 1.  A layer the
    workload never calls reports 0.
    """
    names = list(names)
    selfs, totals, calls, counts, main_by_kind = Counter(), Counter(), Counter(), Counter(), Counter()
    for rec in records:
        spans = [(rec["names"][i], s, e, p) for i, s, e, p in rec["spans"]]
        selfs.update(self_times(spans))
        for name, start, end, _ in spans:
            calls[name] += 1
            totals[name] += end - start
        counts.update(rec["counters"])
        main_by_kind[rec["argv"][0]] += rec["main_s"]
    requests = len(records)

    m: dict[str, float] = {
        "cli.interpreter_s": statistics.median(r["interpreter_s"] for r in records),
        "cli.import_s": statistics.median(r["import_s"] for r in records),
    }
    for name in names:
        if name.endswith(".self_s"):
            m[name] = selfs[name[: -len(".self_s")]] / passes
        elif name.endswith(".calls"):
            m[name] = calls[name[: -len(".calls")]] / passes
        elif name.endswith(".calls_per_req"):
            m[name] = calls[name[: -len(".calls_per_req")]] / requests
        elif name.startswith("cli.main_s."):
            m[name] = main_by_kind[name[len("cli.main_s."):]] / passes
    for name in ("quantum_core.born_evals", "keystream.bits_drawn", "keystream.bits_emitted",
                 "keystream.retries", "composition_harness.samples_drawn"):
        m[name] = counts[name] / passes
    m["security_metrics.iacc_evaluations"] = counts["security_metrics.iacc_evaluations"] / requests
    m["quantum_core.born_evals_per_s"] = _ratio(
        counts["quantum_core.born_evals"], totals["quantum_core.cq_measure"] + totals["quantum_core.measure"]
    )
    m["attack_lab.attack_success_ratio"] = _ratio(
        counts["attack_lab.attack_successes"], calls["attack_lab.run_otp_attack"]
    )
    m["keystream.useful_bit_ratio"] = _ratio(counts["keystream.bits_emitted"], counts["keystream.bits_drawn"])
    m["composition_harness.samples_per_s"] = _ratio(
        counts["composition_harness.samples_drawn"],
        totals["composition_harness.estimate_advantage"] + totals["composition_harness.verify_composition_bound"],
    )
    m["composition_harness.prime_yield"] = _ratio(
        counts["composition_harness.primes_accepted"], calls["composition_harness.is_probable_prime"]
    )
    traced, untraced = statistics.median(cmd_traced), statistics.median(cmd_untraced)
    m["trace.overhead_s"] = traced - untraced
    m["trace.overhead_ratio"] = _ratio(traced, untraced)
    return {name: m[name] for name in names}
