"""The benchmark's workloads: which ``qkdlab`` commands make up one pass.

A workload is a fixed list of passes and a pass is a fixed list of
commands.  Every per-command ``--seed`` and ``--message`` is derived from
the workload seed and the pass index, so the same seed always gives the
same argv lists; the program under test receives nothing else.

``smoke=True`` builds the same commands at reduced size, so that a whole
pass finishes in a few seconds (used by the benchmark's own tests).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

Argv = list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    # Wall time of one pass at the baseline commit on the reference
    # machine.  It only sizes a run: the number of passes depends on
    # --seconds and this constant, never on a measurement, so both sides
    # of a comparison do the same work.
    nominal_pass_s: float
    build: Callable[[random.Random, bool], list[Argv]]

    def passes(self, seconds: float) -> int:
        return max(2, math.ceil(seconds / self.nominal_pass_s))

    def pass_commands(self, seed: int, index: int, smoke: bool = False) -> list[Argv]:
        # A str seed is hashed with SHA-512, so this is stable across
        # interpreters and independent of PYTHONHASHSEED.
        return self.build(random.Random(f"{self.name}:{seed}:{index}"), smoke)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _bits(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def _secrecy(rng: random.Random, smoke: bool) -> list[Argv]:
    n = "3" if smoke else "5"
    return [["secrecy", "--n", n, "--seed", _seed(rng)]]


def _montecarlo(rng: random.Random, smoke: bool) -> list[Argv]:
    attack_trials = "200" if smoke else "10000"
    trials = "2000" if smoke else "20000"
    auctions = "20" if smoke else "1000"
    return [
        ["attack-demo", "--n", "4", "--trials", attack_trials,
         "--message", _bits(rng, 5), "--seed", _seed(rng)],
        ["verify-composition", "--example", "biased-otp", "--mode", "sample",
         "--trials", trials, "--message", _bits(rng, 1), "--seed", _seed(rng)],
        ["verify-composition", "--example", "attack-otp", "--n", "6", "--mode", "sample",
         "--trials", trials, "--message", _bits(rng, 7), "--seed", _seed(rng)],
        ["rsa-demo", "--auctions", auctions, "--seed", _seed(rng)],
    ]


def _keystream(rng: random.Random, smoke: bool) -> list[Argv]:
    # 3000 rounds is the size of the repository's geometric-retry test;
    # one command then draws ~1.35e9 random bits and peaks near 1.4 GB.
    sim_rounds = "300" if smoke else "3000"
    schedule_rounds = "1000" if smoke else "100000"
    return [
        ["keystream-simulate", "--n0", "60000", "--ell0", "12000", "--rounds", sim_rounds,
         "--abort-prob", "0.1", "--seed", _seed(rng)],
        ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", schedule_rounds],
        ["keystream-plan", "--target-eps", "1e-9"],
    ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("secrecy", 8.0, _secrecy),
        Workload("montecarlo", 7.5, _montecarlo),
        Workload("keystream", 13.0, _keystream),
    )
}
