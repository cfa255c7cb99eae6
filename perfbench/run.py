"""qkdlab benchmark: run a workload of real ``qkdlab`` commands and report.

    python3 perfbench/run.py --workload secrecy|montecarlo|keystream|all \\
        --seed N --seconds S --trace 0|1 [--out runs.jsonl]

Every request is one ``qkdlab`` command in a fresh interpreter, started
by ``perfbench/launch.py`` from this checkout's ``src/``.  The loop is
closed with one client: at most one command process runs at a time.  A
run is ``ceil(S / nominal pass time)`` passes (at least 2) of the
workload's command list, so the work is fixed by S and the workload, not
by how fast the code is.  Every output is checked by :mod:`validate`.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` every odd pass runs traced and the
object holds the per-layer metrics of :mod:`spans`, the even passes give
the untraced reference for the tracing overhead.  The metric names and
units are those of BENCHMARK.json.  ``--out`` appends the
result, its samples and the machine description to a JSON-lines file
that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import layer_metrics
from validate import problems
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one metric list ("end_to_end" or "per_layer") of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


# A run must end within 180 s: no pass starts after PASS_CUTOFF_S and a
# command still running at KILL_AFTER_S is killed; both count as failures.
PASS_CUTOFF_S = 140.0
KILL_AFTER_S = 170.0


@dataclass
class Command:
    argv: list[str]
    exit_code: int = -1
    spawn: float = 0.0
    exit: float = 0.0
    record: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    traced: bool
    commands: list[Command]

    @property
    def wall_s(self) -> float:
        return self.commands[-1].exit - self.commands[0].spawn

    @property
    def cmd_s(self) -> float:
        return sum(c.record["main_s"] for c in self.commands)


def _spawn(argv: list[str], trace: bool, files: Path, deadline: float) -> tuple[Command, Path, Path]:
    """Run one command to completion; its outputs go to files named ``files.*``."""
    cmd = Command(argv)
    out, err, rec = (files.with_suffix(s) for s in (".stdout", ".stderr", ".record"))
    env = {k: v for k, v in os.environ.items() if k != "QKDLAB_SEED"}
    args = [sys.executable, str(LAUNCHER), str(rec), "1" if trace else "0", *argv]
    with open(out, "wb") as o, open(err, "wb") as e:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, o.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, e.fileno(), 2),
        ]
        cmd.spawn = time.monotonic()
        pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
        killer = threading.Timer(max(0.0, deadline - cmd.spawn), _kill, (pid,))
        killer.start()
        try:
            _, status = os.waitpid(pid, 0)
        finally:
            killer.cancel()
        cmd.exit = time.monotonic()
    cmd.exit_code = os.waitstatus_to_exitcode(status)
    try:
        cmd.record = json.loads(rec.read_text())
    except (OSError, ValueError):
        cmd.record = {}
    rec.unlink(missing_ok=True)
    return cmd, out, err


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _check(cmd: Command, out: Path, err: Path) -> None:
    r = cmd.record
    if not {"t_start", "t_import0", "t_import1", "t_main0", "t_main1", "peak_rss_kb"} <= r.keys():
        cmd.problems.append("launcher wrote no complete record")
        r.update(interpreter_s=0.0, import_s=0.0, setup_s=0.0, main_s=0.0, peak_rss_mb=0.0)
    else:
        r.update(
            interpreter_s=r["t_start"] - cmd.spawn,
            import_s=r["t_import1"] - r["t_import0"],
            setup_s=r["t_main0"] - cmd.spawn,
            main_s=r["t_main1"] - r["t_main0"],
            peak_rss_mb=r["peak_rss_kb"] / 1024.0,
        )
    r["argv"] = cmd.argv
    stdout = out.read_text(errors="replace")
    stderr = err.read_text(errors="replace")
    out.unlink()
    err.unlink()
    cmd.problems.extend(problems(cmd.argv, cmd.exit_code, stdout, stderr))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; return its result object plus samples for --out."""
    workload = WORKLOADS[name]
    total = workload.passes(seconds)
    start = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    passes: list[Pass] = []
    skipped = 0
    try:
        # untimed warm-up: byte-compiles src/ and warms the file cache once
        _spawn(["--version"], False, workdir / "warmup", start + KILL_AFTER_S)
        for index in range(total):
            argvs = workload.pass_commands(seed, index, smoke)
            if time.monotonic() - start > PASS_CUTOFF_S:
                skipped += len(argvs)
                continue
            traced = trace and index % 2 == 1
            spawned = [_spawn(a, traced, workdir / str(k), start + KILL_AFTER_S) for k, a in enumerate(argvs)]
            # checked after the pass, so the pass time holds only the commands
            for cmd, out, err in spawned:
                _check(cmd, out, err)
            passes.append(Pass(traced, [cmd for cmd, _, _ in spawned]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    commands = [c for p in passes for c in p.commands]
    failed = sum(1 for c in commands if c.problems) + skipped
    attempted = len(commands) + skipped
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    samples = {
        "pass_s": [p.wall_s for p in plain],
        "setup_s": [c.record["setup_s"] for p in plain for c in p.commands],
    }
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        metrics = layer_metrics(
            [c.record for p in traced for c in p.commands],
            len(traced),
            [p.cmd_s for p in plain],
            [p.cmd_s for p in traced],
            units,
        )
    else:
        metrics = {
            "wall_s": sum(samples["pass_s"]),
            "pass_p50_s": statistics.median(samples["pass_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "cmd_s": sum(p.cmd_s for p in plain),
            "peak_rss_mb": max(c.record["peak_rss_mb"] for c in commands),
        }
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
        },
        "samples": samples,
        "failures": [{"argv": c.argv, "problems": c.problems} for c in commands if c.problems],
        "skipped": skipped,
    }


def machine() -> dict:
    def field_of(path: str, key: str) -> str:
        try:
            with open(path) as handle:
                for line in handle:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": field_of("/proc/cpuinfo", "model name"),
        "mem_total": field_of("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _report(name: str, out: dict) -> None:
    result = out["result"]
    print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}, "
          f"fail_ratio {result['failed'] / result['attempted']:.4g}")
    for metric, entry in result["metrics"].items():
        extra = f"  (median of {len(out['samples']['pass_s'])} passes)" if metric == "pass_p50_s" else ""
        print(f"  {metric:<55} {entry['value']:>14.6g} {entry['unit']}{extra}")
    for failure in out["failures"][:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    if out["skipped"]:
        print(f"  {out['skipped']} commands not run: the run reached its time limit")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qkdlab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no qkdlab sources under {ROOT / 'src'}; nothing to measure\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = out["result"]
        _report(name, out)
        if args.out is not None:
            entry = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "machine": machine(), **out}
            with open(args.out, "a") as handle:
                handle.write(json.dumps(entry) + "\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
