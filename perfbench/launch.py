"""Run one ``qkdlab`` command the way the console script does, with timing.

Usage: python3 perfbench/launch.py RECORD TRACE ARGV...

Imports ``qkdlab.cli`` from this checkout's ``src/`` (never an installed
copy), calls ``main(ARGV)`` and exits with its return code, so stdout,
stderr and the exit code are the program's own.  Timestamps (monotonic
clock, comparable with the benchmark process) and the process's peak
RSS go to the JSON file RECORD; with TRACE=1 the spans and counters of
:mod:`spans` go there too.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402  (after the first timestamp on purpose)
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_rss_kb() -> int:
    """This process's own peak RSS (VmHWM).

    Not ``wait4``'s ru_maxrss: the benchmark starts commands with
    ``posix_spawn``, which shares the benchmark's memory until exec, and
    at exec the kernel folds that shared peak into the child's maxrss.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if trace:
        from spans import Tracer
    sys.path[0] = SRC  # replaces this script's directory
    record = {"t_start": T_START}
    try:
        record["t_import0"] = time.monotonic()
        import qkdlab.cli

        record["t_import1"] = time.monotonic()
        if os.path.dirname(os.path.dirname(os.path.abspath(qkdlab.cli.__file__))) != SRC:
            sys.stderr.write(f"perfbench: imported qkdlab from {qkdlab.cli.__file__}, not {SRC}\n")
            return 3
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        record["t_main0"] = time.monotonic()
        try:
            code = qkdlab.cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --version
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        finally:
            record["t_main1"] = time.monotonic()
            record["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            record.update(tracer.record())
        return code
    finally:
        with open(record_path, "w") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
