"""End-to-end CLI coverage, run in process against qkdlab.cli.main."""

import argparse
import contextlib
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdlab
from conftest import COLUMN_PARAMS, COLUMN_PARAMS_IDS, assert_same_bytes, traced_peak
from qkdlab import attack_lab, cli, composition_harness, keystream, quantum_core, security_metrics
from qkdlab.cli import EXIT_FINDING, EXIT_OK, EXIT_USAGE, main
from qkdlab.keystream import LedgerBroken, StreamParams


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# argument handling


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("qkdlab ")


def test_bad_bitstring_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack-demo", "--message", "01x"])
    assert exc.value.code == EXIT_USAGE


def test_wrong_message_length_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack-demo", "--n", "3", "--message", "01"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["attack-demo", "--n", "2", "--trials", "0"],
        ["attack-demo", "--n", "2", "--trials", "-4"],
        ["rsa-demo", "--auctions", "0"],
        ["rsa-demo", "--auctions", "-2"],
        ["verify-composition", "--trials", "0"],
        ["verify-composition", "--trials", "-4"],
    ],
)
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "positive integer" in capsys.readouterr().err


CAPPED = [
    (["keystream-schedule", "--n0", "60000", "--ell0", "12000"], "--rounds", cli.MAX_ROUNDS),
    (["keystream-simulate", "--n0", "60000", "--ell0", "12000"], "--rounds", cli.MAX_ROUNDS),
    (["keystream-plan", "--target-eps", "1e-9"], "--horizon", cli.MAX_HORIZON),
    (["rsa-demo"], "--auctions", cli.MAX_AUCTIONS),
    (["attack-demo", "--n", "2"], "--trials", cli.MAX_TRIALS),
    (["verify-composition", "--example", "biased-otp", "--mode", "sample"], "--trials", cli.MAX_TRIALS),
]


def test_documented_caps():
    assert (cli.MAX_ROUNDS, cli.MAX_HORIZON, cli.MAX_AUCTIONS) == (10**6, 10**4, 10**5)
    assert cli.MAX_TRIALS == 10**7
    # a wrong-basis attack round draws 3n bits, and one draw holds 2^15
    assert cli.MAX_PAD_QUBITS == 10922 and 3 * cli.MAX_PAD_QUBITS <= attack_lab._CHUNK_BITS


@pytest.mark.parametrize("n", [4, 6, 9, cli.MAX_PAD_QUBITS])
def test_pad_lengths_up_to_the_cap_run(capsys, n):
    code, payload, _ = run_json(capsys, ["attack-demo", "--n", str(n), "--trials", "3", "--wrong-basis", "--seed", "1"])
    assert code == EXIT_OK and payload["result"]["n"] == n
    argv = ["verify-composition", "--example", "attack-otp", "--n", str(n), "--mode", "sample", "--trials", "100"]
    code, payload, _ = run_json(capsys, argv)
    assert code == EXIT_OK and payload["result"]["estimate"]["accept_real"] == 1.0  # every parity check passes


def test_build_parser_asks_the_terminal_size_once(monkeypatch):
    # argparse asks once per argument added unless its formatter is given a width;
    # every parser gets the width a default formatter would ask for, so --help is unchanged
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *args: calls.append(args) or size(*args))
    parser = cli.build_parser()
    parser.parse_args(["secrecy", "--n", "5"])
    parser.format_help()
    assert len(calls) == 1
    width = argparse.HelpFormatter("qkdlab")._width
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert len(subparsers) == 7
    assert {p._get_formatter()._width for p in (parser, *subparsers.values())} == {width}


def _parse_output(capsys, parse, argv) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


_SEEDED = {"attack-demo": [], "secrecy": [], "keystream-simulate": ["--n0", "1", "--ell0", "1"],
           "verify-composition": [], "rsa-demo": []}
FULL_PARSER_CASES = [
    *((argv, None) for argv in (["--help"], ["bogus"], [])),
    *(([name, *tail], None) for name in cli._COMMANDS for tail in (["--help"], ["--bogus"], ["stray"], ["--version"])),
    *(([*head, name], None) for name in cli._COMMANDS for head in (["-h"], ["--version"])),
    (["secrecy", "--families", "psychic"], None),  # refused by the option's type
    # errors a command raises through parser.error, after parsing
    (["attack-demo", "--n", "3", "--message", "01"], None),
    *(([name, *rest], "-4") for name, rest in _SEEDED.items()),
]


@pytest.mark.parametrize("argv, seed_env", FULL_PARSER_CASES,
                         ids=[" ".join(argv) + (f" QKDLAB_SEED={env}" if env else "") or "no-arguments"
                              for argv, env in FULL_PARSER_CASES])
def test_help_and_usage_errors_are_the_full_parsers(capsys, monkeypatch, argv, seed_env):
    # main builds only the invoked subcommand's parser; what it prints is unchanged
    if seed_env is not None:
        monkeypatch.setenv("QKDLAB_SEED", seed_env)
    ours = _parse_output(capsys, main, argv)
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    full = _parse_output(capsys, main, argv)
    assert full[0] in (0, EXIT_USAGE) and full[1] + full[2]
    assert ours == full


def test_a_missing_or_unknown_subcommand_is_named_command(capsys):
    # the full parser keeps argparse's default metavar, so these errors name the dest
    assert _parse_output(capsys, main, [])[2].endswith("error: the following arguments are required: command\n")
    assert "qkdlab: error: argument command: invalid choice: 'bogus'" in _parse_output(capsys, main, ["bogus"])[2]


def test_main_adds_only_the_invoked_subcommands_arguments(capsys, monkeypatch):
    added = {}
    add_argument = argparse.ArgumentParser.add_argument
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting(parser, *args, **kwargs):
        added.setdefault(parser.prog, []).append(args[0])
        return add_argument(parser, *args, **kwargs)

    def constructing(parser, *args, **kwargs):
        constructed.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", constructing)
    cli.build_parser()
    every = dict(added)
    assert len(constructed) == 8
    added.clear()
    constructed.clear()
    code, _, _ = run_json(capsys, ["secrecy", "--n", "2", "--families", "declared", "--seed", "1"])
    assert code == EXIT_OK
    assert len(every) == 8 and sum(map(len, every.values())) == 78
    assert added["qkdlab secrecy"] == every["qkdlab secrecy"] != ["-h"]
    assert added["qkdlab"] == every["qkdlab"] == ["-h", "--version"]
    assert len(constructed) == 2


def _fresh(*args, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports qkdlab from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qkdlab.__file__)))
    env = {key: value for key, value in os.environ.items() if key != "QKDLAB_SEED"}
    return subprocess.run([sys.executable, *args], env={**env, "PYTHONPATH": src}, **kwargs)


def test_the_module_runs_as_main_prints_what_main_prints(capsysbinary):
    # README documents python -m qkdlab.cli; the installed qkdlab script calls the same main.
    # The 19 MB schedule is all written before the process exits, its heap frozen
    schedule = ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "100000"]
    for argv in (["--version"], ["secrecy", "--n", "2", "--seed", "1"], schedule):
        run = _fresh("-m", "qkdlab.cli", *argv, capture_output=True, check=False)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsysbinary.readouterr()
        assert (run.returncode, run.stderr) == (code, captured.err)
        assert_same_bytes(run.stdout, captured.out)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_the_cli_pins_openblas_to_one_thread_unless_told_otherwise(preset, expected):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qkdlab.__file__)))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = "import os, qkdlab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**env, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    ).stdout
    assert out == f"{expected}\n"


@pytest.mark.parametrize("modules, frozen", [
    (["qkdlab.cli"], True),
    (["qkdlab.attack_lab", "qkdlab.keystream", "qkdlab.composition_harness"], False),
])
def test_only_the_cli_import_freezes_the_heap(modules, frozen):
    # the command line's start-up heap lives until exit, so no collection walks it, the
    # one at exit included; a library import leaves its caller's collections alone
    probe = "import gc, importlib, sys\nfor m in sys.argv[1:]: importlib.import_module(m)\nprint(gc.get_freeze_count())"
    out = _fresh("-c", probe, *modules, capture_output=True, text=True, check=True).stdout
    assert (int(out) > 0) == frozen


def test_main_freezes_nothing():
    # tests and library callers call main in process: it must not freeze their garbage.
    # Frozen objects can still be freed (six are, on a first secrecy run), so the count may fall
    probe = """
import contextlib, gc, io, sys
from qkdlab.cli import main
before = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, before, gc.get_freeze_count())
"""
    out = _fresh("-c", probe, "secrecy", "--n", "2", "--seed", "1", capture_output=True, text=True, check=True).stdout
    code, before, after = map(int, out.split())
    assert code == EXIT_OK and 0 < after <= before


def test_a_stdout_pipe_closed_early_is_an_error_line_not_a_traceback():
    # the reader takes 10 bytes of the 19 MB schedule and closes the pipe: the next write
    # fails with EPIPE, reported like any other OSError, and nothing is left to flush at exit
    src = os.path.dirname(os.path.dirname(os.path.abspath(qkdlab.__file__)))
    argv = ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "100000"]
    with subprocess.Popen([sys.executable, "-m", "qkdlab.cli", *argv], env={**os.environ, "PYTHONPATH": src},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
        assert len(run.stdout.read(10)) == 10
        run.stdout.close()
        err = run.stderr.read()
    assert (run.returncode, err) == (EXIT_USAGE, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_device_is_an_error_line_not_a_traceback():
    with open("/dev/full", "wb") as full:
        run = _fresh("-m", "qkdlab.cli", "keystream-plan", "--target-eps", "1e-9",
                     stdout=full, stderr=subprocess.PIPE, check=False)
    assert (run.returncode, run.stderr) == (EXIT_USAGE, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv, flag, cap", CAPPED)
def test_counts_above_their_cap_are_usage_errors(capsys, argv, flag, cap):
    # the parser refuses the value, so no loop runs
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(cap + 1)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: '{cap + 1}' exceeds the cap of {cap}" in captured.err
    args = cli.build_parser().parse_args([*argv, flag, str(cap)])
    assert getattr(args, flag[2:]) == cap
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"(at most {cap})" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv, flag, cap", CAPPED)
def test_counts_below_one_are_usage_errors(capsys, argv, flag, cap):
    # every capped count is a positive integer, refused by the parser before any work
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "0"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: '0' is not a positive integer" in captured.err


def test_every_iacc_family_default_is_the_one_list():
    families = security_metrics.IACC_FAMILIES
    assert families == ("per_qubit", "declared")
    defaults = [
        (security_metrics.accessible_info_lower, "families"),
        (security_metrics.evaluate_cq_security, "iacc_families"),
        (attack_lab.secrecy_reports, "families"),
        (attack_lab.secrecy_gap_report, "families"),
    ]
    for function, name in defaults:
        assert inspect.signature(function).parameters[name].default is families
    assert cli.build_parser().parse_args(["secrecy"]).families == families


def test_stream_rate_options_are_the_same_on_every_keystream_command():
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    commands = ("keystream-plan", "keystream-schedule", "keystream-simulate")
    for flag in ("--gamma", "--rho", "--nu", "--ell", "--eps0"):
        actions = [
            next(a for a in subparsers[name]._actions if flag in a.option_strings) for name in commands
        ]
        assert len({(a.type, a.default, a.help, a.required) for a in actions}) == 1, flag


def test_every_name_in_all_resolves():
    # a name deleted from a module but left in __all__ would break import *
    names = [qkdlab.__name__] + [f"qkdlab.{m.name}" for m in pkgutil.iter_modules(qkdlab.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert missing == [], name


_STARTUP_PROBE = """
import contextlib, io, json, sys
bare = set(json.loads(sys.argv[1]))
from qkdlab.cli import main
# Cython's shared-type module (_cython_<version>) has no spec: it is no package
added = {m.split(".")[0] for m in sys.modules} - bare - set(sys.stdlib_module_names)
report = {
    "added": sorted(m for m in added if sys.modules[m].__spec__ is not None),
    "numpy.random": "numpy.random" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "runs": [],
}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    report["runs"].append([argv[0], code, scipy, out.getvalue()])
print(json.dumps(report))
"""


def test_default_commands_start_and_run_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qkdlab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = lambda *args: subprocess.run(
        [sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True
    ).stdout
    # site may preload packages, so compare with a bare interpreter
    bare = run("import json, sys; print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    samples = tmp_path / "corr.json"
    samples.write_text(json.dumps({"samples": [["000", "000"], ["001", "001"], ["010", "011"], ["111", "111"]]}))
    commands = [  # the benchmark's commands, at smoke size
        ["secrecy", "--n", "3", "--seed", "1"],
        ["attack-demo", "--n", "4", "--trials", "200", "--message", "10110", "--seed", "2"],
        ["verify-composition", "--example", "biased-otp", "--mode", "sample",
         "--trials", "2000", "--message", "1", "--seed", "3"],
        ["verify-composition", "--example", "attack-otp", "--n", "6", "--mode", "sample",
         "--trials", "2000", "--message", "0110100", "--seed", "4"],
        ["rsa-demo", "--auctions", "20", "--seed", "5"],
        ["keystream-simulate", "--n0", "60000", "--ell0", "12000", "--rounds", "300",
         "--abort-prob", "0.1", "--seed", "6"],
        ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "1000"],
        ["keystream-plan", "--target-eps", "1e-9"],
        ["secrecy", "--n", "2", "--correctness-file", str(samples), "--seed", "0"],
    ]
    report = json.loads(run(_STARTUP_PROBE, bare, json.dumps(commands)))
    assert report["added"] == ["numpy", "qkdlab"]
    assert report["numpy.random"]
    assert not report["dataclasses"]  # the records are built by no generated code
    *default_runs, (_, code, loaded, out) = report["runs"]
    for name, exit_code, loaded_before, _ in default_runs:
        assert exit_code in (EXIT_OK, EXIT_FINDING) and loaded_before == [], name
    # the Clopper-Pearson bound of a correctness sample file needs no SciPy either
    assert code == EXIT_OK and loaded == []
    eps_correct = json.loads(out)["result"]["security_report"]["eps_correct"]
    assert eps_correct == security_metrics.clopper_pearson_upper(1, 4)


_PEAK_PROBE = """
import contextlib, glob, io, os, sys
import qkdlab
from qkdlab.cli import main
def vmhwm():
    with open("/proc/self/status") as status:
        return next(line.split()[1] for line in status if line.startswith("VmHWM:"))
# compiling a module raises VmHWM, and the import compiles only what has no cached
# bytecode: compile every module once, so that the start figure is the same either way
for path in glob.glob(os.path.join(os.path.dirname(qkdlab.__file__), "*.py")):
    with open(path, "rb") as source:
        compile(source.read(), path, "exec")
start = vmhwm()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, start, vmhwm())
"""


def _main_peak_kb(argv) -> tuple[int, int, int]:
    """The exit code of ``main(argv)`` in a fresh interpreter, and its VmHWM in kB once
    ``qkdlab.cli`` is imported and every module compiled, and once ``main`` has returned.

    Start-up moves with the length of the source, so a bound on what a command adds is
    read against the first figure, not a fixed start-up.
    """
    out = _fresh("-c", _PEAK_PROBE, *argv, capture_output=True, text=True, check=True).stdout
    code, start_kb, peak_kb = map(int, out.split())
    return code, start_kb, peak_kb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_secrecy_at_n_7_peaks_below_100_mb():
    # about 40 MB, 2.5 MB past start-up: no state is built.  Its 16 MB of factors took
    # 56 MB, one 32 MB float64 stack past the real state at a time 142 MB, 2^8 copies of
    # the ideal's register and two live strategy stacks 179 MB, complex128 331 MB
    code, _, peak_kb = _main_peak_kb(["secrecy", "--n", "7", "--seed", "1"])
    assert code == EXIT_OK
    assert peak_kb <= 100 * 1024, f"VmHWM {peak_kb / 1024:.0f} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_secrecy_at_n_5_adds_at_most_1_05_mb_to_start_up():
    # about 0.8 MB: no BLAS or LAPACK routine runs, as W_0's Gram spectrum is read off its
    # column norms.  Its float matmul and eigvalsh paged in OpenBLAS and LAPACK: 1.25-1.35 MB
    code, start_kb, peak_kb = _main_peak_kb(["secrecy", "--n", "5", "--seed", "1"])
    assert code == EXIT_OK
    assert peak_kb - start_kb <= 1.05 * 1024, f"VmHWM {start_kb / 1024:.2f} -> {peak_kb / 1024:.2f} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_rsa_demo_of_10_to_the_5_auctions_peaks_below_70_mb(tmp_path):
    # about 56 MB: the auctions are columns and their rows are written from a template,
    # 4096 at a time; one frozen outcome object per auction took 82 MB
    argv = ["rsa-demo", "--auctions", str(cli.MAX_AUCTIONS), "--seed", "1", "--out", str(tmp_path / "report.json")]
    code, _, peak_kb = _main_peak_kb(argv)
    assert code == EXIT_OK
    assert peak_kb <= 70 * 1024, f"VmHWM {peak_kb / 1024:.0f} MB"
    assert (tmp_path / "report.json").read_bytes().count(b'"type": "auction_outcome"') == cli.MAX_AUCTIONS


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_exact_attack_otp_at_n_10_peaks_below_50_mb():
    # about 38 MB, start-up included: both worlds' rows are counted a block at a time;
    # all 2^20 real and 2^21 ideal rows at once took 116 MB
    code, _, peak_kb = _main_peak_kb(["verify-composition", "--example", "attack-otp", "--n", "10", "--mode", "exact"])
    assert code == EXIT_FINDING
    assert peak_kb <= 50 * 1024, f"VmHWM {peak_kb / 1024:.0f} MB"


def test_bad_env_seed_rejected(capsys, monkeypatch):
    monkeypatch.setenv("QKDLAB_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        main(["attack-demo", "--n", "2", "--trials", "5"])
    assert exc.value.code == EXIT_USAGE


def test_emit_writes_what_json_dumps_gives(capsys, tmp_path):
    payload = {
        "rows": [{"x": i / 7, "flags": [i, None, True, "\u00e9"]} for i in range(200)],
        "a": {"nested": {"inf": float("inf"), "empty": [], "obj": {}}},
    }
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    cli._emit(payload, None)
    assert_same_bytes(capsys.readouterr().out.encode(), want.encode())
    path = tmp_path / "report.json"
    cli._emit(payload, str(path))
    assert_same_bytes(path.read_bytes(), want.encode())


STREAM = ["--n0", "60000", "--ell0", "12000", "--rounds", "3"]

# one argv per subcommand; the last five draw random numbers from their seed
EVERY_COMMAND = [
    ["keystream-plan", "--target-eps", "1e-9"],
    ["keystream-schedule", *STREAM],
    ["attack-demo", "--n", "2", "--trials", "5"],
    ["secrecy", "--n", "2"],
    ["keystream-simulate", *STREAM],
    ["verify-composition"],
    ["rsa-demo"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error_from_either_source(capsys, monkeypatch, argv):
    # one rule, whether or not the run reaches numpy's default_rng
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == "" and captured.err.count("error:") == 1
    assert "argument --seed: '-1' is not a nonnegative integer" in captured.err
    monkeypatch.setenv("QKDLAB_SEED", "-4")
    if argv[0] in ("keystream-plan", "keystream-schedule"):  # seedless: the variable is not read
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK and json.loads(out)["seed"] is None
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == "" and captured.err.count("error:") == 1
    assert "QKDLAB_SEED='-4' is not a nonnegative integer" in captured.err


def test_keystream_simulate_refuses_more_emitted_bits_than_its_cap(capsys, monkeypatch):
    def generate(self, num_bits, rng):
        raise AssertionError("the bits were drawn")

    monkeypatch.setattr(keystream.MockKeySource, "generate", generate)
    argv = ["keystream-simulate", "--n0", "60000", "--ell0", "12000", "--ell", str(2**32), "--rounds", "2"]
    code, out, err = run_cli(capsys, argv)
    assert cli.MAX_EMITTED_BITS == 2**32
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"cap of {2**32}" in err
    # the cap itself is allowed
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_EMITTED_BITS", 3 * 256)
    assert run_cli(capsys, ["keystream-simulate", *STREAM])[0] == EXIT_OK
    assert run_cli(capsys, ["keystream-simulate", *STREAM[:-1], "4"])[0] == EXIT_USAGE


@pytest.mark.parametrize("argv, flag", [
    (["attack-demo", "--n", "2", "--trials", "5"], "--out"),
    (["attack-demo", "--n", "2", "--trials", "5"], "--curve-csv"),
    (["keystream-schedule", *STREAM], "--out"),
    (["keystream-schedule", *STREAM], "--csv"),
], ids=["attack-demo-out", "attack-demo-curve-csv", "keystream-schedule-out", "keystream-schedule-csv"])
def test_write_errors_name_the_path_given(capsys, tmp_path, argv, flag):
    missing = str(tmp_path / "missing" / "report")
    code, out, err = run_cli(capsys, [*argv, flag, missing])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    # a failed move leaves no temporary file behind
    directory = tmp_path / "directory"
    directory.mkdir()
    code, out, err = run_cli(capsys, [*argv, flag, str(directory)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: [Errno 21] Is a directory: {str(directory)!r}\n"
    assert list(tmp_path.iterdir()) == [directory] and list(directory.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["keystream-schedule", *STREAM, "--c", "inf"],
        ["keystream-schedule", *STREAM, "--rho", "inf"],
        ["keystream-schedule", *STREAM, "--c", "1e308"],
        ["keystream-simulate", *STREAM, "--c", "inf"],
        ["keystream-simulate", *STREAM, "--n0", "1" + "0" * 400],
        ["keystream-simulate", *STREAM, "--ell", str(2**52)],
        ["keystream-plan", "--target-eps", "1e-9", "--gamma", "inf"],
        ["keystream-plan", "--target-eps", "1e-9", "--rho", "inf"],
        ["keystream-plan", "--target-eps", "1e-9", "--nu", "1e-300"],
        ["rsa-demo", "--auctions", "3", "--modulus-bits", str(10**30)],
        ["verify-composition", "--example", "attack-otp", "--n", "-1"],
        ["verify-composition", "--example", "attack-otp", "--n", "0"],
        ["verify-composition", "--example", "attack-otp", "--n", str(10**30)],
        ["attack-demo", "--n", "-3"],
        # pad lengths past the cap, refused before a bit is drawn
        ["attack-demo", "--n", str(cli.MAX_PAD_QUBITS + 1)],
        ["attack-demo", "--n", str(10**8), "--wrong-basis"],
        ["verify-composition", "--example", "attack-otp", "--n", str(cli.MAX_PAD_QUBITS + 1)],
        ["verify-composition", "--example", "attack-otp", "--n", str(10**8), "--mode", "sample"],
        ["verify-composition", "--example", "attack-otp", "--declared-eps", "nan"],
        ["verify-composition", "--example", "attack-otp", "--declared-eps", "1.5"],
        ["verify-composition", "--example", "attack-otp", "--n", "3", "--message", "01"],
    ],
)
def test_unrepresentable_inputs_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n0", ["-5", "0"])
@pytest.mark.parametrize("command", ["keystream-schedule", "keystream-simulate"])
def test_a_bad_n0_is_named_not_the_rate_c_it_defaults(capsys, command, n0):
    # c defaults to n0, so checking rates first named c for a bad n0
    code, out, err = run_cli(capsys, [command, "--n0", n0, "--ell0", "12000"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: n0 must be a positive integer at most 2**53\n"


_NUMBER = st.one_of(
    st.sampled_from(["0", "-1", "inf", "-inf", "nan", "1e308", "1e-300", "5e-324",
                     str(2**53), str(2**53 + 1), str(10**30)]),
    st.integers(-2, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_SIZE = st.one_of(st.integers(1, 300).map(str), _NUMBER)
_RATE = st.one_of(st.sampled_from(["1e-3", "1e-2", "0.5", "1e-9"]), _NUMBER)
# counts that run stay small so that every drawn command finishes quickly;
# a count just above its cap, or far above it, is refused before any loop
_COUNT = st.one_of(st.integers(-2, 50).map(str), st.sampled_from(["inf", "nan", "1.5"]))


def _capped_count(cap: int) -> st.SearchStrategy:
    return st.one_of(_COUNT, st.sampled_from([str(cap + 1), str(10**30)]))


_ABORT = st.sampled_from(["0", "0.2", "0.5", "1", "-0.1", "1.5", "nan", "inf"])
_STREAM = {"--n0": _SIZE, "--ell0": _SIZE}
_SEED = st.integers(-2, 2**70).map(str)
_TRIALS = st.one_of(st.integers(-2, 500).map(str), st.sampled_from([str(cli.MAX_TRIALS + 1), str(10**30)]))
# valid pad lengths stay small: attack-demo builds the n-qubit state for
# its marginal check up to n = 7, and exact attack-otp enumerates
# 2^(2n+1) samples up to n = 10
_PAD_N = st.sampled_from(["-1", "0", "1", "2", "4", "12", "nan", str(2**53), str(10**30)])
_MESSAGE = st.one_of(st.text("01", max_size=6), st.just("0a1"))
_MODE = st.sampled_from(["auto", "exact", "sample"])
_STREAM_OPTIONS = {
    "--gamma": _RATE, "--rho": _RATE, "--nu": _RATE, "--c": _RATE,
    "--ell": _SIZE, "--eps0": _RATE, "--rounds": _capped_count(cli.MAX_ROUNDS),
}


def _argv(command: str, required: dict, optional: dict) -> st.SearchStrategy:
    drawn = st.fixed_dictionaries(required, optional=optional)
    return drawn.map(lambda opts: [command, *(x for pair in opts.items() for x in pair)])


_ARGV = st.one_of(
    _argv("keystream-plan", {"--target-eps": _RATE}, {
        "--gamma": _RATE, "--rho": _RATE, "--nu": _RATE, "--eps0": _RATE,
        "--ell": _SIZE, "--horizon": _capped_count(cli.MAX_HORIZON), "--max-n0": _SIZE,
    }),
    _argv("keystream-schedule", _STREAM, _STREAM_OPTIONS),
    _argv("keystream-simulate", _STREAM, {**_STREAM_OPTIONS, "--abort-prob": _ABORT}),
    _argv("rsa-demo", {}, {
        "--bid": _SIZE, "--auctions": _capped_count(cli.MAX_AUCTIONS), "--max-bid": _SIZE,
        "--modulus-bits": st.one_of(st.integers(10, 70).map(str), _NUMBER),
    }),
    st.tuples(
        _argv("attack-demo", {"--trials": _TRIALS}, {"--n": _PAD_N, "--message": _MESSAGE, "--seed": _SEED}),
        st.booleans(),
    ).map(lambda drawn: drawn[0] + ["--wrong-basis"] * drawn[1]),
    _argv("verify-composition", {"--example": st.just("biased-otp"), "--mode": _MODE, "--trials": _TRIALS}, {
        "--message": _MESSAGE, "--p-zero": _RATE, "--seed": _SEED,
    }),
    _argv("verify-composition", {
        "--example": st.just("attack-otp"), "--n": _PAD_N, "--mode": _MODE, "--trials": _TRIALS,
    }, {"--declared-eps": _RATE, "--seed": _SEED}),
    _argv("secrecy", {
        "--n": st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["8", "nan", str(10**30)])),
    }, {
        "--families": st.sampled_from(["per_qubit", "declared", "per_qubit,declared", "random", "hill_climb", "psychic", ""]),
        "--seed": _SEED,
    }),
)


@given(_ARGV)
@settings(max_examples=300)
def test_any_argv_maps_to_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_FINDING, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert isinstance(json.loads(out.getvalue()), dict)  # exactly one document
    if code == EXIT_USAGE:
        assert out.getvalue() == ""


_OUTPUT = st.text("01", max_size=3)
_PROBABILITY = st.sampled_from([0, 1, 0.25, 0.5, 1.0, -0.5, 1e-13, -1e-13])
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2), _PROBABILITY, _OUTPUT),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.sampled_from(["samples", "distribution", "x"]), children, max_size=3),
    ),
    max_leaves=12,
)
# files near the valid forms, so that some are accepted
_CORRECTNESS = st.one_of(
    _JSON,
    st.fixed_dictionaries({}, optional={
        "samples": st.lists(st.one_of(st.lists(_OUTPUT, min_size=2, max_size=2), _JSON), max_size=4),
        "distribution": st.lists(
            st.one_of(st.tuples(_OUTPUT, _OUTPUT, _PROBABILITY).map(list), _JSON), max_size=4
        ),
        "x": _JSON,
    }),
)


def _accepts_correctness(data) -> bool:
    """The correctness-file rules of the README, checked apart from the CLI."""
    if not isinstance(data, dict) or ("samples" in data) == ("distribution" in data):
        return False
    samples = "samples" in data
    rows = data["samples" if samples else "distribution"]
    if not (isinstance(rows, list) and all(
        isinstance(row, list) and len(row) == (2 if samples else 3) and all(isinstance(x, str) for x in row[:2])
        for row in rows
    )):
        return False
    if samples:
        return len(rows) > 0
    probabilities = [row[2] for row in rows]
    return (
        all(type(p) in (int, float) and p >= -1e-12 for p in probabilities)
        and len({(row[0], row[1]) for row in rows}) == len(rows)
        and abs(math.fsum(probabilities) - 1.0) <= 1e-9
    )


@given(_CORRECTNESS)
@settings(max_examples=50, deadline=None)
def test_any_correctness_file_maps_to_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corr.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["secrecy", "--n", "2", "--correctness-file", path])
            except SystemExit as exc:
                code = exc.code
    assert code in (EXIT_OK, EXIT_FINDING, EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    assert (code == EXIT_OK) == _accepts_correctness(data), (code, err.getvalue())
    if code == EXIT_USAGE:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# attack-demo


ATTACK_ARGS = ["attack-demo", "--n", "2", "--trials", "25", "--seed", "7"]


def test_attack_demo_envelope(capsys):
    code, payload, _ = run_json(capsys, ATTACK_ARGS)
    assert code == EXIT_OK
    assert payload["tool"] == "qkdlab"
    assert payload["command"] == "attack-demo"
    assert payload["seed"] == 7
    assert "generated_at" not in payload  # timestamps are opt-in
    result = payload["result"]
    assert result["success_rate"] == 1.0
    assert result["marginal_check"]["passed"] is True
    assert result["marginal_check"]["max_deviation"] < 1e-9
    assert result["single_basis_guess"]["p_star"] == pytest.approx(0.8535533905, abs=1e-6)
    assert len(result["last_transcript"]["key"]) == 3


def test_attack_demo_prints_the_closed_form_breidbart_point(capsys, monkeypatch, tmp_path):
    def sweep(*args, **kwargs):
        raise AssertionError("attack-demo ran the numeric guess search")

    monkeypatch.setattr(attack_lab, "single_qubit_guess_oracle", sweep)
    code, payload, _ = run_json(capsys, [*ATTACK_ARGS, "--curve-csv", str(tmp_path / "curve.csv")])
    assert code == EXIT_OK
    assert payload["result"]["single_basis_guess"] == {"p_star": 0.8535533905932737, "angle": 0.39269908169872414}


def test_attack_demo_deterministic(capsys):
    _, first, _ = run_cli(capsys, ATTACK_ARGS)
    _, second, _ = run_cli(capsys, ATTACK_ARGS)
    assert first == second


def test_attack_demo_env_seed_matches_flag(capsys, monkeypatch):
    _, explicit, _ = run_cli(capsys, ATTACK_ARGS)
    monkeypatch.setenv("QKDLAB_SEED", "7")
    _, via_env, _ = run_cli(capsys, ["attack-demo", "--n", "2", "--trials", "25"])
    assert via_env == explicit


def test_attack_demo_wrong_basis_control(capsys):
    code, payload, _ = run_json(capsys, ATTACK_ARGS + ["--wrong-basis"])
    assert code == EXIT_OK  # a sub-1.0 rate is expected for the control run
    assert payload["result"]["wrong_basis"] is True
    assert payload["result"]["success_rate"] < 1.0


def test_attack_demo_timestamp_opt_in(capsys):
    _, payload, _ = run_json(capsys, ATTACK_ARGS + ["--timestamp"])
    assert "generated_at" in payload


def test_attack_demo_out_file_and_curve_csv(capsys, tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(
        capsys, ATTACK_ARGS + ["--out", str(out), "--curve-csv", str(csv_path)]
    )
    assert code == EXIT_OK
    assert stdout == ""
    payload = json.loads(out.read_text())
    assert payload["command"] == "attack-demo"
    raw = csv_path.read_bytes()
    assert raw.count(b"\r\n") >= 3
    assert raw.startswith(b"n,parity_guess_probability\r\n")
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".qkdlab-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# secrecy


def test_secrecy_has_no_budget_option(capsys):
    # neither route samples per-qubit bases, so there is no search budget to set
    with pytest.raises(SystemExit) as exc:
        main(["secrecy", "--n", "2", "--budget", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --budget 2" in capsys.readouterr().err


def test_secrecy_report(capsys):
    code, payload, _ = run_json(capsys, ["secrecy", "--n", "2", "--families", "per_qubit", "--seed", "0"])
    assert code == EXIT_OK
    report = payload["result"]["security_report"]
    assert report["eps_secret_lower"] == pytest.approx(0.5, abs=1e-9)
    assert report["eps_secret_upper"] == pytest.approx(0.5, abs=1e-9)
    assert report["iacc_lower_bits"] == pytest.approx(0.25, abs=1e-9)
    assert report["provenance"]["correctness_source"] == "assumed_zero"
    gap = payload["result"]["gap_report"]
    assert gap["ben_or_required_iacc"] == pytest.approx(2**-5, abs=1e-12)


def _count_secrecy_calls(capsys, monkeypatch, argv):
    # born_table here counts the strategy measurements only: the I_acc
    # search measures through quantum_core.cq_measure
    calls = {"build_attack_state": 0, "accessible_info_lower": 0, "born_table": 0, "cq_measure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = (attack_lab, security_metrics)
    wrappers = {
        name: counted(name, getattr(next(m for m in modules if hasattr(m, name)), name))
        for name in calls
    }
    for module in modules:
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    code, payload, _ = run_json(capsys, argv)
    assert code == EXIT_OK
    return calls, payload


def test_secrecy_computes_shared_results_once(capsys, monkeypatch):
    argv = ["secrecy", "--n", "3", "--seed", "5"]
    calls, payload = _count_secrecy_calls(capsys, monkeypatch, argv)
    # no state is built: every figure is scored from one branch per orbit in closed form,
    # the default strategies up to the label-basis one, whose advantage meets the trace
    # distance, so the 8 Haar ones are never drawn, and the declared basis from its sign
    # table, which meets the 1/2 bit upper end, so the per-qubit family is not searched and
    # nothing is measured (34 born tables when each state and POVM group was measured)
    assert calls == {
        "build_attack_state": 0, "accessible_info_lower": 0, "born_table": 0, "cq_measure": 0
    }
    report, gap = payload["result"]["security_report"], payload["result"]["gap_report"]
    assert gap["iacc_lower_bits"] == report["iacc_lower_bits"]
    assert gap["eps_secret_upper"] == report["eps_secret_upper"]


@pytest.mark.parametrize("n", range(2, 8))
def test_secrecy_never_forms_the_branch_stack(capsys, monkeypatch, n):
    # with the default families every figure secrecy prints comes from branch 0's
    # factor and the declared basis's sign table, both in closed form: no state is
    # built, so no (B, d, d) stack is formed (every constructor stores its stack through
    # _assemble), and the dense path's kernels never run
    def refuse(name):
        def read(*args, **kwargs):
            raise AssertionError(f"secrecy called {name}")
        return read

    monkeypatch.setattr(quantum_core.CqState, "branches", property(refuse("CqState.branches")))
    for name in ("from_factors", "_assemble"):
        monkeypatch.setattr(quantum_core.CqState, name, refuse(f"CqState.{name}"))
    for module, name in ((security_metrics, "_distance"), (security_metrics, "_gaps"), (quantum_core, "_gaps"),
                         (security_metrics, "_optimal_strategy"), (security_metrics, "cq_measure"),
                         (quantum_core, "cq_measure"), (attack_lab, "build_attack_state")):
        monkeypatch.setattr(module, name, refuse(name))
    code, out, err = run_cli(capsys, ["secrecy", "--n", str(n), "--seed", "1"])
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == dict(
        (" ".join(argv), digest) for argv, digest in _QUANTUM_OUTPUTS
    )[f"secrecy --n {n} --seed 1"]


def test_secrecy_reads_the_ben_or_figure_from_the_iacc_upper_end(capsys, monkeypatch):
    # the sufficiency condition needs an upper end on I_acc: a lower end of 0 would
    # certify every epsilon (0.0), while the key's proven 1/2 bit certifies none (1.0)
    reports = attack_lab.secrecy_reports

    def lower_end_zero(*args, **kwargs):
        report, gap = reports(*args, **kwargs)
        return security_metrics.SecurityReport(**{**vars(report), "iacc_lower_bits": 0.0}), gap

    monkeypatch.setattr(cli, "secrecy_reports", lower_end_zero)
    code, payload, err = run_json(capsys, ["secrecy", "--n", "3", "--seed", "1"])
    assert (code, err) == (EXIT_OK, "")
    assert payload["result"]["security_report"]["iacc_lower_bits"] == 0.0
    assert payload["result"]["ben_or_sufficient_eps"] == 1.0


@pytest.mark.parametrize("n", range(2, 8))
def test_secrecy_draws_no_random_number(capsys, monkeypatch, n):
    # the declared basis is built in closed form and closes the I_acc bracket, and the
    # label-basis strategy closes the secrecy one, so no random generator is made
    def refuse(*args, **kwargs):
        raise AssertionError("secrecy made a random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    code, out, err = run_cli(capsys, ["secrecy", "--n", str(n), "--seed", "1"])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["result"]["gap_report"]["iacc_best_strategy"] == "declared:even_x_eigenbasis"


def test_secrecy_builds_no_state_where_per_qubit_is_scored(capsys, monkeypatch):
    # the per-qubit family is scored in closed form, every member counted: nothing is built,
    # searched or measured (the search re-scored the 8 of 27 members tied at its maximum)
    calls, payload = _count_secrecy_calls(
        capsys, monkeypatch, ["secrecy", "--n", "3", "--families", "per_qubit", "--seed", "5"]
    )
    assert calls == {"build_attack_state": 0, "accessible_info_lower": 0, "born_table": 0, "cq_measure": 0}
    gap = payload["result"]["gap_report"]
    assert (gap["iacc_family"], gap["iacc_best_strategy"]) == (["per_qubit_exhaustive"], "per_qubit:std,std,std")


def _refuse_dense_work(monkeypatch):
    """Make the state's builder, the factor-stack constructor and ``eigvalsh`` raise."""
    def refuse(name):
        def called(*args, **kwargs):
            raise AssertionError(f"called {name}")
        return called

    monkeypatch.setattr(attack_lab, "build_attack_state", refuse("build_attack_state"))
    monkeypatch.setattr(quantum_core.CqState, "from_factors", refuse("CqState.from_factors"))
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse("numpy.linalg.eigvalsh"))


@pytest.mark.parametrize("families", ["per_qubit,declared", "declared", "per_qubit"])
@pytest.mark.parametrize("n", range(2, 8))
def test_secrecy_builds_no_state_and_runs_no_eigvalsh(capsys, monkeypatch, n, families):
    # every figure is read from closed forms: W_0's Gram is diagonal, so its spectrum is
    # its diagonal, and the per-qubit family has a formula in its Breidbart count
    argv = ["secrecy", "--n", str(n), "--families", families, "--seed", "1"]
    expected = run_cli(capsys, argv)
    _refuse_dense_work(monkeypatch)
    assert run_cli(capsys, argv) == expected and expected[0] == EXIT_OK


@pytest.mark.parametrize("n", range(2, 8))
def test_attack_demo_builds_no_state_and_runs_no_eigvalsh(capsys, monkeypatch, n):
    # the marginal check reads the pair of branches of prefix 0...0 from closed-form factors
    argv = ["attack-demo", "--n", str(n), "--trials", "100", "--seed", "1"]
    _refuse_dense_work(monkeypatch)
    code, payload, err = run_json(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert payload["result"]["marginal_check"] == {"passed": True, "max_deviation": 0.0}


@pytest.mark.parametrize("n", ["0", "1", "8", "-1"])
def test_secrecy_refuses_n_outside_2_to_7_before_building_anything(capsys, monkeypatch, n):
    # the refusal is secrecy_reports' own, with the text the state's builder gives
    def refuse(*args, **kwargs):
        raise AssertionError("secrecy built the state")

    monkeypatch.setattr(attack_lab, "build_attack_state", refuse)
    assert run_cli(capsys, ["secrecy", "--n", n, "--seed", "1"]) == (EXIT_USAGE, "", "error: n must lie in [2, 7]\n")


def test_secrecy_rejects_unknown_family(capsys):
    for family in ("psychic", "random", "hill_climb", "per_qubit,psychic"):
        with pytest.raises(SystemExit) as exc:
            main(["secrecy", "--n", "2", "--families", family])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown families" in err and "Traceback" not in err
    assert err.startswith("usage: qkdlab secrecy ")
    assert err.endswith("qkdlab secrecy: error: argument --families: unknown families: ['psychic']\n")


def test_secrecy_correctness_file_samples(capsys, tmp_path):
    path = tmp_path / "corr.json"
    path.write_text(json.dumps({"samples": [["000", "000"], ["001", "001"],
                                            ["010", "011"], ["111", "111"]]}))
    code, payload, _ = run_json(
        capsys,
        ["secrecy", "--n", "2", "--families", "per_qubit", "--correctness-file", str(path), "--seed", "0"],
    )
    assert code == EXIT_OK
    report = payload["result"]["security_report"]
    assert report["provenance"]["correctness_source"] == "samples"
    assert report["eps_correct"] > 0.25  # one mismatch in four samples


def test_secrecy_correctness_file_bad_shape(capsys, tmp_path):
    path = tmp_path / "corr.json"
    path.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run_cli(
        capsys, ["secrecy", "--n", "2", "--correctness-file", str(path)]
    )
    assert code == EXIT_USAGE
    assert "samples" in err


@pytest.mark.parametrize(
    "content",
    [
        {"samples": [1, 2]},
        {"samples": [["0", "0", "1"]]},
        {"samples": "00"},
        {"distribution": [["0"]]},
        {"distribution": [["0", "0", {}]]},
        {"distribution": [["0", "0", "0.5"]]},
        {"distribution": [["0", "0", True]]},
        {"distribution": {"00": 1.0}},
        "[" * 200_000 + "]" * 200_000,  # raw text: json.dumps cannot nest this deep
        b"",  # as /dev/null reads
        "not json",
        b"\x80\xff{}",  # not UTF-8
        {"samples": [[True, None]]},
        {"samples": [[["0"], "0"]]},
        {"distribution": [[0, 0, 1.0]]},
        {"distribution": [["00", "01", 0.5], ["00", "00", 0.5], ["00", "01", 0.5]]},  # a repeated pair
        {"samples": [["0", "0"]], "distribution": [["0", "0", 1.0]]},
    ],
)
def test_malformed_correctness_file_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "corr.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run_cli(capsys, ["secrecy", "--n", "2", "--correctness-file", str(path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: correctness file {str(path)!r}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    ('{"distribution": [["0", "0", 0.5]]}', "correctness probabilities sum to 0.5, not 1"),
    ('{"samples": []}', "correctness sample set is empty"),
    ('{"distribution": [["0", "0", 1e400]]}', "correctness probabilities sum to inf, not 1"),
    ('{"distribution": [["0", "0", 1%s]]}' % ("0" * 400), "'distribution' holds a probability too large for a float"),
])
def test_malformed_correctness_figures_fail_before_any_state_is_built(capsys, monkeypatch, tmp_path, content, message):
    def spy(*args, **kwargs):
        raise AssertionError("the attack state was built before the correctness figures were checked")

    monkeypatch.setattr(attack_lab, "build_attack_state", spy)
    path = tmp_path / "corr.json"
    path.write_text(content)
    want = f"error: correctness file {str(path)!r}: {message}\n"
    assert run_cli(capsys, ["secrecy", "--n", "7", "--correctness-file", str(path)]) == (EXIT_USAGE, "", want)


def test_secrecy_correctness_file_distribution(capsys, tmp_path):
    path = tmp_path / "corr.json"
    path.write_text(json.dumps({"distribution": [["00", "00", 0.75], ["01", "00", 0.25]]}))
    code, payload, _ = run_json(
        capsys,
        ["secrecy", "--n", "2", "--families", "per_qubit", "--correctness-file", str(path)],
    )
    assert code == EXIT_OK
    report = payload["result"]["security_report"]
    assert report["provenance"]["correctness_source"] == "distribution"
    assert report["eps_correct"] == 0.25


# ---------------------------------------------------------------------------
# keystream commands


def test_keystream_plan_meets_target(capsys):
    code, payload, _ = run_json(capsys, ["keystream-plan", "--target-eps", "1e-6"])
    assert code == EXIT_OK
    result = payload["result"]
    assert result["budget"]["eps_total"] <= 1e-6
    assert result["params"]["n0"] >= 1
    assert payload["parameters"]["target_eps"] == 1e-6


def test_keystream_plan_scores_its_winner_once(capsys, monkeypatch):
    calls = []
    original = keystream.total_eps

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(keystream, "total_eps", counting)
    params = keystream.plan(1e-9)
    alone = len(calls)
    assert alone == 174
    calls.clear()
    code, out, _ = run_cli(capsys, ["keystream-plan", "--target-eps", "1e-9"])
    assert code == EXIT_OK
    assert len(calls) == alone
    # the same bytes as printing plan's winner and scoring it again
    result = {"params": params.to_json_dict(), "budget": original(params, 200).to_json_dict()}
    cli_params = {"target_eps": 1e-9, "gamma": keystream.GAMMA_DEFAULT, "rho": keystream.RATE_RHO_DEFAULT,
                  "nu": keystream.NU_DEFAULT, "eps0": 0.0, "ell": 256, "horizon": 200}
    envelope = cli._envelope("keystream-plan", None, cli_params, result, False)
    assert out == "".join(cli._json_text(envelope))


def test_keystream_plan_infeasible(capsys):
    code, out, err = run_cli(
        capsys, ["keystream-plan", "--target-eps", "1e-9", "--max-n0", "1000"]
    )
    assert code == EXIT_FINDING
    assert out == ""
    detail = json.loads(err)
    assert detail["error"] == "planning_failed"
    # 1000 lies below the smallest n0 the key rate allows: no schedule was scored
    assert "best_params" not in detail and "best_budget" not in detail


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_keystream_plan_refuses_a_nonpositive_max_n0(capsys, bound):
    with pytest.raises(SystemExit) as exc:
        main(["keystream-plan", "--target-eps", "1", "--max-n0", bound])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and captured.out == ""
    assert f"argument --max-n0: '{bound}' is not a positive integer" in captured.err


def test_keystream_schedule_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "schedule.csv"
    code, payload, _ = run_json(
        capsys,
        ["keystream-schedule", "--n0", "60000", "--ell0", "12000",
         "--rounds", "5", "--csv", str(csv_path)],
    )
    assert code == EXIT_OK
    assert len(payload["result"]["rounds"]) == 5
    raw = csv_path.read_bytes()
    assert raw.startswith(b"i,n_i,ell_i,eps_i,cumulative_eps\r\n")
    assert raw.endswith(b"\r\n")


def test_keystream_schedule_builds_the_schedule_once(capsys, monkeypatch, tmp_path):
    calls = []
    original = keystream._columns

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the command builds no RoundRecord")

    monkeypatch.setattr(keystream, "_columns", counting)
    monkeypatch.setattr(cli, "_columns", counting)
    monkeypatch.setattr(keystream, "schedule", refused)
    code, payload, _ = run_json(
        capsys, ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "7",
                 "--csv", str(tmp_path / "schedule.csv")]
    )
    assert code == EXIT_OK
    assert len(calls) == 1
    params = StreamParams(n0=60_000, c=60_000.0, ell=256, ell0=12_000)
    assert payload["result"]["budget"] == keystream.total_eps(params, 7).to_json_dict()


SCHEDULES = [
    (["--n0", "60000", "--ell0", "12000"], StreamParams(n0=60_000, c=60_000.0, ell0=12_000)),
    (["--n0", "60000", "--ell0", "100"], StreamParams(n0=60_000, c=60_000.0, ell0=100)),  # clamped rows
    (["--n0", "30000", "--ell0", "50", "--c", "7.3", "--ell", "100"],
     StreamParams(n0=30_000, c=7.3, ell=100, ell0=50)),
    (["--n0", "1000000", "--ell0", "40000", "--gamma", "0.002", "--rho", "0.03", "--nu", "0.0007",
      "--eps0", "1e-12"],
     StreamParams(gamma=0.002, rate_rho=0.03, nu=0.0007, n0=10**6, c=1e6, ell0=40_000, eps0=1e-12)),
    # both terms are 0.0 from round 26 on, and from round 1 on
    (["--n0", "60000", "--ell0", "12000", "--gamma", "0.1", "--nu", "0.1"],
     StreamParams(gamma=0.1, nu=0.1, n0=60_000, c=60_000.0, ell0=12_000)),
    (["--n0", "200000000", "--ell0", "1000000"], StreamParams(n0=2 * 10**8, c=2e8, ell0=10**6)),
]


def _schedule_reference(params, rounds, real_valued, csv_path, timestamp=None):
    """The report as ``json.dumps`` prints it, built from :func:`keystream.schedule`."""
    records = keystream.schedule(params, rounds, real_valued)
    payload = {
        "tool": "qkdlab",
        "version": qkdlab.__version__,
        "command": "keystream-schedule",
        "seed": None,
        "parameters": {"rounds": rounds, "real_valued": real_valued, "csv": csv_path},
        "result": {
            "params": params.to_json_dict(),
            "budget": keystream.total_eps(params, rounds, real_valued).to_json_dict(),
            "rounds": [vars(r) for r in records],
        },
    }
    if timestamp is not None:
        payload["generated_at"] = timestamp
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n")
    writer.writerow(["i", "n_i", "ell_i", "eps_i", "cumulative_eps"])
    running = 0.0
    for r in records:  # summed in round order
        running += r.eps_i
        writer.writerow([r.i, r.n_i, r.ell_i, repr(r.eps_i), repr(running)])
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", text.getvalue()


def _assert_schedule_files(capsys, tmp_path, command, want, want_csv):
    """``command`` prints ``want`` and writes ``want_csv``; with ``--out`` it writes ``want`` instead."""
    code, out, err = run_cli(capsys, command)
    assert (code, err) == (EXIT_OK, "")
    assert_same_bytes(out.encode(), want.encode())
    assert_same_bytes((tmp_path / "schedule.csv").read_bytes(), want_csv.encode())
    assert run_cli(capsys, [*command, "--out", "report.json"]) == (EXIT_OK, "", "")
    assert_same_bytes((tmp_path / "report.json").read_bytes(), want.encode())


@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("rounds", [1, 3, 1000])
@pytest.mark.parametrize("argv, params", SCHEDULES)
def test_keystream_schedule_prints_what_json_dumps_gives(
    capsys, tmp_path, monkeypatch, argv, params, rounds, real_valued
):
    monkeypatch.chdir(tmp_path)
    command = ["keystream-schedule", *argv, "--rounds", str(rounds), "--csv", "schedule.csv"]
    if real_valued:
        command.append("--real-valued")
    want, want_csv = _schedule_reference(params, rounds, real_valued, "schedule.csv")
    _assert_schedule_files(capsys, tmp_path, command, want, want_csv)
    if params.ell0 == 100:
        assert '"clamped": true,' in want and '"eps_i": 1.0,' in want


def test_keystream_schedule_rows_span_several_write_batches(capsys, tmp_path, monkeypatch):
    argv, params = SCHEDULES[1]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, ["keystream-schedule", *argv, "--rounds", "10000", "--csv", "schedule.csv"])
    assert code == EXIT_OK
    want, want_csv = _schedule_reference(params, 10_000, False, "schedule.csv")
    assert_same_bytes(out.encode(), want.encode())
    assert_same_bytes((tmp_path / "schedule.csv").read_bytes(), want_csv.encode())


@pytest.mark.parametrize("rounds", [keystream._BATCH - 1, keystream._BATCH, keystream._BATCH + 1])
def test_keystream_schedule_json_and_csv_at_batch_edges(capsys, tmp_path, monkeypatch, rounds):
    argv, params = SCHEDULES[1]
    monkeypatch.chdir(tmp_path)
    command = ["keystream-schedule", *argv, "--rounds", str(rounds), "--csv", "schedule.csv"]
    want, want_csv = _schedule_reference(params, rounds, False, "schedule.csv")
    _assert_schedule_files(capsys, tmp_path, command, want, want_csv)


# the default piece, one row a piece, and about five rows a piece, whose edges fall inside runs
# of rows with equal digit counts, on the edges between them and short of a run's end
_PIECES = [keystream._PIECE_BYTES, 1, 1000]
_PIECE_IDS = ["default_piece", "one_row_a_piece", "a_few_rows_a_piece"]


@pytest.mark.parametrize("piece_bytes", _PIECES, ids=_PIECE_IDS)
@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("schedule, rounds, live", [(5, keystream._BATCH + 1, 0), (0, 1000, 1000)],
                         ids=["no_live_round", "every_round_live"])
def test_keystream_schedule_with_every_round_in_one_template(
    capsys, tmp_path, monkeypatch, schedule, rounds, live, real_valued, piece_bytes
):
    # every row from the zero-term template (written by array arithmetic past a batch edge), or none;
    # the floats of --real-valued go through _fill
    argv, params = SCHEDULES[schedule]
    assert keystream._columns(params, rounds, real_valued).live == live
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(keystream, "_PIECE_BYTES", piece_bytes)
    command = ["keystream-schedule", *argv, "--rounds", str(rounds), "--csv", "schedule.csv"]
    if real_valued:
        command.append("--real-valued")
    want, want_csv = _schedule_reference(params, rounds, real_valued, "schedule.csv")
    _assert_schedule_files(capsys, tmp_path, command, want, want_csv)


@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("params", COLUMN_PARAMS, ids=COLUMN_PARAMS_IDS)
def test_keystream_schedule_json_and_csv_for_every_column_params(
    capsys, tmp_path, monkeypatch, params, real_valued
):
    # params the command line cannot spell (an int c, exponents past the cap),
    # written three rows to a batch so that 7 rounds cross two batch edges
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_stream_params", lambda args: params)
    monkeypatch.setattr(keystream, "_BATCH", 3)
    command = ["keystream-schedule", "--n0", "1", "--ell0", "1", "--rounds", "7", "--csv", "schedule.csv"]
    if real_valued:
        command.append("--real-valued")
    want, want_csv = _schedule_reference(params, 7, real_valued, "schedule.csv")
    _assert_schedule_files(capsys, tmp_path, command, want, want_csv)


# live is 26, 27 and 28 in 3-round blocks: one round before a block edge, on it and after it
_LIVE_EDGE_ARGV = [
    (["--n0", "60000", "--ell0", "12000", "--gamma", "0.1", "--nu", "0.095"],
     StreamParams(gamma=0.1, nu=0.095, n0=60_000, c=60_000.0, ell0=12_000), 40, 26),
    (["--n0", "60000", "--ell0", "12000", "--gamma", "0.09", "--nu", "0.1"],
     StreamParams(gamma=0.09, nu=0.1, n0=60_000, c=60_000.0, ell0=12_000), 40, 27),
    (["--n0", "60000", "--ell0", "12000", "--gamma", "0.1", "--nu", "0.09"],
     StreamParams(gamma=0.1, nu=0.09, n0=60_000, c=60_000.0, ell0=12_000), 40, 28),
    (*SCHEDULES[5], 10, 0),  # every block dropped
    (*SCHEDULES[0], 10, 10),  # no block dropped
]


@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("argv, params, rounds, live", _LIVE_EDGE_ARGV,
                         ids=["before_edge", "on_edge", "after_edge", "no_live_round", "every_round_live"])
def test_keystream_schedule_json_and_csv_at_block_and_live_edges(
    capsys, tmp_path, monkeypatch, argv, params, rounds, live, real_valued
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(keystream, "_BATCH", 3)
    assert keystream._columns(params, rounds, real_valued).live == live
    command = ["keystream-schedule", *argv, "--rounds", str(rounds), "--csv", "schedule.csv"]
    if real_valued:
        command.append("--real-valued")
    want, want_csv = _schedule_reference(params, rounds, real_valued, "schedule.csv")
    _assert_schedule_files(capsys, tmp_path, command, want, want_csv)


@pytest.mark.parametrize("real_valued", [False, True])
def test_keystream_schedule_writes_a_dropped_block_before_a_live_one(capsys, tmp_path, monkeypatch, real_valued):
    # No parameters give an all-zero block before a nonzero one, so rounds 4..6 are made
    # zero by hand: their CSV rows carry the running sum of rounds 1..3, not the total.
    argv, params = SCHEDULES[0]
    original = keystream._block

    def zeroed(p, lo, hi, real_valued):
        block = original(p, lo, hi, real_valued)
        if lo != 4:
            return block
        return block._replace(n=block.n[:0], ell=block.ell[:1], term_signal=block.term_signal[:0],
                              term_auth=block.term_auth[:0], eps=block.eps[:0], clamped=block.clamped[:0])

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(keystream, "_BATCH", 3)
    monkeypatch.setattr(keystream, "_block", zeroed)
    blocks = keystream._columns(params, 10, real_valued).blocks
    assert [len(block.eps) > 0 for block in blocks] == [True, False, True, True]
    command = ["keystream-schedule", *argv, "--rounds", "10", "--csv", "schedule.csv"]
    if real_valued:
        command.append("--real-valued")
    want, want_csv = _schedule_reference(params, 10, real_valued, "schedule.csv")
    running = [row.split(",")[4] for row in want_csv.split("\r\n")[1:-1]]
    assert running[2] == running[3] == running[5] != running[9]
    assert '"eps_i": 0.0,' in want
    _assert_schedule_files(capsys, tmp_path, command, want, want_csv)


def test_keystream_schedule_traced_peak_is_bounded(tmp_path):
    # 1.4 MB: a block of columns, its live rows as Python numbers and one piece of rows;
    # the margin is 0.35 MB.  Pieces of 4096 rows came to 2.1 MB, six columns over all
    # 10^5 rounds to 5.9 MB, a Python object per row to several times that
    argv = ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "100000",
            "--out", str(tmp_path / "report.json")]
    code, peak = traced_peak(lambda: main(argv))
    assert code == EXIT_OK
    assert peak <= 1.75 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_keystream_schedule_of_10_to_the_5_rounds_adds_at_most_1_5_mb_to_start_up(tmp_path):
    # about 1.2 MB: the writers hold one piece of rows at a time; pieces of 4096 rows,
    # about 1 MB of JSON each, added 2.6 MB
    argv = [*_BENCHMARK_STREAM_OUTPUTS[2][0], "--out", str(tmp_path / "report.json")]
    code, start_kb, peak_kb = _main_peak_kb(argv)
    assert code == EXIT_OK
    assert peak_kb - start_kb <= 1.5 * 1024, f"VmHWM {start_kb / 1024:.2f} -> {peak_kb / 1024:.2f} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
def test_keystream_schedule_of_10_to_the_6_rounds_peaks_below_50_mb(tmp_path):
    # about 39 MB, start-up included: only the blocks up to the last live round keep their
    # columns; columns over every round took it to 86 MB
    argv = ["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "1000000",
            "--out", str(tmp_path / "report.json")]
    code, _, peak_kb = _main_peak_kb(argv)
    assert code == EXIT_OK
    assert peak_kb <= 50 * 1024, f"VmHWM {peak_kb / 1024:.0f} MB"
    with open(tmp_path / "report.json", "rb") as report:
        report.seek(-400, os.SEEK_END)
        assert b'"i": 1000000,' in report.read()


# stdout of the benchmark's key-stream commands (workload passes 0 and 1 at seed 1), pinned as sha256
_BENCHMARK_STREAM_OUTPUTS = [
    (["keystream-simulate", "--n0", "60000", "--ell0", "12000", "--rounds", "3000",
      "--abort-prob", "0.1", "--seed", "580321821"],
     "52ae56228e6854e48c78596413ae148da152beb900bb9fe7866a36766f5dc26c"),
    (["keystream-simulate", "--n0", "60000", "--ell0", "12000", "--rounds", "3000",
      "--abort-prob", "0.1", "--seed", "317438970"],
     "1bbaa4621bc047a116bae8cd2506a5d3388bfb297a4f31d580c93126e69025a8"),
    (["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "100000"],
     "6f6d887fc7da6368febe8bf99aa7292ce3461f3f0177fe63106d517a07367cdf"),
    (["keystream-plan", "--target-eps", "1e-9"],
     "1fe9936ca627c563a3e5d58231c4e133f0f09a13b7cdeb40c5127cbc89d81f86"),
]


@pytest.mark.parametrize("argv, digest", _BENCHMARK_STREAM_OUTPUTS, ids=lambda v: v[0] if isinstance(v, list) else "")
def test_keystream_benchmark_commands_print_the_pinned_bytes(capsys, argv, digest):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout of the quantum commands, pinned as sha256: the attack state, its
# canonical ideal, the secrecy bracket, the I_acc search and the marginal check.
# The secrecy digests changed when each search began to stop once its bracket
# closes: only the provenance fields iacc_family, iacc_evaluations and
# strategy_count moved (every figure is unchanged; see
# test_attack_lab.py::test_secrecy_reports_match_the_unstopped_searches).  They
# changed again when secrecy dropped --budget, as it samples nothing: the
# parameters' budget and both reports' search_budget fields went, nothing else
_QUANTUM_OUTPUTS = [
    (["secrecy", "--n", "2", "--seed", "1"], "c9d4a64ce86fc9951709bcca5a56b2fafbdf2ae97f4280b4018654054506bef0"),
    (["secrecy", "--n", "3", "--seed", "1"], "b8865adbef2d61be1660441a5ba68d1f9162e728950015bf3f3731f51f06cc7b"),
    (["secrecy", "--n", "4", "--seed", "1"], "1cda0588775fb19c32769910db548f8b442fd24f85b054c2c973182060754e85"),
    (["secrecy", "--n", "5", "--seed", "1"], "32088a92cf04f9afa016c346709d88deb793995967008039ab70ae38c35df421"),
    (["secrecy", "--n", "6", "--seed", "1"], "3ca8ec87bbaa61a8f654355a84174c700373630a01632b709fec9baa0f1e1d45"),
    (["secrecy", "--n", "3", "--families", "per_qubit", "--seed", "4"],
     "a4b9137914dd7bb630e5807a49d9f613df2c0f7e2104ce21071a8946fb7978a7"),
    (["secrecy", "--n", "7", "--seed", "1"], "a6ffd57d06fa831de6ed03aabd8f70e1f141070aea0c20f259a04e33cd41296e"),
    (["secrecy", "--n", "5", "--seed", "9973"], "ea079cfa39696385cb32fc28cdd499e8c68b323fe5d80d19918131de80aa067a"),
    (["secrecy", "--n", "4", "--families", "per_qubit", "--seed", "3"],
     "364c536970e9bbc191916dbc89ef46aec9d8fdbccb4dea77a0dee6c41bf3c149"),
    # the per-qubit family at the cap, scored in closed form: every member counted, so it
    # reports the exhaustive search (2187 evaluations, std on every qubit, 2^-7 bits) where
    # 32 members were sampled, with the same figure
    (["secrecy", "--n", "7", "--families", "per_qubit", "--seed", "1"],
     "edd9229d4443fd8c21c77072f51a98363d03ce87ad473c360a1c433aada70f6d"),
    # attack-demo prints the closed-form Breidbart angle pi/8 and the marginal deviation of the
    # pair of branches of prefix 0...0, exact from 0/1 factors: every digest changed when the
    # check left the built state, whose rounding showed in marginal_check.max_deviation alone
    # (1.4e-18 to 5.6e-18 -> 0.0)
    (["attack-demo", "--n", "2", "--trials", "1000", "--seed", "3"],
     "9c5adaa6bd7dfa6533e233df18bd7c110da0a0e3c731dd45183eb525f1c0e8be"),
    (["attack-demo", "--n", "3", "--trials", "1000", "--seed", "3"],
     "70b8dc54eeafb8bcf41fdb2bc645b0385a09e6c9cae3c3ce1c6b71e9a5c4ff84"),
    (["attack-demo", "--n", "4", "--trials", "1000", "--seed", "3"],
     "639340ed055e94f92ec53bb1ecfb240bbf59d8b0f19502bb24929b26eddcfd8d"),
    (["attack-demo", "--n", "5", "--trials", "1000", "--seed", "3"],
     "bf2797979e6bd64d8d5327c86aa013949be3695fced0007cb280397d0ba4cd8b"),
    (["attack-demo", "--n", "6", "--trials", "1000", "--seed", "3"],
     "cab7b61f182e47e6d68616fa92d96bceded0921e3d5cf1869f916070cc889910"),
    (["attack-demo", "--n", "7", "--trials", "1000", "--seed", "3"],
     "750b9db828c5002bb0697d811626a5d21cbeea41e6c5bb8614c7d0ea59e2afdf"),
]


def _argv_id(value) -> str:
    return "-".join(arg.lstrip("-") for arg in value) if isinstance(value, list) else ""


@pytest.mark.parametrize("argv, digest", _QUANTUM_OUTPUTS, ids=_argv_id)
def test_quantum_commands_print_the_pinned_bytes(capsys, argv, digest):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_keystream_schedule_rows_splice_next_to_a_timestamp(capsys):
    argv, params = SCHEDULES[0]
    code, out, _ = run_cli(capsys, ["keystream-schedule", *argv, "--rounds", "4", "--timestamp"])
    assert code == EXIT_OK
    stamp = json.loads(out)["generated_at"]
    assert out == _schedule_reference(params, 4, False, None, timestamp=stamp)[0]


@pytest.mark.parametrize("real_valued", [False, True])
@pytest.mark.parametrize("schedule, live", [(0, 1000), (4, 25), (5, 0)], ids=["no_tail", "mid_run", "from_round_1"])
def test_keystream_schedule_zero_rows_splice_next_to_a_timestamp(capsys, schedule, live, real_valued):
    # rows from the full template only, from both, and from the zero-term one only
    argv, params = SCHEDULES[schedule]
    assert keystream._columns(params, 1000, real_valued).live == live
    command = ["keystream-schedule", *argv, "--rounds", "1000", "--timestamp"]
    code, out, _ = run_cli(capsys, [*command, "--real-valued"] if real_valued else command)
    assert code == EXIT_OK
    stamp = json.loads(out)["generated_at"]
    assert out == _schedule_reference(params, 1000, real_valued, None, timestamp=stamp)[0]


def test_keystream_schedule_calls_math_only_where_a_term_can_be_nonzero(capsys, monkeypatch):
    # the benchmark's schedule: of its 10^5 rounds, only the first 2546 have a nonzero term
    evaluated = []
    original = keystream._math

    def counting(f, x):
        evaluated.append(len(x))
        return original(f, x)

    monkeypatch.setattr(keystream, "_math", counting)
    code, out, err = run_cli(capsys, _BENCHMARK_STREAM_OUTPUTS[2][0])
    assert (code, err) == (EXIT_OK, "")
    assert len(evaluated) == 3 and sum(evaluated) <= 3 * 2600


def test_keystream_schedule_fills_a_template_per_row_only_for_live_rounds(capsys, tmp_path, monkeypatch):
    # the benchmark's schedule: its 97,454 rounds after the last live one are written by array arithmetic
    filled = []
    original = keystream._fill

    def counting(template, rows):
        def counted():
            for row in rows:
                filled.append(template)
                yield row
        return original(template, counted())

    monkeypatch.setattr(keystream, "_fill", counting)
    monkeypatch.setattr(cli, "_fill", counting)
    argv, digest = _BENCHMARK_STREAM_OUTPUTS[2]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(filled) == 2546
    filled.clear()
    files = ["--csv", str(tmp_path / "schedule.csv"), "--out", str(tmp_path / "report.json")]
    assert run_cli(capsys, [*argv, *files]) == (EXIT_OK, "", "")
    assert len(filled) == 2 * 2546  # the JSON rows and the CSV rows


def _recording_pieces(monkeypatch) -> dict[str, list[int]]:
    """Record the byte length of every piece written to a file, by file name."""
    sizes = {}
    original = cli._atomic_write

    def recording(path, pieces):
        record = sizes.setdefault(os.path.basename(path), [])

        def counted():
            for piece in pieces:
                record.append(memoryview(piece).nbytes)
                yield piece
        original(path, counted())

    monkeypatch.setattr(cli, "_atomic_write", recording)
    return sizes


def _longest_row(data: bytes) -> int:
    """The longest row, in bytes, of a CSV file, or of a report's list of flat objects
    (each row with the ``,`` before it)."""
    if data.startswith(b"{"):
        return 1 + max(map(len, re.findall(rb"\n *\{[^{}]*\}", data)))
    return 2 + max(map(len, data.split(b"\r\n")))


@pytest.mark.parametrize("argv, files", [
    ([*_BENCHMARK_STREAM_OUTPUTS[2][0], "--csv", "schedule.csv"], ["report.json", "schedule.csv"]),
    (["rsa-demo", "--auctions", "5000", "--seed", "1"], ["report.json"]),
], ids=["benchmark_schedule", "rsa_demo_sweep"])
def test_written_pieces_hold_at_most_the_piece_bytes_and_one_row(tmp_path, monkeypatch, argv, files):
    # the benchmark's schedule writes 2546 rows by _fill and the rest by _int_rows, to both files;
    # pieces of 4096 rows of about 250 bytes each were four times the budget
    monkeypatch.chdir(tmp_path)
    sizes = _recording_pieces(monkeypatch)
    assert main([*argv, "--out", "report.json"]) == EXIT_OK
    assert sorted(sizes) == files
    for name, pieces in sizes.items():
        data = (tmp_path / name).read_bytes()
        assert sum(pieces) == len(data) and len(pieces) > 2, name
        assert max(pieces) <= keystream._PIECE_BYTES + _longest_row(data), name


@pytest.mark.parametrize("argv", [
    _BENCHMARK_STREAM_OUTPUTS[2][0],
    ["keystream-schedule", *SCHEDULES[5][0], "--rounds", "20", "--real-valued"],
    ["keystream-plan", "--target-eps", "1e-9"],
    ["attack-demo", "--n", "2", "--trials", "25", "--seed", "7"],
], ids=["schedule", "real_valued_schedule", "plan", "attack_demo"])
def test_main_prints_the_same_text_to_a_stream_without_a_byte_buffer(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == code
    assert_same_bytes(text.getvalue().encode(), out.encode())


def test_keystream_simulate_clean_run(capsys):
    code, payload, _ = run_json(
        capsys,
        ["keystream-simulate", "--n0", "60000", "--ell0", "12000",
         "--rounds", "30", "--abort-prob", "0.2", "--seed", "1"],
    )
    assert code == EXIT_OK
    result = payload["result"]
    assert result["bits_emitted"] == 30 * 256
    assert result["conservation_ok"] is True
    assert result["total_retries"] >= 0


def test_keystream_simulate_underflow(capsys, monkeypatch):
    # a ledger mutant whose rounds each read one bit past what is stored
    original = keystream._consumption

    def take_one_more(ell):
        starts, ends = original(ell)
        return starts, ends + 1

    monkeypatch.setattr(keystream, "_consumption", take_one_more)
    code, out, err = run_cli(
        capsys,
        ["keystream-simulate", "--n0", "60000", "--ell0", "300", "--rounds", "50",
         "--abort-prob", "0.6", "--seed", "0"],
    )
    assert code == EXIT_FINDING
    assert out == ""
    assert json.loads(err) == {"error": "key_ledger_underflow", "detail": "round 1: need 301 bits, have 300"}


def test_keystream_simulate_refuses_charge_per_attempt(capsys):
    # the option is gone: a retry-charging model needs a reserve in the schedule
    with pytest.raises(SystemExit) as exc:
        main(["keystream-simulate", "--n0", "60000", "--ell0", "300", "--abort-prob", "0.5",
              "--charge-per-attempt"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --charge-per-attempt" in captured.err
    assert "Traceback" not in captured.err


def test_keystream_simulate_retry_exhaustion_is_a_finding(capsys):
    code, out, err = run_cli(
        capsys,
        ["keystream-simulate", "--n0", "60000", "--ell0", "12000", "--rounds", "3",
         "--abort-prob", "1.0", "--seed", "0"],
    )
    assert code == EXIT_FINDING
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "retry_limit_exceeded" and "attempts" in report["detail"]


def test_keystream_simulate_ledger_break_is_a_finding(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise LedgerBroken("ledger broken at round 1")

    monkeypatch.setattr(cli, "simulate_stream", broken)
    code, out, err = run_cli(capsys, ["keystream-simulate", "--n0", "60000", "--ell0", "12000"])
    assert code == EXIT_FINDING
    assert out == ""
    assert json.loads(err) == {"error": "ledger_broken", "detail": "ledger broken at round 1"}


# ---------------------------------------------------------------------------
# verify-composition and rsa-demo


def test_verify_composition_biased_otp(capsys):
    code, payload, _ = run_json(capsys, ["verify-composition", "--seed", "0"])
    assert code == EXIT_OK
    result = payload["result"]
    assert result["all_within_bound"] is True
    assert result["mode"] == "exact"
    assert result["rows"][0]["advantage_total"] == pytest.approx(0.1, abs=1e-12)


def test_verify_composition_attack_otp_flags_violation(capsys):
    code, payload, _ = run_json(
        capsys, ["verify-composition", "--example", "attack-otp", "--n", "3", "--seed", "0"]
    )
    assert code == EXIT_FINDING
    result = payload["result"]
    assert result["bound_violated"] is True
    assert result["estimate"]["advantage"] == pytest.approx(0.5, abs=1e-12)


def test_verify_composition_sample_mode(capsys):
    code, payload, _ = run_json(
        capsys,
        ["verify-composition", "--example", "attack-otp", "--n", "3",
         "--mode", "sample", "--trials", "2000", "--seed", "0"],
    )
    assert code == EXIT_FINDING
    assert payload["result"]["estimate"]["mode"] == "sample"
    assert payload["result"]["estimate"]["accept_real"] == 1.0


# Seeded outputs as the per-sample string form gave them: a change to the
# rng stream, the chunking or the acceptance count moves these digits.
# The biased-otp report carries the three acceptance differences, not the
# acceptances themselves.
@pytest.mark.parametrize("argv, code, field, expected", [
    (["--example", "biased-otp", "--mode", "sample", "--seed", "1"], EXIT_OK, ("rows", 0), {
        "advantage_total": "0.1048",
        "advantage_source_step": "0.11170000000000002",
        "advantage_app_step": "0.006900000000000017",
        "half_width": "0.03528327350492311",
    }),
    (["--example", "attack-otp", "--n", "6", "--mode", "sample", "--trials", "20000", "--seed", "1"],
     EXIT_FINDING, ("estimate",), {"accept_real": "1.0", "accept_ideal": "0.4925"}),
    (["--example", "attack-otp", "--n", "9", "--mode", "exact", "--seed", "3"],
     EXIT_FINDING, ("estimate",), {"accept_real": "1.0", "accept_ideal": "0.5"}),
    (["--example", "attack-otp", "--n", "1", "--seed", "2"],
     EXIT_FINDING, ("estimate",), {"accept_real": "1.0", "accept_ideal": "0.5", "mode": "'exact'"}),
    (["--example", "attack-otp", "--n", "11", "--trials", "500", "--seed", "5"],
     EXIT_FINDING, ("estimate",), {
         "accept_ideal": "0.456", "half_width": "0.14292601349383782", "mode": "'sample'",
     }),
])
def test_verify_composition_seeded_outputs_are_pinned(capsys, argv, code, field, expected):
    got_code, payload, _ = run_json(capsys, ["verify-composition", *argv])
    assert got_code == code
    part = payload["result"]
    for key in field:
        part = part[key]
    assert {name: repr(part[name]) for name in expected} == expected


@pytest.mark.parametrize("seed", ["584", "1225"])
def test_biased_otp_at_its_tight_bound_is_no_finding(capsys, seed):
    # the majority distinguisher attains the bound 0.1 exactly; these seeds
    # sample 0.11395 and 0.11355, which a normal two-sided interval flagged
    code, payload, _ = run_json(capsys, ["verify-composition", "--example", "biased-otp", "--mode", "sample",
                                         "--trials", "20000", "--message", "1", "--seed", seed])
    assert code == EXIT_OK and payload["result"]["all_within_bound"] is True


def test_biased_otp_runs_on_a_message_past_1029_bits(capsys):
    # the declared epsilon of a 1100-bit biased key is its total variation, whose grouped
    # terms leave the float range from 1030 bits; the run ends in a verdict, not a usage error
    code, payload, err = run_json(capsys, ["verify-composition", "--example", "biased-otp", "--mode", "sample",
                                           "--trials", "100", "--message", "1" * 1100])
    assert code in (EXIT_OK, EXIT_FINDING) and err == ""
    assert payload["result"]["eps_source"] == composition_harness.iid_bits_total_variation(1100, 0.6)


def test_rsa_demo_single(capsys):
    code, payload, _ = run_json(capsys, ["rsa-demo", "--bid", "123", "--seed", "4"])
    assert code == EXIT_OK
    result = payload["result"]
    assert result["forgery_doubled"] is True
    assert result["bob_bid"] == 246
    assert result["winner"] == "bob"


def test_rsa_demo_sweep(capsys):
    code, payload, _ = run_json(
        capsys, ["rsa-demo", "--auctions", "5", "--max-bid", "400", "--seed", "4"]
    )
    assert code == EXIT_OK
    assert payload["result"]["bob_win_rate"] == 1.0
    assert len(payload["result"]["outcomes"]) == 5


@pytest.mark.parametrize("seed", [str(seed) for seed in range(1, 9)])
def test_rsa_demo_refuses_bids_by_the_modulus_size_on_every_seed(capsys, seed):
    # a 16-bit modulus is at least 2^15, so 2 * 16383 always fits; the doubled bid's
    # bit length decides, not the drawn modulus
    argv = ["rsa-demo", "--modulus-bits", "16", "--seed", seed]
    assert run_json(capsys, [*argv, "--bid", "16383"])[1]["result"]["bob_bid"] == 32766
    for bid in ("16384", "20000"):
        assert run_cli(capsys, [*argv, "--bid", bid]) == (EXIT_USAGE, "", "error: bid too large for the modulus\n")
    sweep = [*argv, "--auctions", "2", "--max-bid"]
    assert run_cli(capsys, [*sweep, "16384"]) == (EXIT_USAGE, "", "error: max_bid too large for the modulus\n")
    assert run_cli(capsys, [*sweep, "0"]) == (EXIT_USAGE, "", "error: max_bid must be at least 1\n")


@pytest.mark.parametrize("argv", [
    ["--modulus-bits", "0"],
    ["--modulus-bits", "8", "--bid", "1"],
    ["--modulus-bits", "8", "--bid", "-1"],
    ["--modulus-bits", "33"],
    ["--modulus-bits", "48", "--bid", "-1"],
    ["--modulus-bits", "64"],
    ["--modulus-bits", "65"],
    ["--auctions", "5", "--modulus-bits", "8"],
    ["--auctions", "2", "--modulus-bits", "8", "--max-bid", "0"],
    ["--auctions", "2", "--modulus-bits", "33"],
    ["--auctions", "2", "--modulus-bits", "48", "--max-bid", "0"],
    ["--auctions", "2", "--modulus-bits", "64", "--bid", "-1"],
    ["--auctions", "2", "--modulus-bits", "65", "--max-bid", "1"],
])
def test_rsa_demo_refuses_a_modulus_size_outside_the_range_whatever_the_bid(capsys, argv):
    # the range is checked first, in the one-auction and the sweep mode alike
    assert run_cli(capsys, ["rsa-demo", *argv]) == (EXIT_USAGE, "", "error: modulus_bits must lie in [16, 32]\n")


@pytest.mark.parametrize("argv, message", [
    (["--max-bid", "-5"], "max_bid must be at least 1"),
    (["--max-bid", "0"], "max_bid must be at least 1"),
    (["--max-bid", "16384", "--modulus-bits", "16"], "max_bid too large for the modulus"),
    (["--auctions", "2", "--bid", "-7"], "bid must be nonnegative"),
    (["--auctions", "2", "--bid", "16384", "--modulus-bits", "16"], "bid too large for the modulus"),
    # both refused: the running mode's own option is named
    (["--bid", "-1", "--max-bid", "0"], "bid must be nonnegative"),
    (["--auctions", "2", "--bid", "-1", "--max-bid", "0"], "max_bid must be at least 1"),
])
def test_rsa_demo_checks_both_bid_options_whichever_mode_runs(capsys, argv, message):
    assert run_cli(capsys, ["rsa-demo", "--seed", "1", *argv]) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("auctions", [2, 5000])
def test_rsa_demo_rows_are_what_json_dumps_prints(capsys, auctions):
    # 5000 rows take two batches of the template writer; the timestamp sorts between the rows and the seed
    argv = ["rsa-demo", "--auctions", str(auctions), "--modulus-bits", "20", "--max-bid", "3000", "--seed", "8"]
    code, out, _ = run_cli(capsys, [*argv, "--timestamp"])
    assert code == EXIT_OK
    payload = json.loads(out)
    sweep = composition_harness.rsa_auction_sweep(auctions, 20, 3000, np.random.default_rng(8))
    assert payload["result"] == sweep.to_json_dict()
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# stdout of rsa-demo, pinned as sha256: the benchmark's sweeps (montecarlo workload passes 0 and 1
# at seed 1), a sweep at the smallest modulus, and single auctions
_RSA_OUTPUTS = [
    (["rsa-demo", "--auctions", "1000", "--seed", "777300825"],
     "813c7d7edae9de170132a3a02f5ce6db510b617d4c359fcf49fcd974a944b06d"),
    (["rsa-demo", "--auctions", "1000", "--seed", "1896758432"],
     "b2f984ebedcd962aeaba6c6a9946d592a4abc11438d54cf5627fdcc5b2bf0e64"),
    (["rsa-demo", "--auctions", "300", "--max-bid", "100", "--seed", "3", "--modulus-bits", "16"],
     "bcf97949c1ccfef40462fb4904ef09e607e29bec60fcefd4903a9129c2b275b5"),
    (["rsa-demo", "--bid", "0", "--seed", "4"], "18786ebf91b25de1e8b642cf74a97dfe6d5eed2b3e53bf3cfa146fcbff7d36ff"),
    (["rsa-demo", "--bid", "123", "--seed", "4"], "e45c5ab2e89ff34867a8ba1e140b9126cb7f37570a4ad6831b7711a57ef7cee6"),
]


@pytest.mark.parametrize("piece_bytes", _PIECES[:2], ids=_PIECE_IDS[:2])
@pytest.mark.parametrize("argv, digest", _RSA_OUTPUTS, ids=_argv_id)
def test_rsa_demo_prints_the_pinned_bytes(capsys, monkeypatch, argv, digest, piece_bytes):
    monkeypatch.setattr(keystream, "_PIECE_BYTES", piece_bytes)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the JSON layout of every report object


def test_report_objects_keep_their_json_layout(capsys):
    def result(argv):
        code, payload, _ = run_json(capsys, argv)
        assert code in (EXIT_OK, EXIT_FINDING)
        return payload["result"]

    def keys(obj, tag=None):
        assert obj.get("type") == tag
        return set(obj) - {"type"}

    secrecy = result(["secrecy", "--n", "2", "--families", "per_qubit", "--seed", "1"])
    assert keys(secrecy["security_report"], "security_report") == {
        "key_len", "eps_correct", "eps_robust", "eps_secret_lower", "eps_secret_upper",
        "iacc_lower_bits", "eps_total", "provenance",
    }
    assert keys(secrecy["gap_report"], "secrecy_gap_report") == {
        "n", "eps_secret_lower", "eps_secret_upper", "iacc_lower_bits", "iacc_family",
        "iacc_best_strategy", "ben_or_required_iacc", "seed",
    }

    planned = result(["keystream-plan", "--target-eps", "1e-6"])
    assert keys(planned["params"], "stream_params") == {
        "gamma", "rate_rho", "nu", "n0", "c", "ell", "ell0", "eps0",
    }
    assert keys(planned["budget"], "stream_budget") == {
        "horizon", "real_valued", "partial_sum", "tail_bound", "eps_total", "divergent",
    }

    scheduled = result(["keystream-schedule", "--n0", "60000", "--ell0", "12000", "--rounds", "2"])
    assert keys(scheduled["rounds"][0]) == {
        "i", "n_i", "ell_i", "eps_i", "term_signal", "term_auth", "clamped",
    }

    composition = result(["verify-composition", "--example", "biased-otp", "--seed", "1"])
    assert keys(composition, "composition_report") == {
        "source", "application", "eps_source", "eps_app", "eps_bound", "mode", "trials",
        "all_within_bound", "rows",
    }
    assert keys(composition["rows"][0]) == {
        "name", "advantage_total", "half_width", "advantage_source_step", "advantage_app_step",
        "telescope_residual", "within_bound",
    }
    attack = result(["verify-composition", "--example", "attack-otp", "--n", "2", "--seed", "1"])
    assert keys(attack["estimate"]) == {
        "advantage", "half_width", "accept_real", "accept_ideal", "mode", "trials",
    }

    outcome_keys = {"modulus_bits", "n", "e", "alice_bid", "bob_bid", "forgery_doubled", "winner"}
    assert keys(result(["rsa-demo", "--seed", "1"]), "auction_outcome") == outcome_keys
    sweep = result(["rsa-demo", "--auctions", "2", "--seed", "1"])
    assert keys(sweep, "auction_sweep") == {"outcomes", "bob_win_rate", "all_forgeries_doubled"}
    assert keys(sweep["outcomes"][0], "auction_outcome") == outcome_keys
