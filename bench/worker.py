"""One workload in one fresh process; started by run.py, not by hand.

Set-up imports barjanet from the checkout's src/ and writes the seeded
input files. Then one warm-up command runs, and whole passes over the
workload's commands run until --seconds have gone by. Every command goes
through barjanet.cli.main in-process and writes its output with --output,
so parsing, computing, formatting and writing are all timed. Garbage is
collected before each command, outside the timed region. Outputs of the
first pass are kept for run.py to check; each later pass's outputs are
compared byte for byte with them. With --trace 1, untraced and traced
passes alternate. The result is one JSON line on stdout.

The machine's speed drifts by tens of percent over seconds to minutes, in
the same way for all code. So a fixed reference routine is timed after set-up
and after every command, outside the timed region, for at least
REFERENCE_SHARE of the command's time. run.py divides the measured times by
the reference times of the same pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

REFERENCE_SHARE = 0.05
SETUP_REFERENCE_CALLS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", required=True, choices=("full", "tiny"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def reference():
    """A fixed mix of the interpreter work the workloads do: tuple slicing
    and comparison, set and dict traffic, sorting, string formatting and
    Fraction arithmetic. It never changes with the program under test."""
    terms = [(i * 7919 % 13, i * 104729 % 11, i * 1299709 % 7, i % 5) for i in range(600)]
    groups = {}
    for t in terms:
        groups.setdefault(t[1:], []).append(t[0])
    ordered = sorted(set(terms), key=lambda t: t[::-1])
    text = "\n".join("*".join(f"x{i}^{e}" for i, e in enumerate(t, 1) if e) for t in ordered)
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 3)
    return len(text) + len(groups) + acc.numerator


def time_reference(least_seconds, least_calls=1):
    """(seconds, calls) of reference() run until both minimums are met."""
    calls, start = 0, time.perf_counter()
    while True:
        reference()
        calls += 1
        spent = time.perf_counter() - start
        if calls >= least_calls and spent >= least_seconds:
            return spent, calls


def run_command(cli, command, inputs, out_path):
    """(seconds, exit code or None, exception name or None, stderr text,
    (reference seconds, reference calls) timed after the command)."""
    if out_path.exists():
        out_path.unlink()
    argv = [command.command, str(inputs / command.path), "--output", str(out_path)]
    err = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code, raised = cli.main(argv), None
        except Exception as exc:  # an uncaught error is the command's outcome
            code, raised = None, type(exc).__name__
        elapsed = time.perf_counter() - start
    reference_time = time_reference(REFERENCE_SHARE * elapsed)
    return elapsed, code, raised, err.getvalue(), reference_time


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    import barjanet
    import barjanet.cli

    import workloads

    run_dir = Path(args.run_dir)
    inputs = run_dir / "inputs"
    files, commands = workloads.build(args.workload, args.seed, args.scale)
    inputs.mkdir(parents=True)
    for name, text in files.items():
        (inputs / name).write_text(text, encoding="utf-8")
    ready = time.perf_counter()
    setup_reference = time_reference(0, SETUP_REFERENCE_CALLS)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_reference": setup_reference}))
        return 0

    first, again = run_dir / "out", run_dir / "again"
    first.mkdir()
    again.mkdir()
    run_command(barjanet.cli, commands[0], inputs, run_dir / "warmup.txt")

    tracer = None
    passes = []
    stderr_first = []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        if traced:
            import tracing

            tracer = tracing.install(barjanet)
        record = {
            "traced": traced,
            "latency": [],
            "code": [],
            "raised": [],
            "same": [],
            "reference": [0.0, 0],
        }
        for index, command in enumerate(commands):
            out = (first if not passes else again) / f"{index:03d}.txt"
            elapsed, code, raised, err, (spent, calls) = run_command(
                barjanet.cli, command, inputs, out
            )
            record["latency"].append(elapsed)
            record["reference"][0] += spent
            record["reference"][1] += calls
            record["code"].append(code)
            record["raised"].append(raised)
            if not passes:
                stderr_first.append(err)
            else:
                kept = first / out.name
                same = out.exists() == kept.exists() and (
                    not out.exists() or out.read_bytes() == kept.read_bytes()
                )
                record["same"].append(same)
        if tracer is not None:
            record["self_time"] = dict(tracer.self_time)
            record["counts"] = dict(tracer.counts)
            tracer.restore()
            tracer = None
        passes.append(record)
        done = time.perf_counter() - start >= args.seconds
        if done and (args.trace == 0 or len(passes) % 2 == 0):
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "ready": ready,
                "setup_reference": setup_reference,
                "commands": [[c.command, c.path, c.kind] for c in commands],
                "passes": passes,
                "stderr": stderr_first,
                "peak_rss_kb": peak_kb,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
