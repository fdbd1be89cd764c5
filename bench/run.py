"""Seeded end-to-end benchmark of the barjanet CLI.

    python3 bench/run.py --workload terms-check --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

Each run starts a fresh single-threaded worker process (worker.py) that
imports barjanet from src/, writes the workload's seeded inputs and runs
whole passes over them through barjanet.cli.main. Set-up is repeated in
SETUP_RUNS - 1 more processes that stop after set-up, and setup_s is the
median. The first pass's outputs are then checked here against the
definitional checker (checker.py), which never calls barjanet. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from tracing.py. Results and traces are kept under
bench/runs/.

Every time is reported at the reference speed: the measured wall time,
times REFERENCE_S, divided by the mean time of the worker's reference
routine in the same pass (or right after the same set-up). The machine's
speed drifts by tens of percent between runs, and this takes it out. The
raw wall times are printed too, and kept in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
DEFAULT_SEED = 1
WORKER_GRACE_S = 120
# the reference routine's usual time per call on the machine the bounds
# were set on (a 2-vCPU Xeon virtual machine, Python 3.11)
REFERENCE_S = 0.003


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def start_worker(run_dir, workload, seed, scale, seconds, trace, setup_only):
    """Run worker.py to its end; (its JSON, set-up seconds at the reference
    speed, set-up wall seconds from process start)."""
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--root", str(ROOT),
        "--run-dir", str(run_dir),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=seconds + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the worker for {workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker for {workload} failed:\n{proc.stderr.strip()}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # worker's reading and ours share an origin.
    wall = doc["ready"] - started
    return doc, wall * speed(doc["setup_reference"]), wall


def speed(reference):
    """Factor from wall time to time at the reference speed, given the
    (seconds, calls) of reference runs."""
    seconds, calls = reference
    return REFERENCE_S * calls / seconds


def failed_command(command, code, raised):
    """A command fails when it raises or exits with an error code; the
    malformed points file is expected to exit 1."""
    name, _, kind = command
    if kind == "parse-error":
        expected = (1,)
    else:
        expected = (0, 3) if name == "check-complete" else (0,)
    return raised is not None or code not in expected


def check_outputs(run_dir, doc):
    """Check every command of the first pass; a list of problems. Bases
    are checked first, so that each escalier can be compared with the one
    the basis of the same points implies."""
    inputs, out = run_dir / "inputs", run_dir / "out"
    first = doc["passes"][0]
    escaliers = {}
    problems = []
    order = sorted(range(len(doc["commands"])), key=lambda i: doc["commands"][i][2] == "escalier")
    for index in order:
        command = doc["commands"][index]
        name, path, kind = command
        code, raised = first["code"][index], first["raised"][index]
        if failed_command(command, code, raised):
            continue
        source = (inputs / path).read_text(encoding="utf-8")
        out_path = out / f"{index:03d}.txt"
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        try:
            if kind == "terms":
                checker.check_term_command(name, source, text, code)
            elif kind == "basis":
                escaliers[path] = checker.check_basis(source, text, code)
            elif kind == "escalier":
                checker.check_escalier(source, text, code, escaliers.get(path))
            else:
                checker.check_parse_error(text, doc["stderr"][index], code)
        except checker.CheckError as exc:
            problems.append(f"{name} {path}: {exc}")
    for number, record in enumerate(doc["passes"][1:], 2):
        for index, same in enumerate(record["same"]):
            outcome = (record["code"][index], record["raised"][index])
            if not same or outcome != (first["code"][index], first["raised"][index]):
                problems.append(f"pass {number}: {doc['commands'][index]} differs from pass 1")
    return problems


def end_to_end(doc, setups):
    passes = doc["passes"]
    latencies = [x * speed(p["reference"]) for p in passes for x in p["latency"]]
    return {
        "pass_s": (statistics.median(pass_times(passes)), "s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024, "MB"),
    }


def pass_times(passes):
    return [sum(p["latency"]) * speed(p["reference"]) for p in passes]


def per_layer(doc, problems):
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    metrics = {}
    for name in tracing.TIME_NAMES:
        values = [p["self_time"].get(name, 0.0) * speed(p["reference"]) for p in traced]
        metrics[f"{name}_s"] = (statistics.median(values), "s")
    for name in tracing.COUNT_NAMES:
        values = {p["counts"].get(name, 0) for p in traced}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced passes: {sorted(values)}")
        metrics[name] = (min(values), "count")
    overhead = statistics.median(pass_times(traced)) - statistics.median(pass_times(plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Run one workload; (result dict, human-readable lines)."""
    if not (ROOT / "src" / "barjanet" / "__init__.py").is_file():
        raise BenchError(f"no barjanet sources under {ROOT / 'src'}")
    run_dir = BENCH / "runs" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        setups, setup_walls = [], []
        for k in range(SETUP_RUNS):
            last = k == SETUP_RUNS - 1
            doc, setup, wall = start_worker(
                run_dir if last else run_dir / f"setup{k}",
                workload, seed, scale, seconds if last else 0, trace if last else 0, not last,
            )
            setups.append(setup)
            setup_walls.append(wall)
        problems = check_outputs(run_dir, doc)
    finally:
        # inputs and outputs can be made again from the seed; keep only
        # the result file written below
        for target in run_dir.iterdir():
            if target.is_dir():
                shutil.rmtree(target)
            else:
                target.unlink()

    commands = doc["commands"]
    failed = sum(
        failed_command(c, p["code"][i], p["raised"][i])
        for p in doc["passes"]
        for i, c in enumerate(commands)
    )
    attempted = len(commands) * len(doc["passes"])
    metrics = per_layer(doc, problems) if trace else end_to_end(doc, setups)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines = [
        f"workload {workload}, seed {seed}, {len(doc['passes'])} passes of "
        f"{len(commands)} commands, trace {trace}",
    ]
    lines += [f"  {name} = {v:.6g} {u}" for name, (v, u) in metrics.items()]
    walls = [x for p in doc["passes"] for x in p["latency"]]
    if not trace:
        lines += [
            "  wall times, before scaling to the reference speed:",
            f"    pass_s {statistics.median(sum(p['latency']) for p in doc['passes']):.6g} s,"
            f" latency_p50_ms {1000 * statistics.median(walls):.6g} ms,"
            f" setup_s {statistics.median(setup_walls):.6g} s",
            f"    machine speed {statistics.median(speed(p['reference']) for p in doc['passes']):.4g}"
            " of the reference",
        ]
        if len(walls) >= 100:
            p90 = statistics.quantiles(walls, n=10)[-1]
            lines.append(f"    latency_p90_ms {1000 * p90:.6g} ms ({len(walls)} samples)")
    lines += [f"  problem: {p}" for p in problems]
    record = dict(
        result, workload=workload, seed=seed, seconds=seconds, setups=setups, setup_walls=setup_walls
    )
    (run_dir / "result.json").write_text(json.dumps(dict(record, passes=doc["passes"])))
    return result, lines


def self_test():
    """Checker tests, then every workload at the tiny scale, untraced and
    traced; exit code 0 when all pass."""
    import test_checker

    ok = True
    for name in sorted(dir(test_checker)):
        if name.startswith("test_"):
            try:
                getattr(test_checker, name)()
                print(f"ok   checker {name}")
            except AssertionError as exc:
                ok = False
                print(f"FAIL checker {name}: {exc}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = run_workload(workload, DEFAULT_SEED, 0, trace, scale="tiny")
            per_pass = 1 if workload == "points-basis" else 0
            passes = 2 if trace else 1
            good = result["correct"] and result["failed"] == per_pass * passes
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace {trace}")
            if not good:
                print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description="Seeded benchmark of the barjanet CLI.")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            p.error("--workload is required")
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
