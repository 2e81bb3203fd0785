"""Benchmark for cursed_auctions: four workloads through the public CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Each CLI run is a fresh child process and only one child runs at a time (a
closed loop with one client). With ``--trace 0`` the run measures the
end-to-end metrics: it starts a few set-up probes (children that only import
the CLI), then runs the workload until ``--seconds`` would be exceeded by one
more child, and reports medians. With ``--trace 1`` it runs the workload once
untraced and once with the tracer installed, and reports the per-layer
metrics. Every child's outputs are checked; the last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
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

import tracer
from workloads import WORKLOADS, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5  # the first only fills the bytecode cache and is not counted
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed program operation)."""


def _reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def spawn(out: Path, trace: bool, argv: list) -> dict:
    """Run child.py once and return its measurements plus ``setup_s``."""
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "child.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if trace else "0", *argv]
    with open(out / "child.stderr", "w+b") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {cmd}")
        if code != 0:
            err.seek(0)
            raise BenchError(f"child exited with {code}: {err.read().decode(errors='replace')[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_monotonic"] - started
    return result


def run_workload(name: str, seed: int, trace: bool, reference: dict) -> tuple:
    """One CLI run of workload ``name``: (child measurements, [(op, ok)])."""
    workload = WORKLOADS[name]
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = spawn(out, trace, workload.argv(out, seed))
        ops = [("exit_code", result["rc"] == 0)] + workload.check(out, reference, seed)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return result, ops


def setup_probes(count: int) -> list:
    probe = OUT / "setup_probe"
    try:
        return [spawn(probe, False, [])["setup_s"] for _ in range(count)]
    finally:
        shutil.rmtree(probe, ignore_errors=True)


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_state() -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


def provenance(name: str, seed: int, versions: dict) -> dict:
    return {
        "workload": name,
        "benchmark_seed": seed,
        "program_seed": program_seed(seed),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **versions,
        **git_state(),
    }


def measure(name: str, seed: int, seconds: float, reference: dict) -> tuple:
    """Untraced closed loop: (end-to-end samples per metric, ops, versions)."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + seconds
    setups = setup_probes(SETUP_PROBES)[1:]
    results, ops, last = [], [], 0.0
    while not results or time.monotonic() + last <= deadline:
        began = time.monotonic()
        result, child_ops = run_workload(name, program_seed(seed), False, reference)
        results.append(result)
        ops += child_ops
        last = time.monotonic() - began
    samples = {
        "wall_s": [r["wall_s"] for r in results],
        "work_per_s": [workload.work_units / r["wall_s"] for r in results],
        "setup_s": setups + [r["setup_s"] for r in results],
        "cpu_s": [r["cpu_s"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    return samples, ops, results[0]["versions"]


def measure_traced(name: str, seed: int, reference: dict) -> tuple:
    """One untraced and one traced run: (per-layer metrics, ops, versions, absent)."""
    setup_probes(1)
    plain, ops = run_workload(name, program_seed(seed), False, reference)
    traced, traced_ops = run_workload(name, program_seed(seed), True, reference)
    overhead = traced["wall_s"] - plain["wall_s"]
    layers = tracer.layer_metrics(traced["trace"], WORKLOADS[name].result_profiles, overhead)
    return layers, ops + traced_ops, traced["versions"], traced["trace"]["absent"]


def run_one(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    known = set(reference["known_failures"].get(name, []))
    if trace:
        values, ops, versions, absent = measure_traced(name, seed, reference)
        units = dict(tracer.LAYER_METRICS)
        for metric, value in values.items():
            print(f"{name} {metric} = {value:.6g} {units[metric]}")
        if absent:
            print(f"{name} absent from the program: {', '.join(absent)}")
    else:
        samples, ops, versions = measure(name, seed, seconds, reference)
        units = dict(END_TO_END)
        values = {}
        for metric, vals in samples.items():
            q1, med, q3 = quartiles(vals)
            values[metric] = med
            print(f"{name} {metric} = {med:.6g} {units[metric]} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
    failed = [op for op, ok in ops if not ok]
    ratio = len(failed) / len(ops)
    print(f"{name} ops_failed_ratio = {ratio:.6g} ({len(failed)} of {len(ops)} failed: {sorted(set(failed))})")
    unexpected = sorted(set(failed) - known)
    if unexpected:
        print(f"{name} unexpected failures: {unexpected}")
    prov = provenance(name, seed, versions)
    print(f"{name} provenance {json.dumps(prov, sort_keys=True)}")
    if trace:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{name}.json", "w") as fh:
            json.dump({"provenance": prov, "metrics": values, "absent": absent}, fh, indent=2, sort_keys=True)
    return {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reference = _reference()
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace), reference) for n in names}
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
