#!/usr/bin/env python3
"""Benchmark of fracoc: seeded workloads, oracle checks, end-to-end and per-layer metrics.

Run from the repository root; fracoc is imported from ``src/`` of the
same checkout, on one thread:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, summary table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the generated ops, pass times, failures and the
environment.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, measured with no wrapper installed: ``wall_s`` is the
median pass time and ``setup_s`` the median of three set-ups, both scaled
by ``reference_seconds``, and ``peak_rss_mb`` the peak memory.  With ``--trace 1``
they are the per-layer ones: half the time is measured untraced in this
process, half in a separate traced process whose spans are written to
``.bench_out/``.  Per-layer counts and times are per pass.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3     # set-ups per untraced run; setup_s is their median
MIN_PASSES = 3        # untraced passes per run, even past --seconds
CHILD_TIMEOUT_S = 170
REFERENCE_S = 0.05    # nominal time of one reference_seconds() kernel


def reference_seconds() -> float:
    """Time of a fixed kernel: long and short numpy vector ops, then a per-node loop.

    On a shared two-vCPU virtual machine the host speed was measured to
    shift by up to 1.8x for seconds at a time, which no median within one
    run can hide.  Op times are therefore reported scaled to this kernel's
    nominal speed, t * REFERENCE_S / k, with k the kernel time measured
    right beside the op; the raw times go in the info line.  The kernel uses no fracoc code, so a change to
    fracoc cannot move it.
    """
    import math
    import numpy as np
    x = np.linspace(-2.0, 2.0, 16384)
    column = x[:, None]
    weights = x[1:40, None]
    state = np.zeros(1)
    start = time.perf_counter()
    acc = 0.0
    for i in range(300):  # memory sums over windows of up to 16k doubles
        k = 1 + (7919 * i) % 16000
        acc += float((column[1:k] * (column[k - 1:0:-1] - column[0])).sum())
    for i in range(1000):
        j = i % 2048
        acc += float((x[j:j + 2048] * 1.0001 - x[:2048]) @ x[1000:3048]) + math.sin(i)
    for i in range(3000):  # per-node style: tiny arrays, shape checks
        y = np.asarray(-0.5 * np.tanh(state) + math.cos(1e-3 * i), dtype=float).reshape(-1)
        acc += float(np.max(np.abs(y - state)))
        state = 0.5 * y + 1e-3 * (weights * state).sum(axis=0)
    return time.perf_counter() - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sweep, march, invariant, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "traced"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: str, seed: int, tracer_install: bool = False):
    """Import, generate inputs and warm the weights; returns (workload, tracer, s)."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import fracoc
    if not Path(fracoc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fracoc imported from {fracoc.__file__}, not from {SRC}")
    tracer = None
    if tracer_install:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    from workloads import Workload
    tmpdir = OUT_DIR / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(workload, seed, str(tmpdir))
    if tracer is not None and "problem" in wl.data:
        problem, groups, solution = wl.data["problem"]
        wl.data["problem"] = (problem, tracer.wrap_groups(groups), solution)
    raw = time.perf_counter() - start
    speed = statistics.median(reference_seconds() for _ in range(5))
    return wl, tracer, raw * REFERENCE_S / speed


def measure(wl, seconds: float, min_passes: int, tracer=None) -> dict:
    """Run passes until the next one would overrun ``seconds``.

    Each op's time is scaled by the mean of the reference kernel times taken
    just before and just after it; ``pass_s`` holds the scaled pass times,
    ``raw_pass_s`` the unscaled ones.
    """
    pass_s, raw_pass_s, failures, attempted = [], [], [], 0
    began = time.perf_counter()
    last = 0.0
    while len(pass_s) < min_passes or time.perf_counter() - began + last <= seconds:
        t_pass = time.perf_counter()
        raw = scaled = 0.0
        ref_before = reference_seconds()
        for op in wl.ops:
            if tracer is not None:
                tracer.op = f"{len(pass_s)}/{op['id']}"
            start = time.perf_counter()
            try:
                out, failure = wl.run(op), None
            except Exception as exc:  # an op that raises counts as failed
                out = None
                failure = "".join(traceback.format_exception_only(exc)).strip()
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            ref_after = reference_seconds()
            raw += elapsed
            scaled += elapsed * REFERENCE_S / (0.5 * (ref_before + ref_after))
            ref_before = ref_after
            if failure is None:
                failure = wl.check(op, out)
            attempted += 1
            if failure:
                msg = f"pass {len(pass_s)} op {op['id']}: {failure}"
                failures.append(msg)
                print(msg, file=sys.stderr)
        raw_pass_s.append(raw)
        pass_s.append(scaled)
        last = time.perf_counter() - t_pass
    return {"pass_s": pass_s, "raw_pass_s": raw_pass_s, "attempted": attempted,
            "failures": failures}


def environment() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def child(role: str, args, seconds: float) -> list[str]:
    """Run this script in a fresh process; returns its stdout lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return proc.stdout.splitlines()


def emit(info: dict, attempted: int, failures: list, metrics: dict) -> None:
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def run_untraced(args, spec) -> None:
    wl, _, first = setup(args.workload, args.seed)
    setup_samples = [first] + [float(child("setup", args, 0.0)[-1])
                               for _ in range(SETUP_SAMPLES - 1)]
    res = measure(wl, args.seconds, MIN_PASSES)
    values = {
        "wall_s": statistics.median(res["pass_s"]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": 0,
            "ops": wl.describe(), "passes": len(res["pass_s"]),
            "pass_s": res["pass_s"], "raw_pass_s": res["raw_pass_s"],
            "setup_samples_s": setup_samples,
            "failed_frac": len(res["failures"]) / res["attempted"],
            "failures": res["failures"], "env": environment()}
    if args.workload == "sweep":
        info["control_error"] = wl.control_error
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    emit(info, res["attempted"], res["failures"], metrics)


def run_traced_child(args) -> None:
    wl, tracer, _ = setup(args.workload, args.seed, tracer_install=True)
    res = measure(wl, args.seconds, 1, tracer)
    passes = len(res["pass_s"])
    values = tracer.layer_values(passes)
    if args.workload == "sweep":
        values["cli.csv_bytes"] = sum(os.path.getsize(op["out"]) for op in wl.ops
                                      if "out" in op)
        values["control_error"] = wl.control_error
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_file)
    print(json.dumps({"values": values, "absent": sorted(tracer.absent),
                      "pass_s": res["pass_s"], "raw_pass_s": res["raw_pass_s"],
                      "attempted": res["attempted"],
                      "failures": res["failures"], "spans_file": str(spans_file),
                      "spans": len(tracer.spans)}))


def run_traced(args, spec) -> None:
    wl, _, _ = setup(args.workload, args.seed)
    untraced = measure(wl, args.seconds / 2, 1)
    traced = json.loads(child("traced", args, args.seconds / 2)[-1])
    values = traced["values"]
    base = statistics.median(untraced["pass_s"])
    values["trace.overhead_frac"] = statistics.median(traced["pass_s"]) / base - 1.0
    not_measured = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec["per_layer"]}
    failures = untraced["failures"] + traced["failures"]
    info = {"workload": args.workload, "seed": args.seed, "trace": 1,
            "ops": wl.describe(), "untraced_pass_s": untraced["pass_s"],
            "traced_pass_s": traced["pass_s"],
            "traced_raw_pass_s": traced["raw_pass_s"], "not_measured": not_measured,
            "absent_sites": traced["absent"], "spans": traced["spans"],
            "spans_file": traced["spans_file"], "failures": failures,
            "env": environment()}
    emit(info, untraced["attempted"] + traced["attempted"], failures, metrics)


def run_all(args, spec) -> None:
    """Each workload untraced in its own process, then one summary table."""
    failed, attempted, metrics = 0, 0, {}
    for w in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", repr(args.seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=3 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {w} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        row = dict(result["metrics"])
        row["failed_frac"] = {"value": info["failed_frac"], "unit": "1"}
        if "control_error" in info:
            row["control_error"] = {"value": info["control_error"], "unit": "1"}
        print(f"{w:10s} " + "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                                      for k, v in row.items()))
        metrics.update({f"{w}.{k}": v for k, v in row.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    OUT_DIR.mkdir(exist_ok=True)
    if args.role == "setup":
        _, _, secs = setup(args.workload, args.seed)
        print(repr(secs))
    elif args.role == "traced":
        run_traced_child(args)
    elif args.workload == "all":
        run_all(args, spec)
    elif args.trace:
        run_traced(args, spec)
    else:
        run_untraced(args, spec)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        shutil.rmtree(OUT_DIR / f"tmp-{os.getpid()}", ignore_errors=True)
    sys.exit(code)
