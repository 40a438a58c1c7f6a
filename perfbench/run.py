"""bellsieve benchmark: one workload, one single-threaded process.

Usage, from the repository root:
    python3 perfbench/run.py --workload analyzer|scale|field --seed N \
        --seconds S --trace 0|1 [--smoke]

--trace 0 runs the workload's seeded op stream in-process for S seconds of
op time (whole rounds, after a tiny warm-up round) and reports the end-to-end
metrics, with op and set-up times scaled to a reference host speed
(hostspeed.py); the raw wall-clock figures are printed before the result.
--trace 1 runs a fixed number of rounds twice, untraced and then traced, and
reports the per-layer metrics; its counts repeat exactly for a seed.  --smoke runs one tiny round, for the benchmark's own test.  Every op
is checked outside its timed region; a wrong answer or an exception counts
as failed and never stops the run.  Human-readable lines go first; the last
stdout line is the JSON result.  The package is imported from ./src of the
checkout; without it the benchmark exits 2.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_RUNS = 11   # fresh interpreters per run; setup_s is their median
MAX_ERRORS_SHOWN = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("analyzer", "scale", "field"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="one tiny round, for self-tests")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def machine_info() -> dict:
    import numpy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def measure_setup(workload: str, seed: int, runs: int) -> dict:
    """Spawn fresh interpreters; time each from spawn to its ready line."""
    probe = os.path.join(HERE, "setup_probe.py")
    speed = HostSpeed()
    wall, numpy_s, bellsieve_s = [], [], []
    for _ in range(runs):
        speed.sample()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or not line:
                raise RuntimeError("setup probe failed")
        speed.sample()
        doc = json.loads(line)
        wall.append(t1 - t0)
        numpy_s.append(doc["import_numpy_s"])
        bellsieve_s.append(doc["import_bellsieve_s"])
    return {"setup_s": statistics.median(speed.scale_times(wall)),
            "setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_bellsieve_s": statistics.median(bellsieve_s)}


class Outcome:
    """Per-op times and failures of one pass over a list of ops."""

    def __init__(self) -> None:
        self.times = []
        self.failed = set()
        self.errors = []
        self.bytes_out = 0  # output bytes of the CLI ops

    def fail(self, index: int, exc: BaseException) -> None:
        self.failed.add(index)
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")


def run_ops(wl, ops, outcome: Outcome, start: int, tracer=None, speed=None) -> None:
    """Prepare each op, time it, then check it outside the timed region.

    What is alive when the list starts is frozen out of the garbage
    collector while it runs, so a full collection inside an op walks only
    that op's input and what the op allocated.  With `speed`, a host-speed
    sample is taken just before and just after each op.
    """
    gc.freeze()
    for i, op in enumerate(ops, start):
        op = wl.prepare(op)
        if speed:
            speed.sample()
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(i, wl.run, op) if tracer else wl.run(op)
        except (Exception, SystemExit) as exc:  # argparse exits on a bad argv
            result = None
            outcome.fail(i, exc)
        outcome.times.append(time.perf_counter() - t0)
        if speed:
            speed.sample()
        if result is None:
            continue
        if wl.CLI_OUTPUT:
            outcome.bytes_out += len(result[1].encode("utf-8"))
        try:
            wl.check(op, result)
        except Exception as exc:
            outcome.fail(i, exc)
        del op, result  # neither may raise the next op's memory peak
    gc.unfreeze()
    gc.collect()


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_run(wl, rng, args) -> tuple:
    outcome = Outcome()
    speed = HostSpeed()
    while True:
        run_ops(wl, wl.round(rng, args.smoke), outcome, len(outcome.times), speed=speed)
        if args.smoke or sum(outcome.times) >= args.seconds:
            break
    wall = outcome.times
    print(f"wall-clock: ops_per_s {len(wall) / sum(wall):.6g} 1/s, "
          f"op_ms.p50 {1e3 * statistics.median(wall):.6g} ms, "
          f"op_ms.p90 {1e3 * quantile(wall, 0.90):.6g} ms, "
          f"host slowdown {speed.slowdown():.4g}")
    times = speed.scale_times(wall)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (1e3 * statistics.median(times), "ms"),
        "op_ms.p90": (1e3 * quantile(times, 0.90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return outcome, metrics


def traced_run(wl, rng, args, machine) -> tuple:
    from spans import Tracer

    rounds = 1 if args.smoke else wl.TRACE_ROUNDS
    ops = [op for _ in range(rounds) for op in wl.round(rng, args.smoke)]
    plain, plain_speed = Outcome(), HostSpeed()
    run_ops(wl, ops, plain, 0, speed=plain_speed)
    tracer = Tracer()
    traced, traced_speed = Outcome(), HostSpeed()
    tracer.install()
    try:
        run_ops(wl, ops, traced, 0, tracer, traced_speed)
    finally:
        tracer.uninstall()
    # both passes scaled to the reference host, like the end-to-end times
    overhead = sum(traced_speed.scale_times(traced.times)) \
        - sum(plain_speed.scale_times(plain.times))
    traced.failed |= plain.failed
    traced.errors = plain.errors + traced.errors
    metrics = tracer.layer_metrics()
    run_calls = tracer.calls[tracer.names.index("optics.run_circuit")]
    metrics.update({
        "twophoton.terms_out": (tracer.terms_out, "count"),
        "analysis.runs_per_op": (run_calls / len(ops), "runs/op"),
        "cli.bytes_out": (traced.bytes_out, "B"),
        "trace.overhead_s": (overhead, "s"),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"{args.workload}.spans.npz"), machine)
    return traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy loads: its OpenBLAS must not use more threads than cores
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not os.path.isfile(os.path.join(SRC, "bellsieve", "__init__.py")):
        print(f"error: no bellsieve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bellsieve
    import workloads

    if os.path.dirname(os.path.abspath(bellsieve.__file__)) != os.path.join(SRC, "bellsieve"):
        print(f"error: bellsieve imported from {bellsieve.__file__}, not {SRC}", file=sys.stderr)
        return 2

    machine = machine_info()
    print("machine " + json.dumps(machine, sort_keys=True))
    setup = measure_setup(args.workload, args.seed, 1 if args.smoke else SETUP_RUNS)
    wl = workloads.WORKLOADS[args.workload]()
    # warm-up, not reported: the tiny round reaches every code path of the workload
    run_ops(wl, wl.round(random.Random(args.seed), smoke=True), Outcome(), 0)
    rng = random.Random(args.seed)

    if args.trace:
        outcome, metrics = traced_run(wl, rng, args, machine)
        metrics["setup.import_numpy_s"] = (setup["setup.import_numpy_s"], "s")
        metrics["setup.import_bellsieve_s"] = (setup["setup.import_bellsieve_s"], "s")
    else:
        outcome, metrics = timed_run(wl, rng, args)
        metrics["setup_s"] = (setup["setup_s"], "s")

    attempted, failed = len(outcome.times), len(outcome.failed)
    for err in outcome.errors:
        print("failed " + err, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, fail_frac {failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
