"""The pmspace benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload space-build --seed 1 --seconds 20 --trace 0

One process acts as one closed-loop caller: it starts the next operation
when the previous one has returned, with no threads (the ``cli`` workload
runs one child process at a time).  The run measures whole rounds until at
least ``--seconds`` of operation time and MIN_OPS operations have passed,
and checks every output against ``reference/<workload>.json`` after each
round, outside the timed region.

Times are reported at a reference interpreter speed.  The host this was
built on runs the same code up to 45% slower for tens of seconds at a time,
which no amount of in-run averaging removes.  So after each operation the
run times ``probe``, a fixed pure-Python loop that is not library code, and
scales the operation's time by PROBE_REFERENCE_S over the median probe time
of the ops around it.  A slower library still reads slower; a slower host
mostly does not.  The human-readable lines also give the raw wall times.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the run first measures a quarter of the time untraced, replays
the same operations with every public library function wrapped in a span,
and reports the per-layer metrics and the tracing overhead; the spans go to
``perfbench/out/``.  Either way the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import HERE, SRC, WORKLOADS, load_library, load_reference, matches

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_REPEATS = 3
OUT = HERE / "out"

PROBE_LOOP = 20_000
PROBE_REFERENCE_S = 0.0013  # probe() on the build host in its fast state
PROBE_WINDOW = 10  # ops on each side whose probes set an op's speed


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the interpreter's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


def probe_scale(repeats: int = 9) -> float:
    return PROBE_REFERENCE_S / statistics.median(probe() for _ in range(repeats))


def check(op, out, reference: dict) -> bool:
    want = reference.get(op.key)
    try:
        if want is not None and matches(op.observe(out), want, op.tol):
            return True
    except Exception:  # a malformed output fails its check
        traceback.print_exc()
    print(f"output mismatch: {op.key}", file=sys.stderr)
    return False


def run_phase(rounds, seconds: float, min_ops: int, reference: dict, tracer=None, keep=False) -> dict:
    """Run whole rounds until both limits are reached.  Each op is followed
    by a probe; outputs are checked after each round.  Neither is timed.
    With ``keep`` the rounds run are returned for replay; otherwise they are
    dropped, so memory does not grow with the number of ops."""
    raw, kinds, probes, done = [], [], [], []
    failed = 0
    clock = time.perf_counter
    for ops in rounds:
        results = []
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(raw)
            t0 = clock()
            try:
                out, good = op.run(), True
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                out, good = None, False
            raw.append(clock() - t0)
            kinds.append(op.kind)
            probes.append(probe())
            results.append((op, out, good))
        if tracer is not None:
            tracer.current_op = -1  # spans made by the checks belong to no op
        for op, out, good in results:
            if not (good and check(op, out, reference)):
                failed += 1
        done.append(ops if keep else None)
        if sum(raw) >= seconds and len(raw) >= min_ops:
            break
    n = len(raw)
    scale = [PROBE_REFERENCE_S / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
             for i in range(n)]
    lat = [raw[i] * scale[i] for i in range(n)]
    return {
        "lat": lat,
        "raw": raw,
        "busy": sum(lat),
        "raw_busy": sum(raw),
        "scale": statistics.median(scale),
        "kinds": kinds, "rounds": done, "attempted": n, "failed": failed,
    }


def peak_rss_mb(workload: str) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":  # the work runs in the children
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cli_start_ms(env: dict, workdir: Path, repeats: int = 5) -> float:
    """Median wall time of a ``pms`` invocation that does no work."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "pmspace", "--help"], cwd=workdir, env=env,
                       capture_output=True, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pmspace" / "__init__.py").is_file():
        print(f"error: no pmspace sources under {SRC}", file=sys.stderr)
        return 2
    # one core for the run and its children, so the probe times the core the work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # import from bytecode, as an installed package does, whatever the
    # environment says: the first set-up writes it, the others read it
    sys.dont_write_bytecode = False
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.name)
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    try:
        setup_raw, setup = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lib = load_library()
            state = workload.setup(lib, args.seed, workdir)
            setup_raw.append(time.perf_counter() - t0)
            setup.append(setup_raw[-1] * probe_scale())
        rounds = workload.rounds(state, random.Random(f"{workload.name}:{args.seed}"))
        if args.trace:
            return traced(args, workload, lib, state, rounds, reference, workdir)
        run = run_phase(rounds, args.seconds, MIN_OPS, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat_ms = sorted(x * 1000 for x in run["lat"])
    raw_ms = sorted(x * 1000 for x in run["raw"])
    metrics = {
        "ops_per_s": metric(run["attempted"] / run["busy"], "1/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb(workload.name), "MB"),
    }
    wall = {
        "ops_per_s": run["attempted"] / run["raw_busy"],
        "op_p50_ms": statistics.median(raw_ms),
        "op_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
        "setup_s": statistics.median(setup_raw),
    }
    n = len(lat_ms)
    print(f"workload={workload.name} seed={args.seed} trace=0 rounds={len(run['rounds'])} "
          f"ops={run['attempted']} wall_s={run['raw_busy']:.3f} speed_scale={run['scale']:.3f}")
    for name, m in metrics.items():
        line = f"  {name:<12} {m['value']:12.4f} {m['unit']:<4}"
        if name in wall:
            line += f"  raw {wall[name]:10.4f}"
        if name in ("op_p50_ms", "op_p90_ms"):
            beyond = sum(1 for x in lat_ms if x > m["value"])
            line += f"  (n={n} samples, {beyond} beyond)"
        elif name == "setup_s":
            line += f"  (median of {SETUP_REPEATS})"
        print(line)
    print(f"  {'failed_ratio':<12} {run['failed'] / run['attempted']:12.4f} 1     "
          f"({run['failed']} of {run['attempted']})")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def traced(args, workload, lib, state, rounds, reference, workdir) -> int:
    from tracer import Tracer

    plain = run_phase(rounds, args.seconds / 4, 1, reference, keep=True)
    tracer = Tracer()
    if workload.name == "cli":
        state.tracer = tracer  # each child installs its own tracer
        start_ms = cli_start_ms(state.env, workdir) * probe_scale()
    else:
        tracer.install(lib)
        start_ms = 0.0
    traced_run = run_phase(iter(plain["rounds"]), math.inf, 1, reference, tracer)
    tracer.merge_pending()
    layers = tracer.layer_metrics(traced_run["attempted"], traced_run["kinds"], traced_run["scale"])
    layers["cli.start_ms"] = start_ms
    layers["trace.overhead_pct"] = (traced_run["busy"] / plain["busy"] - 1.0) * 100.0
    spans_file = OUT / f"spans-{workload.name}.jsonl.gz"
    tracer.dump(spans_file, {"workload": workload.name, "seed": args.seed})

    units = {"calls": "count/op", "self_ms": "ms/op", "pair_work": "count/op", "in_breaks": "count/op",
             "bytes_in": "B/op", "bytes_out": "B/op", "start_ms": "ms", "overhead_pct": "%"}
    metrics = {k: metric(v, units.get(k.rsplit(".", 1)[1], "1")) for k, v in sorted(layers.items())}
    attempted = plain["attempted"] + traced_run["attempted"]
    failed = plain["failed"] + traced_run["failed"]
    print(f"workload={workload.name} seed={args.seed} trace=1 ops={traced_run['attempted']} "
          f"untraced_s={plain['busy']:.3f} traced_s={traced_run['busy']:.3f} "
          f"spans={len(tracer.arrays['name'])} -> {spans_file.relative_to(HERE.parent)}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
