"""Run the benchmark on several seeds and check its steadiness.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--compare FILE]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
each end-to-end metric's median, quartiles and spread: the distance between
the first and third quartile as a share of the median.  A spread within the
metric's bound in BENCHMARK.json is ``ok``; within a third of it, ``steady``.
``setup_s`` is exempt from the spread rule.  With ``--compare``, each median
is also checked against the medians of an earlier results file: it may be
worse by at most the bound.  Results go to ``perfbench/out/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--compare", type=Path, help="earlier spread-*.json to compare medians with")
    args = ap.parse_args()

    results: dict[str, dict[str, list[float]]] = {}
    for wl in args.workloads.split(","):
        results[wl] = {}
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            vals = {k: v["value"] for k, v in out["metrics"].items()}
            print(f"{wl} seed={seed} wall={wall:.1f}s correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in vals.items()), flush=True)
            for k, v in vals.items():
                results[wl].setdefault(k, []).append(v)

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    bad = 0
    print(f"\nseeds {args.seeds[0]}..{args.seeds[-1]} ({len(args.seeds)} runs per workload)")
    for wl, metrics in results.items():
        for m in bench["end_to_end"]:
            vals = metrics[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < m["bound"] / 3 else "ok" if spread <= m["bound"] else "OVER"
            if m["name"] == "setup_s":
                verdict += " (exempt)"
            elif verdict == "OVER":
                bad += 1
            line = (f"{wl:<13} {m['name']:<12} median={med:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
                    f"spread={spread:6.3f} bound={m['bound']} {verdict}")
            if earlier:
                before = statistics.median(earlier[wl][m["name"]])
                worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                line += f" vs-earlier={worse:+.3f}" + (" WORSE" if worse > m["bound"] else "")
                bad += worse > m["bound"]
            print(line)
    path = HERE / "out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results))
    print(f"results -> {path.relative_to(ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
