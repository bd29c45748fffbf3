"""Re-measure the ROADMAP item-1 table of single-call costs.

    python3 perfbench/ladder.py

Each row is the median raw wall time of REPEATS runs in this process (the
``pms`` row times a child process).  Inputs come from fixed seeds.  The
first and last lines give the host's speed scale (run.py's probe; 1.0 is
the reference speed, lower is a slower host).
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

from run import probe_scale
from workloads import SRC, load_library, uniform_points

REPEATS = 5


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def main() -> None:
    print(f"host speed scale: {probe_scale():.3f}")
    lib = load_library()
    rng = random.Random("ladder")
    pairs = [(lib.cdf.random_step_cdf(rng, 8), lib.cdf.random_step_cdf(rng, 8)) for _ in range(500)]
    ms = median_ms(lambda: [lib.levy.levy_distance(F, G) for F, G in pairs])
    print(f"levy_distance, <=8 breaks: {ms / 500:.3f} ms per pair (500 pairs: {ms:.0f} ms)")

    for m in (14, 50, 120):
        F, G = (lib.cdf.make_step_cdf(uniform_points(rng, m)) for _ in range(2))
        ms = median_ms(lambda: lib.tnorms.sup_convolution(lib.tnorms.MINIMUM, F, G))
        print(f"sup_convolution (min), {m} breaks per side: {ms:.1f} ms")

    for n in (8, 16, 24):
        sp = lib.spaces.gen_space(0, n, "metric")
        ms = median_ms(lambda: lib.spaces.validate_space_matrix(sp.points, sp.matrix, sp.star))
        print(f"validate_space_matrix, metric n = {n}: {ms:.1f} ms")

    for n in (6, 10):
        ms = median_ms(lambda: lib.spaces.gen_space(0, n, "repair"))
        print(f"gen_space repair, n = {n}: {ms:.1f} ms")

    sp = lib.spaces.gen_space(0, 6, "repair")
    ms = median_ms(lambda: [lib.lipschitz.random_lipschitz_map(sp, random.Random(k)) for k in range(200)])
    print(f"200 x random_lipschitz_map, n = 6: {ms:.0f} ms")

    env = {"PYTHONPATH": str(SRC), "PATH": ""}
    cmd = [sys.executable, "-m", "pmspace", "gen", "space", "--seed", "0", "--n", "40"]
    ms = median_ms(lambda: subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=120))
    print(f"pms gen space --n 40, wall clock: {ms / 1000:.2f} s")
    print(f"host speed scale: {probe_scale():.3f}")


if __name__ == "__main__":
    main()
