"""Record the expected output of every catalog case at the current commit.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json``, which ``run.py`` checks
every operation against.  Run it only on a commit whose outputs are known to
be right: the library's documents are byte-identical across versions, so a
reference stays valid until an output is meant to change.
"""

import json
import shutil
import sys
import time

from run import OUT
from workloads import HERE, WORKLOADS, load_library

if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        t0 = time.perf_counter()
        workdir = OUT / f"record-{name}"
        try:
            ref = {op.key: op.observe(op.run()) for op in WORKLOADS[name].cases(load_library(), workdir)}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        # distances repeat a lot: store each once and refer to it by index
        values = sorted({d for want in ref.values() for d in want.get("dist", [])})
        index = {d: i for i, d in enumerate(values)}
        for want in ref.values():
            if "dist" in want:
                want["dist"] = [index[d] for d in want["dist"]]
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"values": values, "cases": ref}, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"{name}: {len(ref)} cases in {time.perf_counter() - t0:.1f}s -> {path.name}")
