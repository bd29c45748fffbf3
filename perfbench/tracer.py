"""Span tracing of the pmspace library from outside it.

``Tracer.install`` wraps the public functions of each module of the
package.  A wrapper replaces every module attribute bound to the original
function, so calls through names bound by importers (``spaces.leq_witness``)
and through module globals (the ``tnorms.sup_convolution`` behind every
built-in ``star``) are traced too.  Spans stay in memory as flat arrays; a
span's parent is the innermost traced call open when it started, and its op
is the benchmark operation that caused it.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import statistics
import time
from array import array
from collections import defaultdict
from functools import wraps
from pathlib import Path

from workloads import MODULES, nbreaks

# Leaf functions called millions of times inside kernels: a span would cost
# more than their body, so they are only counted and their time stays in the
# caller's self time.
COUNT_ONLY = {"cdf.evaluate", "cdf.value_after", "cdf.approx_equal", "cdf.leq", "levy.condition_a"}


def _size_of(family) -> tuple[float, float]:
    if not isinstance(family, (list, tuple)):
        return 0.0, 0.0  # an iterator: reading it would consume the caller's input
    return float(sum(nbreaks(F) for F in family)), float(len(family))


# Per-span sizes (a, b) read from the arguments and the result.
SIZERS = {
    "tnorms.sup_convolution": lambda a, r: (nbreaks(a[1]) * nbreaks(a[2]), nbreaks(r)),
    "levy.levy_distance": lambda a, r: (nbreaks(a[0]) + nbreaks(a[1]), 0),
    "cdf.pointwise_sup": lambda a, r: _size_of(a[0]),
    "spaces.validate_space_matrix": lambda a, r: (len(a[0]), 0),
    "extraction.extract_uniform_subsequence": lambda a, r: (len(a[1]), len(r.selected)),
    "documents.parse_document": lambda a, r: (len(a[0]), 0),
    "documents.serialize_document": lambda a, r: (len(r), 0),
}

FIELDS = (("name", "i"), ("start", "q"), ("end", "q"), ("parent", "i"), ("op", "i"), ("a", "d"), ("b", "d"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.arrays = {f: array(code) for f, code in FIELDS}
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.current_op = -1
        self.pending: list = []  # (span file, op) written by traced child processes

    def _name_id(self, qual: str) -> int:
        if qual not in self.names:
            self.names.append(qual)
        return self.names.index(qual)

    def install(self, lib) -> None:
        """Wrap the public functions of ``lib``'s modules in place."""
        modules = {m: getattr(lib, m) for m in MODULES}
        targets = list(modules.values()) + [lib.pkg]
        for short, mod in modules.items():
            funcs = [
                (attr, fn)
                for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
            ]
            for attr, fn in funcs:
                qual = f"{short}.{attr}"
                wrapper = self._counter(qual, fn) if qual in COUNT_ONLY else self._span(qual, fn)
                for target in targets:
                    for name, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, name, wrapper)

    def _counter(self, qual, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, qual, fn):
        idx = self._name_id(qual)
        sizer = SIZERS.get(qual)
        arr = self.arrays
        names, starts, ends, parents, ops, sa, sb = (arr[f] for f, _ in FIELDS)
        stack = self.stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            sa.append(0.0)
            sb.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if sizer is not None:
                sa[i], sb[i] = sizer(args, result)
            return result

        return wrapper

    # -- persistence -------------------------------------------------------

    def to_json(self) -> dict:
        return {"names": self.names, "counts": dict(self.counts),
                "spans": {f: a.tolist() for f, a in self.arrays.items()}}

    def merge(self, data: dict, op: int) -> None:
        """Append another process's spans, all charged to benchmark op ``op``."""
        remap = [self._name_id(n) for n in data["names"]]
        base = len(self.arrays["name"])
        spans = data["spans"]
        self.arrays["name"].extend(remap[n] for n in spans["name"])
        self.arrays["start"].extend(spans["start"])
        self.arrays["end"].extend(spans["end"])
        self.arrays["parent"].extend(p + base if p >= 0 else -1 for p in spans["parent"])
        self.arrays["op"].extend(op for _ in spans["op"])
        self.arrays["a"].extend(spans["a"])
        self.arrays["b"].extend(spans["b"])
        for qual, n in data["counts"].items():
            self.counts[qual] += n

    def merge_pending(self) -> None:
        for path, op in self.pending:
            self.merge(json.loads(Path(path).read_text()), op)
            Path(path).unlink()
        self.pending.clear()

    def dump(self, path: Path, header: dict) -> None:
        """Write every span, one JSON array per line, after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = [self.arrays[f] for f, _ in FIELDS]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": self.names, "counts": dict(self.counts),
                                 "fields": [f for f, _ in FIELDS]}) + "\n")
            for row in zip(*cols):
                fh.write(json.dumps(row) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, n_ops: int, op_kinds: list[str], scale: float) -> dict[str, float]:
        """Per-layer metrics per benchmark op; times are multiplied by
        ``scale``, the run's speed correction (see run.py)."""
        arr = self.arrays
        n = len(arr["name"])
        dur = [arr["end"][i] - arr["start"][i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(arr["parent"]):
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, k in enumerate(arr["name"]):
            if arr["op"][i] >= 0:
                by_name[self.names[k]].append(i)

        def spans(q):
            return by_name.get(q, [])

        def calls(q):
            return self.counts[q] if q in COUNT_ONLY else len(spans(q))

        def self_ms(q):
            return sum(dur[i] - child[i] for i in spans(q)) / 1e6 * scale

        def total(q, field):
            return sum(arr[field][i] for i in spans(q))

        def ratio(x, y):
            return x / y if y else 0.0

        def slope(q, size):
            """Log-log slope of the median call duration against call size."""
            groups: dict[float, list[int]] = defaultdict(list)
            for i in spans(q):
                s = size(i)
                if s > 0 and dur[i] > 0:
                    groups[round(s, 6)].append(dur[i])
            if len(groups) < 2:
                return 0.0
            xs = [math.log(s) for s in groups]
            ys = [math.log(statistics.median(v)) for v in groups.values()]
            mx, my = statistics.fmean(xs), statistics.fmean(ys)
            sxx = sum((x - mx) ** 2 for x in xs)
            return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx

        per_op = 1.0 / max(n_ops, 1)
        m: dict[str, float] = {}
        for q in ("tnorms.sup_convolution", "levy.levy_distance", "levy.uniform_distance",
                  "cdf.leq_witness", "cdf.pointwise_sup", "cdf.quantize", "cdf.make_step_cdf",
                  "spaces.validate_space_matrix", "spaces.gen_space",
                  "lipschitz.upper_envelope_extension", "lipschitz.is_one_lipschitz",
                  "extraction.extract_uniform_subsequence", "extraction.select_cauchy_subsequence",
                  "documents.parse_document", "documents.serialize_document"):
            m[f"{q}.calls"] = calls(q) * per_op
            m[f"{q}.self_ms"] = self_ms(q) * per_op
        conv = "tnorms.sup_convolution"
        m[f"{conv}.pair_work"] = total(conv, "a") * per_op
        m[f"{conv}.out_ratio"] = ratio(total(conv, "b"), total(conv, "a"))
        m[f"{conv}.slope_m"] = slope(conv, lambda i: math.sqrt(arr["a"][i]))
        m["levy.levy_distance.slope_m"] = slope("levy.levy_distance", lambda i: arr["a"][i] / 2)
        m["levy.condition_a.calls"] = calls("levy.condition_a") * per_op
        m["levy.probes_per_distance"] = ratio(calls("levy.condition_a"), calls("levy.levy_distance"))
        m["levy.levy_to_h0.calls"] = calls("levy.levy_to_h0") * per_op
        sup = "cdf.pointwise_sup"
        m[f"{sup}.in_breaks"] = total(sup, "a") * per_op
        m[f"{sup}.slope_m"] = slope(sup, lambda i: ratio(arr["a"][i], arr["b"][i]))
        val = "spaces.validate_space_matrix"
        m[f"{val}.slope_n"] = slope(val, lambda i: arr["a"][i])
        val_id = self.names.index(val) if val in self.names else -1
        star_in_val = sum(1 for i in spans(conv) if arr["parent"][i] >= 0
                          and arr["name"][arr["parent"][i]] == val_id)
        m["spaces.star_per_validate"] = ratio(star_in_val, sum(arr["a"][i] ** 3 for i in spans(val)))
        ext = "extraction.extract_uniform_subsequence"
        m["extraction.kept_ratio"] = ratio(total(ext, "b"), total(ext, "a"))
        m["documents.parse_document.bytes_in"] = total("documents.parse_document", "a") * per_op
        m["documents.serialize_document.bytes_out"] = total("documents.serialize_document", "a") * per_op
        m["cli.run_command.self_ms"] = self_ms("cli.run_command") * per_op
        checks = {i for i, kind in enumerate(op_kinds) if kind == "check-space"}
        m["cli.validations_per_check_space"] = ratio(
            sum(1 for i in spans(val) if arr["op"][i] in checks), len(checks))
        return m
