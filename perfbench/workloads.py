"""Workload catalogs, set-up, operations and output checks.

Every input is one case of a fixed catalog and is generated from the case's
own index, so its expected output can be recorded once
(``record_reference.py``) and checked on every run.  The run seed chooses
which cases run and in what order; the library sees only the generated
inputs.

A workload yields rounds.  A round holds each operation type of the mix in
fixed proportion, so a run made of whole rounds does the same mix of work
whatever the seed, and the percentiles fall inside one operation type
instead of on the boundary between two.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

# The acceptance gate's bisection slack for one distance.  A distance may
# differ from the recorded one by this much either way, so an exact Levy
# search passes.  Distances printed by ``pms dl`` are rounded to 10 decimals,
# which adds 1e-10.
SLACK = 2e-10
PRINTED_SLACK = SLACK + 1e-10

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAUNCHER = HERE / "cli_launcher.py"


MODULES = ("cdf", "levy", "tnorms", "spaces", "lipschitz", "extraction", "documents", "cli")


def load_library() -> SimpleNamespace:
    """Import pmspace from the checkout's ``src``, executing its modules
    afresh even when an earlier set-up imported them."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pmspace" or n.startswith("pmspace.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pmspace")
    if Path(pkg.__file__).resolve().parent != SRC / "pmspace":
        raise ImportError(f"pmspace imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"pmspace.{m}") for m in MODULES})


@dataclass
class Op:
    kind: str  # operation type within the mix
    key: str  # catalog key of the recorded output
    run: Callable[[], Any]
    observe: Callable[[Any], dict]  # raw output -> {"exact": ..., "dist": [...]}
    tol: float = SLACK


def matches(seen: dict, want: dict, tol: float) -> bool:
    """Exact parts equal; distances equal within ``tol`` either way."""
    if seen.get("exact") != want.get("exact"):
        return False
    got, ref = seen.get("dist", []), want.get("dist", [])
    return len(got) == len(ref) and all(abs(a - b) <= tol for a, b in zip(got, ref))


def load_reference(workload: str) -> dict:
    """Expected outputs by catalog key, as written by record_reference.py."""
    data = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    values = data["values"]
    for want in data["cases"].values():
        if "dist" in want:
            want["dist"] = [values[i] for i in want["dist"]]
    return data["cases"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def nbreaks(F) -> int:
    # StepCdf stores its jumps as ``breaks`` pairs; a struct-of-arrays layout
    # would keep them as ``ts``/``vs``.
    breaks = getattr(F, "breaks", None)
    return len(breaks if breaks is not None else F.ts)


def doc_text(lib, kind: str, payload) -> str:
    return lib.documents.serialize_document(lib.documents.Document(kind, payload, {}))


def uniform_points(rng: random.Random, m: int) -> list[tuple[float, float]]:
    """m jumps at uniform-float breakpoints in (0, 3) with uniform values
    reaching at most 1; no two jumps are within the library's tolerance."""
    ts, t = [], 0.0
    for _ in range(m):
        t += rng.uniform(0.1, 1.9) * 1.5 / m
        ts.append(t)
    vs = sorted(rng.uniform(0.001, 1.0) for _ in range(m))
    for i in range(1, m):
        vs[i] = max(vs[i], vs[i - 1] + 1e-6)
    top = rng.uniform(0.6, 1.0) / vs[-1]
    return [(a, v * top) for a, v in zip(ts, vs)]


def _cycle(rng: random.Random, n: int):
    """Endless stream over range(n): each pass a fresh seeded permutation."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


# --------------------------------------------------------------------------
# space-build


class SpaceBuild:
    """Generate one space and round-trip it through the document layer."""

    name = "space-build"
    TYPES = [("repair", n, t) for n in (6, 8, 10) for t in ("min", "prod", "luka")] + [
        ("metric", 16, "min"),
        ("metric", 24, "min"),
    ]
    INSTANCES = 12

    def cases(self, lib, workdir: Path):
        for ty in self.TYPES:
            for j in range(self.INSTANCES):
                yield self.op(lib, ty, j)

    def setup(self, lib, seed: int, workdir: Path):
        return SimpleState(lib)

    def rounds(self, state, rng: random.Random):
        streams = {ty: _cycle(rng, self.INSTANCES) for ty in self.TYPES}
        while True:
            ops = [self.op(state.lib, ty, next(streams[ty])) for ty in self.TYPES]
            rng.shuffle(ops)
            yield ops

    def op(self, lib, ty, j: int) -> Op:
        model, n, tnorm = ty

        def run():
            space = lib.spaces.gen_space(j, n, model, lib.tnorms.BUILTIN_STARS[tnorm])
            text = lib.documents.serialize_document(lib.documents.Document("space", space, {}))
            return text, lib.documents.parse_document(text)

        def observe(out):
            text, doc = out
            return {"exact": [digest(text), doc_text(lib, "space", doc.payload) == text]}

        return Op(f"{model}-{n}", f"{model}/{n}/{tnorm}/{j}", run, observe)


@dataclass
class SimpleState:
    lib: Any
    data: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# kernels-long


class KernelsLong:
    """Lattice kernels on pairs of long uniform-float step functions."""

    name = "kernels-long"
    LADDER = (16, 32, 64, 128)
    INSTANCES = 8
    FAMILY = 8  # functions joined by pointwise_sup
    # The Levy distance both ways round, and leq_witness both ways: a full
    # scan that finds no witness and an early exit at the first witness.
    # With these nine kernels per m the median falls inside the m = 16
    # convolutions and the 90th percentile inside the m = 64 ones, not on a
    # boundary between two operation types.
    KINDS = ("conv-min", "conv-prod", "conv-luka", "levy", "levy-swapped", "sup",
             "quantize", "leq-none", "leq-witness")

    def inputs(self, lib, m: int, j: int) -> dict:
        rng = random.Random(f"kernels-long:{m}:{j}")
        pts = [uniform_points(rng, m) for _ in range(self.FAMILY)]
        family = [lib.cdf.make_step_cdf(p) for p in pts]
        # below F everywhere, with its own breakpoints: leq_witness scans the
        # whole union and finds no witness
        below = lib.cdf.make_step_cdf([(t * (1 + 1e-3) + 1e-3, 0.5 * v) for t, v in pts[0]])
        return {"F": family[0], "G": family[1], "family": family, "below": below}

    def cases(self, lib, workdir: Path):
        for m in self.LADDER:
            for j in range(self.INSTANCES):
                data = self.inputs(lib, m, j)
                for kind in self.KINDS:
                    yield self.op(lib, data, m, j, kind)

    def setup(self, lib, seed: int, workdir: Path):
        return SimpleState(lib, {(m, j): self.inputs(lib, m, j)
                                 for m in self.LADDER for j in range(self.INSTANCES)})

    def rounds(self, state, rng: random.Random):
        streams = {m: _cycle(rng, self.INSTANCES) for m in self.LADDER}
        while True:
            ops = []
            for m in self.LADDER:
                j = next(streams[m])
                ops += [self.op(state.lib, state.data[m, j], m, j, kind) for kind in self.KINDS]
            rng.shuffle(ops)
            yield ops

    def op(self, lib, data: dict, m: int, j: int, kind: str) -> Op:
        F, G = data["F"], data["G"]
        if kind.startswith("conv-"):
            T = lib.tnorms.BUILTIN_TNORMS[kind[5:]]
            run = lambda: lib.tnorms.sup_convolution(T, F, G)
        elif kind == "levy":
            run = lambda: lib.levy.levy_distance(F, G)
        elif kind == "levy-swapped":
            run = lambda: lib.levy.levy_distance(G, F)
        elif kind == "sup":
            run = lambda: lib.cdf.pointwise_sup(data["family"])
        elif kind == "quantize":
            run = lambda: lib.cdf.quantize(F, 0.01)
        elif kind == "leq-none":
            run = lambda: lib.cdf.leq_witness(data["below"], F)
        else:
            run = lambda: lib.cdf.leq_witness(F, data["below"])

        def observe(out):
            if kind.startswith("levy"):
                return {"exact": [], "dist": [out]}
            if kind.startswith("leq"):
                return {"exact": [repr(out)]}
            return {"exact": [digest(doc_text(lib, "cdf", out))]}

        return Op(f"{kind}-{m}", f"{m}/{j}/{kind}", run, observe)


# --------------------------------------------------------------------------
# map-cluster


class MapCluster:
    """Draw certified maps on one space; cluster the last WINDOW of them."""

    name = "map-cluster"
    SPACE = 0  # gen_space seed: clustering cost depends strongly on the space
    STREAM = 200  # maps, drawn cyclically; a run covers the stream three to five times
    WINDOW = 100
    DRAWS = 5  # draw operations per cluster operation
    EPS = (0.5, 0.2, 0.1, 0.05)

    def draw(self, state, k: int):
        return state.lib.lipschitz.random_lipschitz_map(state.space, random.Random(f"map-cluster:{k}"))

    def cases(self, lib, workdir: Path):
        state = MapState(lib, lib.spaces.gen_space(self.SPACE, 8, "repair"), 0)
        for k in range(self.STREAM):
            yield self.draw_op(state, k)  # the recorder runs it before the next
        for end in range(self.DRAWS - 1, self.STREAM, self.DRAWS):
            yield self.cluster_op(state, end)

    def setup(self, lib, seed: int, workdir: Path):
        start = self.DRAWS * random.Random(f"map-cluster:{seed}").randrange(self.STREAM // self.DRAWS)
        state = MapState(lib, lib.spaces.gen_space(self.SPACE, 8, "repair"), start)
        for k in range(start - self.WINDOW + self.DRAWS, start):
            state.maps[k % self.STREAM] = self.draw(state, k % self.STREAM)
        return state

    def rounds(self, state, rng: random.Random):
        k = state.start
        while True:
            ops = [self.draw_op(state, (k + i) % self.STREAM) for i in range(self.DRAWS)]
            ops.append(self.cluster_op(state, (k + self.DRAWS - 1) % self.STREAM))
            k += self.DRAWS
            yield ops

    def draw_op(self, state, k: int) -> Op:
        def run():
            state.maps[k] = self.draw(state, k)
            return state.maps[k]

        return Op("draw", f"draw/{k}", run,
                  lambda f: {"exact": [digest(doc_text(state.lib, "map", f.values))]})

    def cluster_op(self, state, end: int) -> Op:
        lib = state.lib
        eps = self.EPS[(end // self.DRAWS) % len(self.EPS)]

        def run():
            window = [state.maps[(end - self.WINDOW + 1 + i) % self.STREAM] for i in range(self.WINDOW)]
            report = lib.extraction.extract_uniform_subsequence(state.space, window, eps)
            dists = [lib.levy.uniform_distance(f, report.limit, state.space.points) for f in window]
            return report, dists

        def observe(out):
            report, dists = out
            exact = [list(report.selected), digest(doc_text(lib, "map", report.limit.values)),
                     report.lipschitz_ok, report.success]
            return {"exact": exact, "dist": [report.pairwise_dinf] + dists}

        return Op("cluster", f"cluster/{end}", run, observe)


@dataclass
class MapState:
    lib: Any
    space: Any
    start: int
    maps: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# cli


class Cli:
    """``pms`` subprocesses, one at a time, on documents made at set-up."""

    name = "cli"
    INSTANCES = 8
    PER_RUN = 4  # instances whose documents one run prepares
    SEQ = 30  # maps in the extract input

    def commands(self, j: int) -> list[tuple[str, list[str]]]:
        # The two check-space runs are the costliest fifth of a round, so the
        # 90th percentile falls inside them, not between two command types.
        return [
            ("gen-space-metric", ["gen", "space", "--seed", str(j), "--n", "24"]),
            ("gen-space-repair", ["gen", "space", "--seed", str(j), "--n", "8", "--model", "repair"]),
            ("gen-cdf", ["gen", "cdf", "--seed", str(j)]),
            ("check-space", ["check-space", "m24.pms"]),
            ("check-space", ["check-space", "m24.pms", "--tnorm", "prod"]),
            ("gen-lip", ["gen", "lip", "r8.pms", "--seed", str(j)]),
            ("check-lip", ["check-lip", "r8.pms", "f.map"]),
            ("extend", ["extend", "r8.pms", "p.map"]),
            ("extract", ["extract", "r8.pms", "s.seq", "--eps", "0.2"]),
            ("conv", ["conv", "f.cdf", "g.cdf", "--tnorm", ("min", "prod", "luka")[j % 3]]),
            ("dl", ["dl", "f.cdf", "g.cdf"]),
        ]

    def write_documents(self, lib, j: int, where: Path) -> None:
        where.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"cli:{j}")
        r8 = lib.spaces.gen_space(j, 8, "repair")
        anchors = r8.points[::3]
        docs = {
            "m24.pms": ("space", lib.spaces.gen_space(j, 24, "metric")),
            "r8.pms": ("space", r8),
            "f.map": ("map", lib.lipschitz.random_lipschitz_map(r8, rng).values),
            "p.map": ("map", {p: lib.cdf.random_step_cdf(rng, 3) for p in anchors}),
            "s.seq": ("map_sequence", [lib.lipschitz.random_lipschitz_map(r8, rng).values for _ in range(self.SEQ)]),
            "f.cdf": ("cdf", lib.cdf.make_step_cdf(uniform_points(rng, 16))),
            "g.cdf": ("cdf", lib.cdf.make_step_cdf(uniform_points(rng, 16))),
        }
        for name, (kind, payload) in docs.items():
            (where / name).write_text(doc_text(lib, kind, payload), encoding="utf-8")

    def cases(self, lib, workdir: Path):
        state = CliState(lib, workdir, [])
        for j in range(self.INSTANCES):
            self.write_documents(lib, j, workdir / str(j))
            for kind, argv in self.commands(j):
                yield self.op(state, j, kind, argv)

    def setup(self, lib, seed: int, workdir: Path):
        instances = random.Random(f"cli:{seed}").sample(range(self.INSTANCES), self.PER_RUN)
        for j in instances:
            self.write_documents(lib, j, workdir / str(j))
        return CliState(lib, workdir, instances)

    def rounds(self, state, rng: random.Random):
        r = 0
        while True:
            j = state.instances[r % len(state.instances)]
            ops = [self.op(state, j, kind, argv) for kind, argv in self.commands(j)]
            rng.shuffle(ops)
            r += 1
            yield ops

    def op(self, state, j: int, kind: str, argv: list[str]) -> Op:
        def run():
            tracer = state.tracer
            if tracer is None:
                cmd = [sys.executable, "-m", "pmspace", *argv]
            else:
                spans = state.workdir / f"spans-{tracer.current_op}.json"
                tracer.pending.append((spans, tracer.current_op))
                cmd = [sys.executable, str(LAUNCHER), str(spans), str(tracer.current_op), *argv]
            proc = subprocess.run(cmd, cwd=state.workdir / str(j), env=state.env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout

        def observe(out):
            rc, stdout = out
            if kind == "dl":
                return {"exact": [rc], "dist": [float(stdout)]}
            if kind == "extract":
                report = json.loads(stdout)
                dinf = report.pop("pairwise_dinf")
                return {"exact": [rc, digest(json.dumps(report, sort_keys=True))], "dist": [dinf]}
            return {"exact": [rc, digest(stdout)]}

        return Op(kind, f"{j}/{' '.join(argv)}", run, observe, PRINTED_SLACK if kind == "dl" else SLACK)


@dataclass
class CliState:
    lib: Any
    workdir: Path
    instances: list
    tracer: Any = None
    env: dict = field(default_factory=lambda: dict(os.environ, PYTHONPATH=str(SRC)))


WORKLOADS = {w.name: w for w in (SpaceBuild(), MapCluster(), KernelsLong(), Cli())}
