"""Command-line surface over the library.

Every command is a pure function of its arguments and input files; all
randomized commands take a mandatory --seed, and identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 validation or check
failure (witness on stderr), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import random
import sys

from .cdf import pointwise_sup, quantize, random_step_cdf
from .documents import VERSION, Document, parse_document, serialize_document
from .errors import ParseError, PmsError
from .extraction import converse_compactness_witness, extract_uniform_subsequence
from .levy import levy_distance
from .lipschitz import LipschitzMap, delta_embed, is_one_lipschitz, random_lipschitz_map, upper_envelope_extension
from .spaces import covering_net, gen_space
from .tnorms import (
    BUILTIN_STARS,
    BUILTIN_TNORMS,
    STAR_AXIOMS,
    TNORM_AXIOMS,
    check_triangle_axioms,
    random_triples,
    tnorm_axiom_failures,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load(path: str, kind: str, tnorm_override: str | None = None) -> Document:
    doc = parse_document(_read(path), tnorm_override)
    if doc.kind != kind:
        raise ParseError(f"{path}: expected a {kind} document, found {doc.kind}")
    return doc


def _emit(doc: Document, out: str | None) -> None:
    text = serialize_document(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(seed: int | None = None) -> dict:
    meta = {"version": VERSION}
    if seed is not None:
        meta["seed"] = seed
    return meta


def cmd_dl(args) -> int:
    F = _load(args.f, "cdf").payload
    G = _load(args.g, "cdf").payload
    print(f"{levy_distance(F, G):.10f}")
    return 0


def cmd_conv(args) -> int:
    star = BUILTIN_STARS[args.tnorm]
    F = _load(args.f, "cdf").payload
    G = _load(args.g, "cdf").payload
    _emit(Document("cdf", star(F, G), _meta()), args.out)
    return 0


def cmd_sup(args) -> int:
    family = [_load(path, "cdf").payload for path in args.files]
    _emit(Document("cdf", pointwise_sup(family), _meta()), args.out)
    return 0


def cmd_quantize(args) -> int:
    F = _load(args.f, "cdf").payload
    _emit(Document("cdf", quantize(F, args.delta), _meta()), args.out)
    return 0


def cmd_check_tnorm(args) -> int:
    failed = tnorm_axiom_failures(BUILTIN_TNORMS[args.name])
    for axiom in TNORM_AXIOMS:
        print(f"{axiom}: {'FAIL' if axiom in failed else 'ok'}")
    return 1 if failed else 0


def cmd_check_star(args) -> int:
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    star = BUILTIN_STARS[args.tnorm]
    rng = random.Random(args.seed)
    report = check_triangle_axioms(star, random_triples(rng, args.samples))
    for axiom in STAR_AXIOMS:
        print(f"{axiom}: {'ok' if getattr(report, axiom) else 'FAIL'}")
    if not report.all_ok:
        print(f"counterexamples: {sorted(report.counterexamples)}", file=sys.stderr)
        return 1
    return 0


def cmd_check_space(args) -> int:
    _load(args.space, "space", args.tnorm)  # parsing validates every axiom
    for axiom in ("identity", "symmetry", "triangle"):
        print(f"{axiom}: ok")
    return 0


def cmd_check_lip(args) -> int:
    space = _load(args.space, "space", args.tnorm).payload
    values = _load(args.map, "map").payload
    check = is_one_lipschitz(space, values)
    if check.ok:
        print("1-lipschitz: ok")
        return 0
    x, y, t = check.witness
    print(f"1-lipschitz: FAIL at pair ({x}, {y}), t={t}", file=sys.stderr)
    return 1


def cmd_extend(args) -> int:
    space = _load(args.space, "space").payload
    partial = _load(args.map, "map").payload
    extended = upper_envelope_extension(space, sorted(partial, key=space.index), partial)
    _emit(Document("map", extended.values, _meta()), args.out)
    return 0


def cmd_embed_delta(args) -> int:
    space = _load(args.space, "space").payload
    _emit(Document("map", delta_embed(space, args.point).values, _meta()), args.out)
    return 0


def cmd_net(args) -> int:
    space = _load(args.space, "space").payload
    for p in covering_net(space, args.t):
        print(p)
    return 0


def cmd_extract(args) -> int:
    space = _load(args.space, "space").payload
    seq = _load(args.maps, "map_sequence").payload
    maps = []
    for i, values in enumerate(seq):
        check = is_one_lipschitz(space, values)
        if not check.ok:
            print(f"maps[{i}] is not 1-lipschitz: witness {check.witness}", file=sys.stderr)
            return 1
        maps.append(LipschitzMap(space, values))
    report = extract_uniform_subsequence(space, maps, args.eps)
    payload = {
        "eps": report.eps,
        "selected": list(report.selected),
        "pairwise_dinf": report.pairwise_dinf,
        "lipschitz_ok": report.lipschitz_ok,
        "success": report.success,
        "limit": report.limit.values,
    }
    _emit(Document("report", payload, _meta()), args.out)
    if not report.success:
        print(f"extraction unsuccessful: pairwise_dinf={report.pairwise_dinf}", file=sys.stderr)
        return 1
    return 0


def cmd_converse(args) -> int:
    space = _load(args.space, "space").payload
    if args.points:
        walk = [p.strip() for p in args.points.split(",") if p.strip()]
    else:
        if args.seed is None:
            raise ParseError("converse needs --points or --seed with --steps")
        if args.steps < 1:
            raise ParseError(f"--steps must be at least 1, got {args.steps}")
        rng = random.Random(f"walk:{args.seed}")
        walk = [rng.choice(space.points) for _ in range(args.steps)]
    selected, cauchy_ok = converse_compactness_witness(space, walk, args.eps)
    payload = {
        "eps": args.eps,
        "selected": list(selected),
        "cauchy_ok": cauchy_ok,
        "walk": [str(p) for p in walk],
    }
    _emit(Document("report", payload, _meta(args.seed)), args.out)
    if not cauchy_ok:
        print("selected points are not mutually close", file=sys.stderr)
        return 1
    return 0


def cmd_gen_space(args) -> int:
    space = gen_space(args.seed, args.n, args.model, BUILTIN_STARS[args.tnorm])
    _emit(Document("space", space, _meta(args.seed)), args.out)
    return 0


def cmd_gen_cdf(args) -> int:
    rng = random.Random(f"cdf:{args.seed}")
    _emit(Document("cdf", random_step_cdf(rng, args.max_breaks), _meta(args.seed)), args.out)
    return 0


def cmd_gen_lip(args) -> int:
    space = _load(args.space, "space").payload
    rng = random.Random(f"lip:{args.seed}")
    f = random_lipschitz_map(space, rng)
    _emit(Document("map", f.values, _meta(args.seed)), args.out)
    return 0


def _add_tnorm(p: argparse.ArgumentParser, default: str | None = None) -> None:
    """``--tnorm``; with no default, a space document keeps its own t-norm."""
    shown = default or "the space document's"
    p.add_argument("--tnorm", choices=BUILTIN_STARS, default=default,
                   help=f"t-norm generating the triangle operation (default: {shown})")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the output document here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pms",
        description="exact computations with distribution-valued distances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dl", help="modified Levy distance between two cdf documents")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(handler=cmd_dl)

    p = sub.add_parser("conv", help="sup-convolution of two cdf documents")
    p.add_argument("f")
    p.add_argument("g")
    _add_tnorm(p, "min")
    _add_out(p)
    p.set_defaults(handler=cmd_conv)

    p = sub.add_parser("sup", help="pointwise supremum of cdf documents")
    p.add_argument("files", nargs="+")
    _add_out(p)
    p.set_defaults(handler=cmd_sup)

    p = sub.add_parser("quantize", help="snap a cdf onto the delta grid from below")
    p.add_argument("f")
    p.add_argument("--delta", type=float, required=True)
    _add_out(p)
    p.set_defaults(handler=cmd_quantize)

    p = sub.add_parser("check-tnorm", help="grid check of the t-norm axioms")
    p.add_argument("name", choices=BUILTIN_TNORMS)
    p.set_defaults(handler=cmd_check_tnorm)

    p = sub.add_parser("check-star", help="triangle-function axioms on seeded random triples")
    _add_tnorm(p, "min")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=cmd_check_star)

    p = sub.add_parser("check-space", help="validate a space document against the axioms")
    p.add_argument("space")
    _add_tnorm(p)
    p.set_defaults(handler=cmd_check_space)

    p = sub.add_parser("check-lip", help="certify a map document as 1-Lipschitz on a space")
    p.add_argument("space")
    p.add_argument("map")
    _add_tnorm(p)
    p.set_defaults(handler=cmd_check_lip)

    p = sub.add_parser("extend", help="1-Lipschitz envelope extension of a partial map")
    p.add_argument("space")
    p.add_argument("map")
    _add_out(p)
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("embed-delta", help="distance embedding of a point as a map document")
    p.add_argument("space")
    p.add_argument("point")
    _add_out(p)
    p.set_defaults(handler=cmd_embed_delta)

    p = sub.add_parser("net", help="greedy covering net at radius t")
    p.add_argument("space")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=cmd_net)

    p = sub.add_parser(
        "extract",
        help="clustered subsequence of a map sequence (useful input length "
        "grows like bucket-count ** point-count)",
    )
    p.add_argument("space")
    p.add_argument("maps")
    p.add_argument("--eps", type=float, required=True)
    _add_out(p)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("converse", help="metric clustering read off the distance embeddings")
    p.add_argument("space")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--points", help="comma-separated point walk")
    p.add_argument("--seed", type=int, help="seeded random walk instead of --points")
    p.add_argument("--steps", type=int, default=200)
    _add_out(p)
    p.set_defaults(handler=cmd_converse)

    p = sub.add_parser("gen", help="seeded generators")
    gsub = p.add_subparsers(dest="what", required=True)

    g = gsub.add_parser("space", help="random valid space")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--model", choices=["metric", "repair"], default="metric")
    _add_tnorm(g, "min")
    _add_out(g)
    g.set_defaults(handler=cmd_gen_space)

    g = gsub.add_parser("cdf", help="random step cdf")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--max-breaks", type=int, default=4)
    _add_out(g)
    g.set_defaults(handler=cmd_gen_cdf)

    g = gsub.add_parser("lip", help="random certified 1-Lipschitz map on a space")
    g.add_argument("space")
    g.add_argument("--seed", type=int, required=True)
    _add_out(g)
    g.set_defaults(handler=cmd_gen_lip)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input or --out path that cannot be opened
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except PmsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))
