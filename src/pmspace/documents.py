"""Line-oriented JSON documents for cdfs, spaces, maps, map sequences, and
extraction reports.

One document per file, one JSON object per document, sorted keys, compact
separators, shortest round-trip float repr: serializing equal values is
byte-identical across runs, and parse(serialize(x)) reproduces x canonically.
All embedded step functions are canonicalized on load and spaces are
re-validated against the axioms.

A space document stores both halves of its symmetric matrix.  The reader
parses ``dist[i][j]`` for j < i only when it differs from ``dist[j][i]``,
number type and sign of zero included; otherwise the mirrored entries
share one cdf, which validation's symmetry check passes by identity.
Halves that differ are both parsed, and validation decides as before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import copysign
from typing import Any

from .cdf import StepCdf, make_step_cdf
from .errors import ParseError, ValidationError
from .spaces import ProbMetricSpace, make_space
from .tnorms import BUILTIN_STARS, BUILTIN_TNORMS

VERSION = "0.1.0"
KINDS = ("cdf", "space", "map", "map_sequence", "report")


@dataclass(frozen=True)
class Document:
    kind: str
    payload: Any
    meta: dict


def _cdf_to_json(F: StepCdf) -> tuple:
    # the JSON encoder writes tuples as arrays
    return F.breaks


# exact types: JSON true/false load as bool, which is a subclass of int
_NUMBERS = (int, float)


def _cdf_from_json(obj, where: str) -> StepCdf:
    if type(obj) is list:
        for p in obj:
            if type(p) is not list or len(p) != 2 or type(p[0]) not in _NUMBERS or type(p[1]) not in _NUMBERS:
                break
        else:
            return make_step_cdf(obj)
    raise ParseError(f"{where}: expected a list of [breakpoint, value] pairs")


def _mirrors(entry, parsed) -> bool:
    """True when ``entry`` holds the numbers of ``parsed``, an entry that
    already parsed, type for type and sign for sign.  ``==`` alone is not
    enough: True == 1 would skip a ParseError, and -0.0 == 0.0 would change
    the re-serialized document."""
    if entry != parsed:
        return False
    for (t, v), (s, w) in zip(entry, parsed):
        if type(t) is not type(s) or type(v) is not type(w):
            return False
        if t == 0 and copysign(1.0, t) != copysign(1.0, s):
            return False
    return True


def _values_from_json(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object of point -> cdf points")
    return {str(k): _cdf_from_json(v, f"{where}[{k!r}]") for k, v in obj.items()}


def _values_to_json(values: dict) -> dict:
    return {str(k): _cdf_to_json(v) for k, v in values.items()}


def parse_document(text: str, tnorm_override: str | None = None) -> Document:
    """Parse and validate one document.  ``tnorm_override`` revalidates a
    space document under a different built-in operation."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    except ValueError as exc:  # an integer of more than 4300 digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    meta = dict(meta)
    meta.setdefault("version", VERSION)

    if kind == "cdf":
        payload: Any = _cdf_from_json(obj.get("points", None), "points")
    elif kind == "space":
        points = obj.get("points")
        if not isinstance(points, list) or not points:
            raise ParseError("space document needs a nonempty points list")
        name = tnorm_override or obj.get("tnorm", "min")
        if not isinstance(name, str) or name not in BUILTIN_STARS:
            raise ParseError(f"unknown t-norm {name!r}")
        dist = obj.get("dist")
        if not isinstance(dist, list):
            raise ParseError("space document needs a dist matrix")
        matrix = []
        for i, row in enumerate(dist):
            if not isinstance(row, list):
                raise ParseError(f"dist[{i}] is not a list")
            # an earlier row j parsed whole, so matrix[j] is as long as dist[j]
            matrix.append([
                matrix[j][i] if j < i < len(dist[j]) and _mirrors(entry, dist[j][i])
                else _cdf_from_json(entry, f"dist[{i}][{j}]")
                for j, entry in enumerate(row)
            ])
        payload = make_space([str(p) for p in points], matrix, BUILTIN_STARS[name])
    elif kind == "map":
        payload = _values_from_json(obj.get("values"), "values")
    elif kind == "map_sequence":
        seq = obj.get("maps")
        if not isinstance(seq, list):
            raise ParseError("map_sequence document needs a maps list")
        payload = [_values_from_json(m, f"maps[{i}]") for i, m in enumerate(seq)]
    else:  # report
        payload = _report_from_json(obj)
    return Document(kind, payload, meta)


def _report_from_json(obj: dict) -> dict:
    report: dict = {}
    for key in ("eps", "pairwise_dinf"):
        if key in obj:
            if type(obj[key]) not in _NUMBERS:
                raise ParseError(f"report field {key!r} must be a number")
            try:
                report[key] = float(obj[key])
            except OverflowError:  # an integer past the float range
                raise ParseError(f"report field {key!r} must be a number below 1e308") from None
    if "selected" in obj:
        sel = obj["selected"]
        if not isinstance(sel, list) or not all(type(i) is int for i in sel):  # not bool
            raise ParseError("report field 'selected' must be a list of integers")
        report["selected"] = list(sel)
    for key in ("lipschitz_ok", "success", "cauchy_ok"):
        if key in obj:
            if not isinstance(obj[key], bool):
                raise ParseError(f"report field {key!r} must be a boolean")
            report[key] = obj[key]
    if "walk" in obj:
        if not isinstance(obj["walk"], list):
            raise ParseError("report field 'walk' must be a list")
        report["walk"] = [str(p) for p in obj["walk"]]
    if "limit" in obj:
        report["limit"] = _values_from_json(obj["limit"], "limit")
    return report


def serialize_document(doc: Document) -> str:
    """Canonical text form; byte-identical across runs for equal values."""
    body: dict = {"kind": doc.kind, "meta": doc.meta}
    if doc.kind == "cdf":
        body["points"] = _cdf_to_json(doc.payload)
    elif doc.kind == "space":
        space: ProbMetricSpace = doc.payload
        name = next((k for k, T in BUILTIN_TNORMS.items() if T is space.star.tnorm), None)
        if name is None:
            raise ValidationError("only spaces over built-in t-norms are serializable")
        body["points"] = [str(p) for p in space.points]
        body["tnorm"] = name
        body["dist"] = [[_cdf_to_json(F) for F in row] for row in space.matrix]
    elif doc.kind == "map":
        body["values"] = _values_to_json(doc.payload)
    elif doc.kind == "map_sequence":
        body["maps"] = [_values_to_json(m) for m in doc.payload]
    elif doc.kind == "report":
        report = dict(doc.payload)
        if "limit" in report:
            report["limit"] = _values_to_json(report["limit"])
        body.update(report)
    else:
        raise ValidationError(f"unknown document kind {doc.kind!r}")
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
