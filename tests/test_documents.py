"""Document parsing, canonical serialization, and round-trip stability."""

import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pmspace import (
    Document,
    gen_space,
    heaviside,
    parse_document,
    random_lipschitz_map,
    random_step_cdf,
    serialize_document,
)
from pmspace import documents
from pmspace.documents import VERSION
from pmspace.errors import DomainMismatch, ParseError, PmsError, SymmetryViolation, ValidationError
from pmspace.spaces import make_space
from pmspace.tnorms import BUILTIN_STARS

from oracles import entrywise_space_matrix
from strategies import cdfs


class TestParse:
    def test_cdf_minimal(self):
        doc = parse_document('{"kind":"cdf","points":[[0,1]]}')
        assert doc.kind == "cdf" and doc.payload == heaviside(0)
        assert doc.meta["version"] == VERSION

    def test_cdf_canonicalized_on_load(self):
        doc = parse_document('{"kind":"cdf","points":[[1,0.5],[0.5,0.2]]}')
        assert doc.payload.breaks == ((0.5, 0.2), (1.0, 0.5))

    def test_invalid_json_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_document('{"kind":"cdf",')
        assert err.value.position is not None

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_document('{"kind":"zebra"}')

    @pytest.mark.parametrize("points", ["[[true,1]]", "[[0,false]]", "[[0.5,0.5],[1,true]]"])
    def test_boolean_coordinates_rejected(self, points):
        # JSON booleans load as Python bools, a subclass of int
        with pytest.raises(ParseError):
            parse_document('{"kind":"cdf","points":%s}' % points)

    @pytest.mark.parametrize(
        "field", ['"eps":true', '"pairwise_dinf":false', '"selected":[true,false]', '"selected":[0,true]']
    )
    def test_boolean_report_numbers_rejected(self, field):
        with pytest.raises(ParseError):
            parse_document('{"kind":"report",%s}' % field)

    @pytest.mark.parametrize("field", ["eps", "pairwise_dinf"])
    def test_report_number_past_the_float_range_rejected(self, field):
        # float() of a 400-digit int raises OverflowError, which is no PmsError
        with pytest.raises(ParseError):
            parse_document('{"kind":"report","%s":1%s}' % (field, "0" * 400))

    def test_invalid_cdf_values_rejected(self):
        with pytest.raises(ValidationError):
            parse_document('{"kind":"cdf","points":[[1,2.0]]}')

    def test_asymmetric_space_rejected(self):
        body = {
            "kind": "space",
            "points": ["a", "b"],
            "tnorm": "min",
            "dist": [[[[0, 1]], [[1, 1]]], [[[2, 1]], [[0, 1]]]],
        }
        with pytest.raises(SymmetryViolation):
            parse_document(json.dumps(body))

    def test_space_roundtrips_through_validation(self):
        sp = gen_space(4, 4, "metric")
        text = serialize_document(Document("space", sp, {"version": VERSION}))
        doc = parse_document(text)
        assert doc.payload.points == sp.points
        assert doc.payload.matrix == sp.matrix
        assert doc.payload.star is sp.star


class TestSerialize:
    def test_zero_function_serializes_empty(self):
        text = serialize_document(Document("cdf", random_step_cdf(random.Random(0), 0), {"version": VERSION}))
        assert json.loads(text)["points"] == []

    def test_sorted_keys_and_newline(self):
        text = serialize_document(Document("cdf", heaviside(1), {"version": VERSION}))
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_custom_star_not_serializable(self):
        from pmspace import star_from_tnorm, custom_tnorm

        T = custom_tnorm("mine", min)
        sp = gen_space(1, 2, "metric", star_from_tnorm(T))
        with pytest.raises(ValidationError):
            serialize_document(Document("space", sp, {"version": VERSION}))

    def test_report_embeds_fields(self):
        payload = {
            "eps": 0.05,
            "selected": [0, 2, 5],
            "pairwise_dinf": 0.01,
            "lipschitz_ok": True,
            "success": True,
            "limit": {"p0": heaviside(1)},
        }
        text = serialize_document(Document("report", payload, {"version": VERSION}))
        back = parse_document(text)
        assert back.payload == payload


class TestRoundTrip:
    @given(cdfs())
    def test_cdf_documents(self, F):
        doc = Document("cdf", F, {"version": VERSION})
        text = serialize_document(doc)
        assert parse_document(text) == doc
        assert serialize_document(parse_document(text)) == text

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_generated_documents(self, seed):
        rng = random.Random(seed)
        kind = rng.choice(["cdf", "map", "space", "map_sequence"])
        if kind == "cdf":
            payload = random_step_cdf(rng, grid=rng.random() < 0.5)
        elif kind == "space":
            payload = gen_space(seed, rng.randint(1, 4), "metric")
        elif kind == "map":
            sp = gen_space(seed, rng.randint(1, 4), "metric")
            payload = random_lipschitz_map(sp, rng).values
        else:
            sp = gen_space(seed, rng.randint(1, 3), "metric")
            payload = [random_lipschitz_map(sp, rng).values for _ in range(3)]
        doc = Document(kind, payload, {"version": VERSION, "seed": seed})
        text = serialize_document(doc)
        assert serialize_document(parse_document(text)) == text


def space_text(*args):
    return serialize_document(Document("space", gen_space(*args), {"version": VERSION}))


def outcome(read, text):
    """The re-serialized document, or the type and text of the error."""
    try:
        return serialize_document(read(text))
    except PmsError as exc:
        return type(exc), str(exc)


def entrywise_read(text):
    obj = json.loads(text)
    star = BUILTIN_STARS[obj["tnorm"]]
    return Document("space", make_space(obj["points"], entrywise_space_matrix(obj["dist"]), star), obj["meta"])


def edit_entry(entry, kind):
    """A copy of a dist entry with one kind of edit applied; an entry that
    an earlier edit left malformed starts over from the zero function."""
    if not isinstance(entry, list) or not all(isinstance(p, list) and len(p) == 2 for p in entry):
        entry = []
    entry = [list(p) for p in entry]
    if kind == "bool":  # True == 1 and False == 0, but a bool is no number
        if entry:
            entry[0][1] = True
        else:
            entry.append([False, 1.0])
    elif kind in ("+0", "-0"):  # a new first jump at a signed zero
        entry.insert(0, [0.0 if kind == "+0" else -0.0, entry[0][1] / 2 if entry else 0.5])
    elif kind == "int":  # 1 == 1.0, and both parse to the same cdf
        entry = [[int(c) if c == int(c) else c for c in p] for p in entry]
    elif kind == "lower":
        entry = [[t, v / 2] for t, v in entry]
    elif kind == "pair":
        entry.append(1.0)
    else:  # a non-list entry
        return {"str": "x", "num": 1}[kind]
    return entry


ENTRY_EDITS = ["int", "+0", "-0", "lower", "bool", "pair", "str", "num"]


@st.composite
def edited_space_texts(draw):
    n = draw(st.integers(2, 4))
    star = draw(st.sampled_from(sorted(BUILTIN_STARS)))
    obj = json.loads(space_text(draw(st.integers(0, 50)), n, draw(st.sampled_from(["metric", "repair"])),
                                BUILTIN_STARS[star]))
    dist = obj["dist"]
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        # the mirror gets the same edit, the other signed zero, another, or none
        kind = draw(st.sampled_from(ENTRY_EDITS))
        flip = {"+0": "-0", "-0": "+0"}.get(kind, kind)
        mirror = draw(st.one_of(st.just(kind), st.just(flip), st.sampled_from(ENTRY_EDITS + [None])))
        dist[i][j] = edit_entry(dist[i][j], kind)
        if mirror is not None and i != j:
            dist[j][i] = edit_entry(dist[j][i], mirror)
    if draw(st.integers(0, 3)) == 0:  # a ragged row
        i = draw(st.integers(0, n - 1))
        del dist[i][draw(st.integers(0, n - 1)):]
    return json.dumps(obj)


class TestMirroredEntries:
    """A space document stores both halves of its matrix; mirrored entries
    written alike share one cdf, and every document reads as the entrywise
    reader of tests/oracles.py reads it."""

    def test_true_against_one_in_the_upper_half(self):
        body = {"kind": "space", "points": ["a", "b"], "dist": [[[[0, 1]], [[1, 1]]], [[[1, True]], [[0, 1]]]]}
        with pytest.raises(ParseError, match=r"^dist\[1\]\[0\]: expected a list of \[breakpoint, value\] pairs$"):
            parse_document(json.dumps(body))

    def test_signed_zero_halves_reserialize(self):
        # -0.0 == 0.0, yet each half keeps its own sign
        text = (
            '{"dist":[[[[0.0,1.0]],[[0.0,0.5],[1.0,1.0]]],[[[-0.0,0.5],[1.0,1.0]],[[0.0,1.0]]]],'
            '"kind":"space","meta":{"version":"%s"},"points":["a","b"],"tnorm":"min"}\n' % VERSION
        )
        assert serialize_document(parse_document(text)) == text

    @pytest.mark.parametrize("row", [0, 2], ids=["upper", "lower"])
    def test_ragged_row(self, row):
        obj = json.loads(space_text(0, 3))
        obj["dist"][row].pop()
        with pytest.raises(DomainMismatch, match=r"^distance matrix must be 3x3$"):
            parse_document(json.dumps(obj))

    @pytest.mark.parametrize("star", BUILTIN_STARS.values(), ids=list(BUILTIN_STARS))
    def test_mirrored_entries_parse_once(self, monkeypatch, star):
        text = space_text(3, 10, "repair", star)
        calls = []
        real = documents.make_step_cdf

        def counted(points):
            calls.append(1)
            return real(points)

        monkeypatch.setattr(documents, "make_step_cdf", counted)
        m = parse_document(text).payload.matrix
        assert len(calls) == 55  # 100 entry by entry
        assert all(m[i][j] is m[j][i] for i in range(10) for j in range(10))

    @settings(max_examples=300, deadline=None)
    @given(edited_space_texts())
    def test_edited_documents_read_as_entrywise(self, text):
        assert outcome(parse_document, text) == outcome(entrywise_read, text)
