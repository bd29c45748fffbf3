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
from pmspace.documents import VERSION
from pmspace.errors import ParseError, SymmetryViolation, ValidationError

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
