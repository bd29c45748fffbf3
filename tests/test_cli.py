"""Command surface: dispatch, exit codes, determinism."""

import contextlib
import io
import json
import random
import shlex
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from pmspace import (
    BUILTIN_STARS,
    BUILTIN_TNORMS,
    Document,
    gen_space,
    make_step_cdf,
    parse_document,
    quantize,
    random_lipschitz_map,
    serialize_document,
)
from pmspace.cli import _build_parser, run_command
from pmspace.errors import PmsError

from strategies import cdfs, shifted_copies, window_cdfs


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "s.pms"
    assert run_command(["gen", "space", "--seed", "42", "--n", "5", "--out", str(path)]) == 0
    return str(path)


class TestBasicCommands:
    def test_dl_prints_ten_decimals(self, capsys, tmp_path):
        f, g = tmp_path / "f.cdf", tmp_path / "g.cdf"
        f.write_text('{"kind":"cdf","points":[[0,1]]}')
        g.write_text('{"kind":"cdf","points":[[0.3,1]]}')
        code, out, _ = run(capsys, "dl", str(f), str(g))
        assert code == 0
        assert out.strip() == "0.3000000000"

    def test_conv_heaviside_addition(self, capsys, tmp_path):
        f, g = tmp_path / "f.cdf", tmp_path / "g.cdf"
        f.write_text('{"kind":"cdf","points":[[1,1]]}')
        g.write_text('{"kind":"cdf","points":[[2,1]]}')
        code, out, _ = run(capsys, "conv", str(f), str(g), "--tnorm", "min")
        assert code == 0
        assert parse_document(out).payload.breaks == ((3.0, 1.0),)

    def test_sup_and_quantize(self, capsys, tmp_path):
        f, g = tmp_path / "f.cdf", tmp_path / "g.cdf"
        f.write_text('{"kind":"cdf","points":[[0,0.5]]}')
        g.write_text('{"kind":"cdf","points":[[1,1]]}')
        code, out, _ = run(capsys, "sup", str(f), str(g))
        assert code == 0 and parse_document(out).payload.breaks == ((0.0, 0.5), (1.0, 1.0))
        code, out, _ = run(capsys, "quantize", str(f), "--delta", "0.5")
        assert code == 0 and parse_document(out).payload.breaks == ((0.0, 0.5),)

    def test_check_tnorm(self, capsys):
        code, out, _ = run(capsys, "check-tnorm", "luka")
        assert code == 0 and "associativity: ok" in out

    def test_check_star(self, capsys):
        code, out, _ = run(capsys, "check-star", "--tnorm", "prod", "--samples", "40", "--seed", "1")
        assert code == 0 and out.count("ok") == 5

    def test_check_space_and_net(self, capsys, space_file):
        code, out, _ = run(capsys, "check-space", space_file)
        assert code == 0 and out.count("ok") == 3
        code, out, _ = run(capsys, "net", space_file, "--t", "2.5")
        assert code == 0 and len(out.split()) >= 1

    def test_check_space_validates_once(self, capsys, space_file, monkeypatch):
        import pmspace.cli as cli
        import pmspace.spaces as spaces

        calls = []
        validate = spaces.validate_space_matrix

        def counted(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(spaces, "validate_space_matrix", counted)
        # also any name the command module binds for itself
        monkeypatch.setattr(cli, "validate_space_matrix", counted, raising=False)
        code, out, _ = run(capsys, "check-space", space_file)
        assert code == 0 and out == "identity: ok\nsymmetry: ok\ntriangle: ok\n"
        assert len(calls) == 1


    @pytest.mark.parametrize("tnorm", ["prod", "luka"])
    def test_space_commands_read_the_document_tnorm(self, capsys, tmp_path, tnorm):
        # without --tnorm a space keeps the t-norm its document names; these
        # repair spaces fail the triangle inequality under min
        s, m = str(tmp_path / "s.pms"), str(tmp_path / "m.map")
        gen = ["gen", "space", "--seed", "0", "--n", "6", "--model", "repair", "--tnorm", tnorm, "--out", s]
        assert run_command(gen) == 0
        assert run(capsys, "check-space", s, "--tnorm", "min")[0] == 1
        assert run(capsys, "check-space", s)[0] == 0
        assert run(capsys, "gen", "lip", s, "--seed", "1", "--out", m)[0] == 0
        for argv in (
            ["check-lip", s, m],
            ["extend", s, m],
            ["embed-delta", s, "p0"],
            ["net", s, "--t", "0.5"],
            ["converse", s, "--points", "p0,p1", "--eps", "0.5"],
        ):
            assert run(capsys, *argv)[0] == 0, argv


class TestLipschitzCommands:
    def test_gen_check_extend_cycle(self, capsys, tmp_path, space_file):
        m = tmp_path / "f.map"
        assert run_command(["gen", "lip", space_file, "--seed", "5", "--out", str(m)]) == 0
        code, out, _ = run(capsys, "check-lip", space_file, str(m))
        assert code == 0 and "ok" in out
        code, out, _ = run(capsys, "extend", space_file, str(m))
        assert code == 0
        extended = parse_document(out).payload
        original = parse_document(m.read_text()).payload
        assert extended == original  # already 1-Lipschitz: envelope restricts exactly

    def test_check_lip_failure_exits_one(self, capsys, tmp_path, space_file):
        sp = parse_document(open(space_file).read()).payload
        bad = {
            "kind": "map",
            "values": {p: [[0, 1]] if p != "p0" else [[20, 1]] for p in sp.points},
        }
        m = tmp_path / "bad.map"
        import json

        m.write_text(json.dumps(bad))
        code, _, err = run(capsys, "check-lip", space_file, str(m))
        assert code == 1 and "FAIL" in err

    def test_value_outside_the_space_exits_one(self, capsys, tmp_path, space_file):
        m = tmp_path / "f.map"
        assert run_command(["gen", "lip", space_file, "--seed", "5", "--out", str(m)]) == 0
        doc = json.loads(m.read_text())
        doc["values"]["z"] = [[0, 1]]
        m.write_text(json.dumps(doc))
        seq = tmp_path / "maps.seq"
        seq.write_text(json.dumps({"kind": "map_sequence", "maps": [doc["values"]]}))
        for argv in (["check-lip", space_file, str(m)], ["extend", space_file, str(m)],
                     ["extract", space_file, str(seq), "--eps", "0.1"]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", "UnknownPoint: point 'z' is not in the space\n"), argv

    def test_embed_delta(self, capsys, space_file):
        code, out, _ = run(capsys, "embed-delta", space_file, "p0")
        assert code == 0
        values = parse_document(out).payload
        assert values["p0"].breaks == ((0.0, 1.0),)


def map_sequence_file(tmp_path, space_file, count):
    from pmspace import Document, serialize_document
    from pmspace.documents import VERSION

    maps = []
    for seed in range(count):
        m = tmp_path / f"m{seed}.map"
        assert run_command(["gen", "lip", space_file, "--seed", str(seed), "--out", str(m)]) == 0
        maps.append(parse_document(m.read_text()).payload)
    seq = tmp_path / "maps.seq"
    seq.write_text(serialize_document(Document("map_sequence", maps, {"version": VERSION})))
    return seq


class TestExtractionCommands:
    def test_extract_pipeline(self, capsys, tmp_path, space_file):
        seq = map_sequence_file(tmp_path, space_file, 25)
        out_path = tmp_path / "r.report"
        code = run_command(
            ["extract", space_file, str(seq), "--eps", "0.1", "--out", str(out_path)]
        )
        assert code == 0
        report = parse_document(out_path.read_text()).payload
        assert report["success"] and report["eps"] == 0.1
        assert report["selected"] == sorted(report["selected"])

    def test_extract_eps_beyond_the_float_horizon(self, capsys, tmp_path, space_file):
        # eps/4 squared underflows to 0, so the quantization grid has no horizon
        seq = map_sequence_file(tmp_path, space_file, 3)
        code, out, err = run(capsys, "extract", space_file, str(seq), "--eps", "1e-200")
        assert code == 1 and out == "" and "InvalidDelta" in err

    def test_converse_seeded_walk(self, capsys, space_file):
        code, out, _ = run(capsys, "converse", space_file, "--seed", "7", "--steps", "40", "--eps", "0.1")
        assert code == 0
        report = parse_document(out).payload
        assert report["cauchy_ok"] and len(report["walk"]) == 40

    def test_converse_explicit_points(self, capsys, space_file):
        code, out, _ = run(capsys, "converse", space_file, "--points", "p0,p0,p0", "--eps", "0.1")
        assert code == 0 and parse_document(out).payload["selected"] == [0, 1, 2]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_missing_file(self, capsys):
        assert run(capsys, "dl", "/nonexistent/a.cdf", "/nonexistent/b.cdf")[0] == 2

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.cdf"
        bad.write_text("{not json")
        assert run(capsys, "dl", str(bad), str(bad))[0] == 2

    def test_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pms"
        bad.write_text(
            '{"kind":"space","points":["a","b"],"tnorm":"min",'
            '"dist":[[[[0,1]],[[1,1]]],[[[2,1]],[[0,1]]]]}'
        )
        code, _, err = run(capsys, "check-space", str(bad))
        assert code == 1 and "Symmetry" in err

    def test_seed_required_for_generators(self, capsys):
        assert run(capsys, "gen", "cdf")[0] == 2

    @pytest.mark.parametrize("max_breaks", ["-1", "20"])
    def test_gen_cdf_break_count_out_of_range(self, capsys, max_breaks):
        for seed in ("1", "4", "5"):
            code, out, err = run(capsys, "gen", "cdf", "--seed", seed, "--max-breaks", max_breaks)
            assert code == 1 and out == ""
            assert "PreconditionViolated" in err and "Traceback" not in err

    @pytest.mark.parametrize("delta", ["1e-155", "1e-200"])
    def test_quantize_delta_beyond_the_float_horizon(self, capsys, tmp_path, delta):
        f = tmp_path / "f.cdf"
        f.write_text('{"kind":"cdf","points":[[0.5,0.5]]}')
        code, out, err = run(capsys, "quantize", str(f), "--delta", delta)
        assert code == 1 and out == "" and "InvalidDelta" in err

    def test_quantize_breakpoint_past_the_float_grid(self, capsys, tmp_path):
        f = tmp_path / "f.cdf"
        f.write_text('{"kind":"cdf","points":[[0.5,0.5],[1e200,1]]}')
        code, out, _ = run(capsys, "quantize", str(f), "--delta", "1e-150")
        assert code == 0 and parse_document(out).payload == quantize(make_step_cdf([(0.5, 0.5)]), 1e-150)

    @pytest.mark.parametrize("digits, code, error", [(400, 1, "NegativeBreakpoint"), (5000, 2, "parse error")])
    def test_integer_past_the_float_range(self, capsys, tmp_path, digits, code, error):
        # float() refuses an int past 1e308, and json int() one of more than 4300 digits
        f = tmp_path / "f.cdf"
        f.write_text('{"kind":"cdf","points":[[1' + "0" * digits + ",1]]}")
        got, out, err = run(capsys, "dl", str(f), str(f))
        assert got == code and out == "" and error in err

    def test_directory_as_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "dl", str(tmp_path), str(tmp_path))
        assert code == 2 and out == "" and err.count("\n") == 1 and str(tmp_path) in err

    def test_directory_as_out(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "cdf", "--seed", "1", "--out", str(tmp_path))
        assert code == 2 and out == "" and err.count("\n") == 1 and str(tmp_path) in err
        assert "cannot read input" not in err

    def test_input_not_utf8(self, capsys, tmp_path):
        f = tmp_path / "f.cdf"
        f.write_bytes(b'\xff{"kind":"cdf","points":[]}')
        code, out, err = run(capsys, "dl", str(f), str(f))
        assert code == 2 and out == "" and err.count("\n") == 1 and str(f) in err

    def test_nesting_past_the_recursion_limit(self, capsys, tmp_path):
        f = tmp_path / "f.cdf"
        f.write_text("[" * 100_000)
        code, out, err = run(capsys, "dl", str(f), str(f))
        assert code == 2 and out == "" and err == "parse error: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_check_star_needs_a_sample(self, capsys, samples):
        code, out, err = run(capsys, "check-star", "--seed", "1", "--samples", samples)
        assert code == 2 and out == "" and "--samples must be at least 1" in err

    @pytest.mark.parametrize("steps", ["-2", "0"])
    def test_converse_needs_a_step(self, capsys, tmp_path, steps):
        s = str(tmp_path / "s.pms")
        assert run_command(["gen", "space", "--seed", "1", "--n", "3", "--out", s]) == 0
        code, out, err = run(capsys, "converse", s, "--seed", "1", "--steps", steps, "--eps", "0.1")
        assert code == 2 and out == "" and err == f"parse error: --steps must be at least 1, got {steps}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["extend", "s.pms", "m.map"],
            ["gen", "lip", "s.pms", "--seed", "1"],
            ["embed-delta", "s.pms", "p0"],
            ["net", "s.pms", "--t", "0.5"],
            ["extract", "s.pms", "m.seq", "--eps", "0.5"],
            ["converse", "s.pms", "--seed", "1", "--eps", "0.5"],
        ],
        ids=lambda argv: argv[0] if argv[0] != "gen" else "gen-lip",
    )
    def test_space_commands_take_no_tnorm(self, capsys, tmp_path, argv):
        # a space's t-norm is the one its document names; without the
        # option each of these runs on the same files
        s, m = str(tmp_path / "s.pms"), str(tmp_path / "m.map")
        assert run_command(["gen", "space", "--seed", "1", "--n", "3", "--out", s]) == 0
        assert run_command(["embed-delta", s, "p0", "--out", m]) == 0
        values = json.loads(Path(m).read_text())["values"]
        (tmp_path / "m.seq").write_text(json.dumps({"kind": "map_sequence", "maps": [values]}))
        argv = [str(tmp_path / a) if a in ("s.pms", "m.map", "m.seq") else a for a in argv]
        assert run(capsys, *argv)[0] == 0
        out = tmp_path / "out.json"
        argv += ["--tnorm", "min"] + (["--out", str(out)] if argv[0] != "net" else [])
        code, stdout, _ = run(capsys, *argv)
        assert code == 2 and stdout == "" and not out.exists()

    def test_long_integer_labels_keep_their_digits(self, capsys, tmp_path):
        a, b = 10**301, 10**301 + 1
        f = tmp_path / "s.pms"
        f.write_text(json.dumps({"kind": "space", "points": [a, b], "dist": [[[[0, 1]], [[1, 1]]], [[[1, 1]], [[0, 1]]]]}))
        code, out, _ = run(capsys, "net", str(f), "--t", "0.5")
        assert code == 0 and sorted(out.split()) == sorted([str(a), str(b)])


class TestTnormNames:
    """``BUILTIN_TNORMS`` is the one table of names documents and options use."""

    @pytest.mark.parametrize("name", list(BUILTIN_TNORMS))
    def test_name_round_trips(self, capsys, name):
        code, out, _ = run(capsys, "gen", "space", "--seed", "0", "--n", "4", "--model", "repair", "--tnorm", name)
        assert code == 0 and json.loads(out)["tnorm"] == name
        assert parse_document(out).payload.star is BUILTIN_STARS[name]
        assert run(capsys, "check-tnorm", name)[0] == 0

    @pytest.mark.parametrize("name", ["minimum", "product", "lukasiewicz", [], {}])
    def test_unknown_names_rejected(self, capsys, tmp_path, name):
        # no version of pms has written the long names, so only the short ones
        # are read; a list or an object is no name at all
        f = tmp_path / "s.pms"
        f.write_text(json.dumps({"kind": "space", "points": ["a"], "tnorm": name, "dist": [[[[0, 1]]]]}))
        code, out, err = run(capsys, "check-space", str(f))
        assert code == 2 and out == "" and err == f"parse error: unknown t-norm {name!r}\n"


class TestDeterminism:
    def test_byte_identical_generation(self, capsys):
        outs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "gen", "space", "--seed", "11", "--n", "4")
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_byte_identical_reports(self, capsys, space_file):
        outs = set()
        for _ in range(2):
            code, out, _ = run(
                capsys, "converse", space_file, "--seed", "3", "--steps", "30", "--eps", "0.2"
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "pmspace", "check-tnorm", "min"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "boundary: ok" in proc.stdout


def test_readme_commands_parse():
    # every pms line of the bash block under README "Command line" parses;
    # the input files need not exist, only the option surface is checked
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("pms ")]
    assert commands
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


# --- fuzzing ------------------------------------------------------------------

# special floats, integers past the float range, and booleans (which JSON
# loads as a subclass of int)
_numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-300, 1e-12, 2e-12, 2.0**53, 1e308]),
    st.integers(-(10**400), 10**400),
    st.booleans(),
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_valid_points = st.one_of(cdfs(), window_cdfs()).map(lambda F: [[t, v] for t, v in F.breaks])
# half of the draws are valid, so the commands also run past parsing
_points = st.one_of(
    _valid_points,
    _valid_points,
    st.lists(st.lists(_numbers, min_size=2, max_size=2), max_size=4),
    _json,
)
_labels = st.one_of(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from(["a", "b", "", 1, None]), max_size=4),  # duplicates, empty, odd
)


@st.composite
def _space_obj(draw):
    if draw(st.booleans()):  # a valid space, so the commands run past loading it
        seed, n = draw(st.integers(0, 99)), draw(st.integers(1, 5))
        model = draw(st.sampled_from(["metric", "repair"]))
        star = BUILTIN_STARS[draw(st.sampled_from(["min", "prod", "luka"]))]
        return json.loads(serialize_document(Document("space", gen_space(seed, n, model, star), {})))
    labels = draw(_labels)
    n = len(labels)
    if draw(st.booleans()):  # symmetric unit steps, valid when the locations are a metric
        loc = st.one_of(st.sampled_from([1.0, 1.5, 2.0]), _numbers)
        d = {(i, j): draw(loc) for i in range(n) for j in range(i + 1, n)}
        dist = [[[[d[min(i, j), max(i, j)] if i != j else 0.0, 1.0]] for j in range(n)] for i in range(n)]
    else:
        dist = draw(st.lists(st.lists(_points, min_size=n, max_size=n), min_size=n, max_size=n) | _json)
    obj = {"kind": "space", "points": labels, "dist": dist}
    if draw(st.booleans()):
        obj["tnorm"] = draw(st.sampled_from(["min", "prod", "luka", "max", 1]))
    return obj


_scalars = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "nan", "-nan", "inf", "-inf", "1e-320", "1e-12", "0.05", "0.5", "2"]),
    st.floats(1e-3, 1.0).map(repr),
    st.floats().map(repr),
)
_other_docs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["report", "map", "map_sequence", "space", "cdf", "x"])},
    optional={
        key: _json
        for key in ("eps", "pairwise_dinf", "selected", "success", "walk", "limit", "values", "maps", "meta")
    },
)


def _cdf_doc(draw, points) -> str:
    """A cdf document on the given points, now and then a document of any
    kind with arbitrary fields."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(_other_docs))
    return json.dumps({"kind": "cdf", "points": points})


@st.composite
def _invocations(draw):
    """(argv with file names, {file name: text}) for one command."""
    command = draw(st.sampled_from(["dl", "conv", "sup", "quantize", "check-space", "check-lip", "net"]))
    if command in ("dl", "conv", "sup"):
        if draw(st.booleans()):
            F, G = draw(shifted_copies())
            F, G = [list(p) for p in F.breaks], [list(p) for p in G.breaks]
        else:
            F, G = draw(_points), draw(_points)
        docs = {"f.cdf": _cdf_doc(draw, F), "g.cdf": _cdf_doc(draw, G)}
        argv = [command, "f.cdf", "g.cdf"]
        if command == "conv":
            argv += ["--tnorm", draw(st.sampled_from(["min", "prod", "luka"]))]
        return argv, docs
    if command == "quantize":
        return ["quantize", "f.cdf", "--delta=" + draw(_scalars)], {"f.cdf": _cdf_doc(draw, draw(_points))}
    space = draw(_space_obj())
    docs = {"s.pms": json.dumps(space)}
    if command == "check-space":
        return ["check-space", "s.pms"], docs
    if command == "net":
        return ["net", "s.pms", "--t=" + draw(_scalars)], docs
    docs["f.map"] = json.dumps({"kind": "map", "values": _map_values(draw, space)})
    return ["check-lip", "s.pms", "f.map"], docs


def _map_values(draw, space: dict):
    """Map values on a space object's point labels and a stray "z": now and
    then a map certified on the space, else arbitrary cdfs, or any JSON."""
    try:
        sp = parse_document(json.dumps(space)).payload
    except PmsError:
        sp = None
    if sp is not None and draw(st.booleans()):
        f = random_lipschitz_map(sp, random.Random(draw(st.integers(0, 99))))
        return {str(p): [list(b) for b in F.breaks] for p, F in f.values.items()}
    keys = [str(p) for p in space["points"]] + ["z"]
    return draw(st.dictionaries(st.sampled_from(keys), _points, max_size=len(keys)) | _json)


def _map_input(draw, space: dict, kind: str) -> str:
    """A document of the given kind (map or map_sequence) on the space, now
    and then a document of another of the map-carrying kinds, a report
    included, to be rejected by kind."""
    kind = draw(st.sampled_from([kind, kind, kind, "map", "map_sequence", "report"]))
    if kind == "map":
        return json.dumps({"kind": "map", "values": _map_values(draw, space)})
    if kind == "map_sequence":
        maps = [_map_values(draw, space) for _ in range(draw(st.integers(0, 4)))]
        return json.dumps({"kind": "map_sequence", "maps": maps})
    return json.dumps(draw(_other_docs) | {"kind": "report", "limit": _map_values(draw, space)})


@st.composite
def _map_invocations(draw):
    """(argv with file names, {file name: text}) for one command that reads a
    space and writes a map or report document."""
    command = draw(st.sampled_from(["extend", "gen", "embed-delta", "extract", "converse"]))
    space = draw(_space_obj())
    docs = {"s.pms": json.dumps(space)}
    labels = [str(p) for p in space["points"]]
    if command == "extend":
        docs["f.map"] = _map_input(draw, space, "map")
        return ["extend", "s.pms", "f.map"], docs
    if command == "gen":
        return ["gen", "lip", "s.pms", "--seed", str(draw(st.integers(-(10**30), 10**30)))], docs
    if command == "embed-delta":
        return ["embed-delta", "s.pms", draw(st.sampled_from(labels + ["z", ""]))], docs
    if command == "extract":
        docs["m.seq"] = _map_input(draw, space, "map_sequence")
        return ["extract", "s.pms", "m.seq", "--eps=" + draw(_scalars)], docs
    argv = ["converse", "s.pms", "--eps=" + draw(_scalars)]
    if draw(st.booleans()):
        walk = draw(st.lists(st.sampled_from(labels + ["z", " "]), max_size=6))
        return argv + ["--points=" + ",".join(walk)], docs
    return argv + ["--seed", str(draw(st.integers(-5, 10**6))), "--steps", str(draw(st.integers(-2, 40)))], docs


_EMITS_DOCUMENT = ("conv", "sup", "quantize", "extend", "gen", "embed-delta", "extract", "converse")


def _run_in_process(tmp_path, case) -> None:
    """Run one fuzz case: the exit code is 0, 1 or 2, no exception escapes,
    and every emitted document reads back to the same text."""
    argv, docs = case
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in docs else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2)
    text = out.getvalue()
    if text and argv[0] in _EMITS_DOCUMENT:  # extract and converse emit their report also on exit 1
        assert serialize_document(parse_document(text)) == text


class TestFuzz:
    """Arbitrary documents and arguments, run in-process."""

    @settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_invocations())
    def test_commands(self, tmp_path, case):
        _run_in_process(tmp_path, case)

    @settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_map_invocations())
    def test_map_commands(self, tmp_path, case):
        _run_in_process(tmp_path, case)
