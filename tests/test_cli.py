"""Command surface: dispatch, exit codes, determinism."""

import subprocess
import sys

import pytest

from pmspace import make_step_cdf, parse_document, quantize
from pmspace.cli import run_command


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

    def test_check_star_nan_tolerance(self, capsys):
        code, out, err = run(capsys, "check-star", "--seed", "1", "--samples", "3", "--tol", "nan")
        assert code == 1 and out == "" and "PreconditionViolated" in err

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
