"""The benchmark's recorded outputs, replayed in process.

Every case of the space-build, map-cluster and kernels-long catalogs runs
once, in catalog order, and must match ``perfbench/reference`` under the
benchmark's own rule (``workloads.matches``): documents, selections and
verdicts byte for byte, distances within the recorded slack.  The cli
catalog, which the benchmark runs as ``pms`` subprocesses, is replayed
through ``cli.run_command`` in each instance's document directory.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import pmspace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

# the modules as already imported: workloads.load_library would import them
# afresh, and the other tests' classes would then differ from the library's
LIB = SimpleNamespace(pkg=pmspace, **{m: importlib.import_module(f"pmspace.{m}") for m in workloads.MODULES})


@pytest.mark.parametrize("name", ["space-build", "map-cluster", "kernels-long"])
def test_replays_the_recorded_outputs(tmp_path, name):
    want = workloads.load_reference(name)
    seen, drifted = set(), []
    for op in workloads.WORKLOADS[name].cases(LIB, tmp_path):
        seen.add(op.key)
        if not workloads.matches(op.observe(op.run()), want[op.key], op.tol):
            drifted.append(op.key)
    assert drifted == []
    assert seen == set(want)


def test_replays_the_cli_catalog(tmp_path, monkeypatch, capsys):
    want = workloads.load_reference("cli")
    cli = workloads.WORKLOADS["cli"]
    state = workloads.CliState(LIB, tmp_path, [])
    seen, drifted = set(), []
    for j in range(cli.INSTANCES):
        cli.write_documents(LIB, j, tmp_path / str(j))
        monkeypatch.chdir(tmp_path / str(j))
        for kind, argv in cli.commands(j):
            op = cli.op(state, j, kind, argv)
            rc = LIB.cli.run_command(argv)
            seen.add(op.key)
            if not workloads.matches(op.observe((rc, capsys.readouterr().out)), want[op.key], op.tol):
                drifted.append(op.key)
    assert drifted == []
    assert seen == set(want)
