"""The same-bytes contract: the outputs of fixed pipelines on the reduced
inputs match the SHA-256s recorded in ``golden.json``.

Each pipeline is one ``sofactor`` command run in-process through
``cli.main``; its outputs are the files it writes and its stdout. The
manifest also holds the numpy and scipy versions and the machine it was
recorded on; elsewhere the check skips, naming both, and fails instead
when ``SOFACTOR_GOLDEN=require`` is set.

A change that moves default-path bytes on purpose re-records the
manifest with ``python tests/test_golden.py --record`` and says why.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from sofactor import cli

from oracles import write_reduced_inputs

MANIFEST_PATH = Path(__file__).with_name("golden.json")

# 3 epochs each: m2 and m3 at the defaults make no CG iteration on these
# inputs, so m2 at tau 1 and stepping m3 cover a solve
TRAIN_RUNS = {
    "m1": ["--model", "m1", "--learning-rate", "0.001"],
    "m2": ["--model", "m2"],
    "m3": ["--model", "m3"],
    "m2-tau1": ["--model", "m2", "--tau", "1"],
    "m3-stepping": ["--model", "m3", "--lambda-r1", "0.001", "--tau", "1"],
}

# name -> (command, the output files it writes); {dense}, {triples} and
# each output name are replaced by paths
PIPELINES = {
    **{f"train-{data}-{run}": (["train", "--data", "{%s}" % data, *args, "--max-epochs", "3",
                                "--out", "{csv}", "--save-factors", "{factors}"],
                               ("csv", "factors"))
       for data in ("dense", "triples") for run, args in TRAIN_RUNS.items()},
    "grid-dense-m3": (["grid", "--data", "{dense}", "--model", "m3", "--tau", "1",
                       "--lambda-r1-values", "0.0,0.001", "--lambda-r2-values", "1e-5",
                       "--gamma-values", "50,100", "--max-epochs", "3", "--out", "{csv}"],
                      ("csv",)),
    "bench-dense": (["bench", "--data", "{dense}", "--datasets", "d1", "--models", "m1,m2,m3",
                     "--seeds", "0,1", "--learning-rate", "0.001", "--lambda-r1", "0.001",
                     "--tau", "1", "--max-epochs", "3", "--out", "{csv}"],
                    ("csv",)),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipelines(directory) -> tuple[dict, dict]:
    """Write the reduced inputs into directory and run every pipeline
    there: the inputs' SHA-256s by name, and each pipeline's outputs'
    SHA-256s by output name."""
    directory = Path(directory)
    inputs = write_reduced_inputs(directory)
    outputs = {}
    for name, (command, files) in PIPELINES.items():
        paths = {key: v["path"] for key, v in inputs.items()}
        paths |= {f: str(directory / f"{name}.{f}") for f in files}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([arg.format(**paths) for arg in command])
        if code != 0:
            raise RuntimeError(f"{name} exited {code}")
        outputs[name] = {f: sha256(Path(paths[f]).read_bytes()) for f in files}
        outputs[name]["stdout"] = sha256(stdout.getvalue().encode())
    return {key: v["sha256"] for key, v in inputs.items()}, outputs


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def check_environment(manifest: dict) -> None:
    "Skip, or with SOFACTOR_GOLDEN=require fail, where the manifest was not recorded."
    here = environment()
    recorded = {key: manifest[key] for key in here}
    if here != recorded:
        def text(env):
            return f"numpy {env['numpy']}, scipy {env['scipy']} on {env['machine']}"
        message = f"golden outputs recorded with {text(recorded)}; this is {text(here)}"
        if os.environ.get("SOFACTOR_GOLDEN") == "require":
            pytest.fail(message)
        pytest.skip(message)


def mismatches(manifest: dict, inputs: dict, outputs: dict) -> list[str]:
    "One line per input, pipeline command or output that differs from the manifest."
    lines = [f"input {key}: sha256 {got} != recorded {manifest['inputs'][key]}"
             for key, got in inputs.items() if got != manifest["inputs"][key]]
    for name, (command, _) in PIPELINES.items():
        recorded = manifest["pipelines"][name]
        if recorded["command"] != " ".join(command):
            lines.append(f"{name}: command {' '.join(command)!r} != recorded {recorded['command']!r}")
        for output, got in outputs[name].items():
            if got != recorded["outputs"][output]:
                lines.append(f"{name}: {output} sha256 {got} != recorded {recorded['outputs'][output]}")
    return lines


@pytest.fixture(scope="module")
def manifest():
    with open(MANIFEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_outputs(manifest, tmp_path):
    check_environment(manifest)
    assert sorted(manifest["pipelines"]) == sorted(PIPELINES)
    lines = mismatches(manifest, *run_pipelines(tmp_path))
    assert not lines, "outputs moved:\n" + "\n".join(lines)


def test_doctored_hash_names_its_pipeline(manifest):
    outputs = {name: dict(p["outputs"]) for name, p in manifest["pipelines"].items()}
    assert mismatches(manifest, manifest["inputs"], outputs) == []
    outputs["train-dense-m3-stepping"]["factors"] = "0" * 64
    inputs = dict(manifest["inputs"], triples="1" * 64)
    assert mismatches(manifest, inputs, outputs) == [
        f"input triples: sha256 {'1' * 64} != recorded {manifest['inputs']['triples']}",
        f"train-dense-m3-stepping: factors sha256 {'0' * 64} != recorded "
        f"{manifest['pipelines']['train-dense-m3-stepping']['outputs']['factors']}"]


@pytest.mark.parametrize("require", [False, True])
def test_other_versions_skip_unless_required(manifest, monkeypatch, require):
    if require:
        monkeypatch.setenv("SOFACTOR_GOLDEN", "require")
    else:
        monkeypatch.delenv("SOFACTOR_GOLDEN", raising=False)
    doctored = dict(manifest, numpy="0.0.1")
    outcome = pytest.fail.Exception if require else pytest.skip.Exception
    with pytest.raises(outcome) as info:
        check_environment(doctored)
    assert "numpy 0.0.1" in str(info.value)
    assert f"numpy {np.__version__}" in str(info.value)


def record() -> None:
    "Run every pipeline and write the manifest from its outputs."
    with tempfile.TemporaryDirectory() as tmp:
        inputs, outputs = run_pipelines(tmp)
    manifest = environment() | {
        "inputs": inputs,
        "pipelines": {name: {"command": " ".join(command), "outputs": outputs[name]}
                      for name, (command, _) in PIPELINES.items()}}
    with open(MANIFEST_PATH, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
