"""Command line behaviour, exercised in-process through main(argv)."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sofactor
from sofactor import sddmm

from sofactor.bench import GridSpec, run_benchmark
from sofactor.cli import _from_args, _make_kind, build_parser, main, resolve_data_path
from sofactor.data import load_triples, sniff_format, synth_lowrank, write_triples
from sofactor.model import Hyperparams, load_factors
from sofactor.train import OptimizerKind

from oracles import write_dense_matrix


def write_synth_file(path, seed=0):
    t, _ = synth_lowrank(20, 24, rank=2, density=0.5, noise_sigma=0.05,
                         seed=seed, init_lo=0.2, init_hi=1.0)
    write_triples(path, t)
    return t


# the settings that grid sweeps, each from its GridSpec axis <name>_values
SWEPT = ("lambda_r1", "lambda_r2", "gamma", "learning_rate", "momentum")

FAST = ["--f", "2", "--tau", "1e-6", "--cg-max-iters", "10",
        "--max-epochs", "4", "--patience", "4",
        "--init-lo", "0.2", "--init-hi", "1.0",
        "--train-frac", "0.6", "--val-frac", "0.2"]


# ------------------------------------------------------------------ plumbing

def test_sniff_format(tmp_path):
    t3 = tmp_path / "t.txt"
    t3.write_text("# c\n0 1 2.5\n")
    assert sniff_format(t3) == "triples"
    dense = tmp_path / "d.txt"
    dense.write_text("1.0 2.0 3.0 4.0\n")
    assert sniff_format(dense) == "dense"
    dense3 = tmp_path / "d3.txt"
    dense3.write_text("1.5 2.0 3.0\n")  # 3 columns but float ids -> dense
    assert sniff_format(dense3) == "dense"


def test_resolve_data_path_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "inside.txt"
    target.write_text("0 0 1.0\n")
    monkeypatch.setenv("SOFACTOR_DATA_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path / "..")
    assert resolve_data_path("inside.txt") == str(target)
    assert resolve_data_path("/absolute/missing.txt") == "/absolute/missing.txt"


def test_env_dir_used_by_commands(tmp_path, monkeypatch):
    write_synth_file(tmp_path / "data.txt")
    monkeypatch.setenv("SOFACTOR_DATA_DIR", str(tmp_path))
    out = tmp_path / "run.csv"
    rc = main(["train", "--data", "data.txt", *FAST, "--seed", "1", "--out", str(out)])
    assert rc == 0 and out.exists()


# ------------------------------------------------------------------ commands

def test_ingest_roundtrip(tmp_path, capsys):
    t = write_synth_file(tmp_path / "orig.txt")
    dense = tmp_path / "dense.txt"
    write_dense_matrix(dense, t)
    out = tmp_path / "triples.txt"
    assert main(["ingest", "--input", str(dense), "--out", str(out)]) == 0
    assert f"wrote {len(t)} triples" in capsys.readouterr().out
    back = load_triples(out)
    a = dict(zip(zip(t.users.tolist(), t.services.tolist()), t.values))
    b = dict(zip(zip(back.users.tolist(), back.services.tolist()), back.values))
    assert a == b


def test_synth_and_split_commands(tmp_path, capsys):
    data = tmp_path / "s.txt"
    rc = main(["synth", "--num-users", "12", "--num-services", "10",
               "--rank", "2", "--density", "0.5", "--noise-sigma", "0.0",
               "--seed", "5", "--out", str(data),
               "--factors-out", str(tmp_path / "truth.npz")])
    assert rc == 0
    truth = load_factors(tmp_path / "truth.npz")
    assert truth.f == 2
    rc = main(["split", "--data", str(data), "--train-frac", "0.6",
               "--val-frac", "0.2", "--seed", "3", "--out", str(tmp_path / "part")])
    assert rc == 0
    sizes = []
    for part in ("train", "validation", "test"):
        sizes.append(len(load_triples(tmp_path / f"part.{part}.txt")))
    total = len(load_triples(data))
    assert sum(sizes) == total
    assert sizes[0] == int(total * 0.6)


def test_train_command_writes_csv_and_summary(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    out = tmp_path / "epochs.csv"
    factors = tmp_path / "model.npz"
    rc = main(["train", "--data", str(data), *FAST, "--model", "m3",
               "--seed", "2", "--out", str(out), "--save-factors", str(factors)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "final_test_rmse=" in printed and "stop_reason=" in printed
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_rmse,val_rmse,inner_iters,wall_ms"
    assert lines[-1].startswith("#")
    assert load_factors(factors).f == 2


def test_train_csv_byte_identical_across_runs(tmp_path):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["train", "--data", str(data), *FAST, "--model", "m2", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("alias,name", [("m1", "SGDM"), ("sgdm", "SGDM"),
                                        ("m2", "SLF"), ("M3", "DRSLF")])
def test_model_aliases(tmp_path, capsys, alias, name):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    rc = main(["train", "--data", str(data), *FAST, "--model", alias,
               "--max-epochs", "1", "--seed", "0",
               "--learning-rate", "0.05", "--momentum", "0.5"])
    assert rc == 0


def test_grid_command(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    out = tmp_path / "grid.csv"
    rc = main(["grid", "--data", str(data), *FAST, "--model", "m3",
               "--max-epochs", "2", "--seed", "1",
               "--lambda-r1-values", "0.0,0.05",
               "--lambda-r2-values", "1e-5",
               "--gamma-values", "0.5,2.0",
               "--out", str(out), "--progress"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("best: lambda_r1=")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 4
    # --progress logs each point as it finishes, in the CSV's order
    logged = captured.err.splitlines()
    assert len(logged) == 4
    for line, row in zip(logged, lines[1:]):
        l1, l2, gamma, lr, mom, val = row.split(",")[:6]
        assert lr == mom == ""  # DRSLF reads neither
        assert line == f"lambda_r1={l1} lambda_r2={l2} gamma={gamma} val_rmse={val} [ok]"


@pytest.mark.parametrize("model,axes,want", [
    ("m1", ["--learning-rate-values", "0.05", "--momentum-values", "0.5,0.0"],
     [("0.0", "1e-05", "", "0.05", "0.0"), ("0.0", "1e-05", "", "0.05", "0.5")]),
    ("m2", ["--gamma-values", "2.0,0.5"],
     [("0.0", "1e-05", "0.5", "", ""), ("0.0", "1e-05", "2.0", "", "")]),
    ("m3", ["--lambda-r1-values", "0.05,0.0", "--gamma-values", "0.5"],
     [("0.0", "1e-05", "0.5", "", ""), ("0.05", "1e-05", "0.5", "", "")]),
])
def test_grid_rows_name_only_settings_the_model_reads(tmp_path, capsys, model, axes, want):
    # SGDM reads no gamma; DRSLF and SLF read no learning_rate or momentum
    data = tmp_path / "d.txt"
    write_synth_file(data)
    out = tmp_path / "grid.csv"
    rc = main(["grid", "--data", str(data), *FAST, "--model", model,
               "--max-epochs", "2", "--seed", "1", "--lambda-r2-values", "1e-5",
               *axes, "--out", str(out), "--progress"])
    assert rc == 0
    captured = capsys.readouterr()
    header, *rows = out.read_text().splitlines()
    assert header == ",".join(SWEPT) + ",val_rmse,best_epoch,status"
    cells = [row.split(",") for row in rows]
    assert [tuple(c[:5]) for c in cells] == want
    # the progress and best: lines name each setting the row fills, and no other
    named = [" ".join(f"{n}={v}" for n, v in zip(SWEPT, c) if v) for c in cells]
    assert captured.err.splitlines() == [f"{text} val_rmse={c[5]} [ok]"
                                         for text, c in zip(named, cells)]
    best = min(range(len(rows)), key=lambda i: float(cells[i][5]))
    assert captured.out == f"best: {named[best]}\n"


def test_bench_command(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--data", str(data),
               "--datasets", "tiny:0.6:0.2", "--models", "m1,m3",
               "--seeds", "0,1", "--f", "2", "--tau", "1e-6",
               "--max-epochs", "2", "--init-lo", "0.2", "--init-hi", "1.0",
               "--learning-rate", "0.05", "--momentum", "0.5",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "per-seed rmse" in printed
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "dataset,model,mean_rmse,mean_best_epoch,seeds"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "SGDM"  # canonical model order
    assert lines[2].split(",")[1] == "DRSLF"


def test_bench_named_dataset_configs(tmp_path, capsys):
    # d1 and d2 (any case) are the KNOWN_CONFIGS splitting recipes
    data = tmp_path / "d.txt"
    t = write_synth_file(data)
    rc = main(["bench", "--data", str(data), "--datasets", "d1,D2", "--models", "m2",
               "--seeds", "0", "--f", "2", "--tau", "1e-6", "--max-epochs", "2",
               "--init-lo", "0.2", "--init-hi", "1.0", "--progress"])
    assert rc == 0
    captured = capsys.readouterr()
    h = Hyperparams(f=2, tau=1e-6, max_epochs=2, init_lo=0.2, init_hi=1.0)
    table = run_benchmark(t, [("d1", 0.10, 0.45), ("d2", 0.20, 0.40)], [0],
                          [OptimizerKind.slf()], h)
    assert captured.out == table.to_text()
    # --progress logs one line per run
    assert [line.split()[:3] for line in captured.err.splitlines()] == [
        ["d1", "SLF", "seed=0"], ["d2", "SLF", "seed=0"]]


# Runs sofactor train for each model in a fresh interpreter; argv[1] is
# "one" to pin the process to one CPU before sofactor starts its pool,
# argv[2] the JSON list of argument lists. Prints the worker count first.
_TRAIN_CHILD = """
import contextlib, io, json, os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from sofactor import sddmm
from sofactor.cli import main
print(sddmm.WORKERS)
for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0
"""


# m3 at paper defaults takes zero steps; "m3-step" takes useful steps of
# several CG iterations each
_MODELS = {"m1": ["--model", "m1"], "m2": ["--model", "m2"], "m3": ["--model", "m3"],
           "m3-step": ["--model", "m3", "--lambda-r1", "0.001", "--tau", "1"]}


def _write_large_triples(tmp_path):
    # 288k train observations: above 2 * MIN_SPAN, so with two or more
    # CPUs every pooled pass splits its work across the pool
    t, _ = synth_lowrank(400, 1000, rank=3, density=0.9, noise_sigma=0.05,
                         seed=0, init_lo=0.2, init_hi=1.0)
    data = tmp_path / "d.txt"
    write_triples(data, t)
    assert math.floor(len(t) * 0.8) > 2 * sddmm.MIN_SPAN
    return data


def _train_models(tmp_path, data, tag, cpus, **env):
    """Trains each of _MODELS on data in one fresh interpreter, with env
    added to the environment. Returns the child's worker count, the rest
    of its stdout, and the bytes of each CSV and factor file."""
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([str(Path(sofactor.__file__).parent.parent),
                                           os.environ.get("PYTHONPATH", "")]))
    runs = [["train", "--data", str(data), *args, "--f", "4",
             "--max-epochs", "2", "--train-frac", "0.8", "--val-frac", "0.1",
             "--learning-rate", "0.001",
             "--out", str(tmp_path / f"{tag}-{name}.csv"),
             "--save-factors", str(tmp_path / f"{tag}-{name}.npz")]
            for name, args in _MODELS.items()]
    done = subprocess.run([sys.executable, "-c", _TRAIN_CHILD, cpus, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    workers, stdout = done.stdout.split("\n", 1)
    files = [(tmp_path / f"{tag}-{name}.{ext}").read_bytes()
             for name in _MODELS for ext in ("csv", "npz")]
    return int(workers), stdout, files


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_train_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    # BLAS is not pinned: OpenBLAS sizes its threads from the affinity
    # mask, so the "one" child also runs one BLAS thread
    data = _write_large_triples(tmp_path)
    one = _train_models(tmp_path, data, "one", "one")
    every = _train_models(tmp_path, data, "all", "all")
    assert (one[0], every[0]) == (1, len(os.sched_getaffinity(0)))
    assert one[1:] == every[1:]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS caps its threads at the CPUs in the affinity mask, "
                           "so with one CPU both runs would use one BLAS thread")
def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    data = _write_large_triples(tmp_path)
    runs = {threads: _train_models(tmp_path, data, f"blas{threads}", "all",
                                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                                   MKL_NUM_THREADS=threads)
            for threads in ("1", "2")}
    assert runs["1"] == runs["2"]


def _dispatch_targets():
    "The targets numpy compiled dispatched loops for that this CPU also has."
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


@pytest.mark.skipif(not _dispatch_targets(),
                    reason="numpy dispatches no loop above its baseline on this CPU "
                           "(or they are already disabled)")
def test_train_bytes_do_not_depend_on_the_simd_level(tmp_path):
    # numpy picks some loops by CPU feature at run time; with every
    # dispatched target disabled it runs its baseline loops, so a loop
    # whose bits differ by level (np.power once did) would show here
    data = _write_large_triples(tmp_path)
    full = _train_models(tmp_path, data, "full", "all")
    baseline = _train_models(tmp_path, data, "baseline", "all",
                             NPY_DISABLE_CPU_FEATURES=" ".join(_dispatch_targets()))
    assert full == baseline


# -------------------------------------------------------------------- errors

def test_bench_malformed_dataset_config_errors_cleanly(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    rc = main(["bench", "--data", str(data), "--datasets", "d1,tiny:0.6"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: unknown dataset config 'tiny:0.6' (use d1, d2 or label:train_frac:val_frac)\n")


def test_bench_non_numeric_fraction_names_its_config(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    rc = main(["bench", "--data", str(data), "--datasets", "d1,bad:x:0.2"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: dataset config 'bad': could not convert string to float: 'x'\n")


def test_missing_file_errors_cleanly(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.txt"), *FAST])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_bad_model_name_errors_cleanly(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    rc = main(["train", "--data", str(data), *FAST, "--model", "m9"])
    assert rc == 1
    assert "unknown model" in capsys.readouterr().err


def test_malformed_data_cites_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 1.0\n0 0 2.0\n")
    rc = main(["train", "--data", str(bad), *FAST])
    assert rc == 1
    assert "bad.txt:2: duplicate pair" in capsys.readouterr().err


def test_bad_split_fractions_error(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    rc = main(["split", "--data", str(data), "--train-frac", "0.9",
               "--val-frac", "0.9", "--seed", "0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_hyperparameter_errors_cleanly(tmp_path, capsys):
    data = tmp_path / "d.txt"
    write_synth_file(data)
    rc = main(["train", "--data", str(data), *FAST, "--tau", "nan"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.err == "error: tau must be finite, got nan\n"
    assert out.out == ""


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # --data is required
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "m.txt", "--out", "t.txt", "--seed", "0"],
    ["bench", "--data", "d.txt", "--seed", "0"],
    ["train", "--data", "d.txt", "--progress"],
    # grid sweeps these settings from their GridSpec axes only
    *(["grid", "--data", "d.txt", "--" + name.replace("_", "-"), "0.5"] for name in SWEPT),
])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("value", [",", " , ", ""])
def test_empty_value_list_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", "d.txt", "--seeds", value])
    assert exc.value.code == 2
    assert "empty value list" in capsys.readouterr().err


@pytest.mark.parametrize("argv, prefix, flag", [
    (["ingest", "--inp", "m.txt", "--out", "t.txt"], "--inp", "--input"),
    (["synth", "--num-u", "3", "--num-services", "4", "--out", "t.txt"],
     "--num-u", "--num-users"),
    (["split", "--data", "d.txt", "--train-f", "0.5", "--val-frac", "0.2", "--out", "p"],
     "--train-f", "--train-frac"),
    (["train", "--data", "d.txt", "--train-f", "0.2"], "--train-f", "--train-frac"),
    (["grid", "--data", "d.txt", "--gamma-v", "1,2"], "--gamma-v", "--gamma-values"),
    (["bench", "--data", "d.txt", "--mod", "m1"], "--mod", "--models"),
])
def test_flag_prefixes_are_usage_errors(argv, prefix, flag):
    # the full flag parses; its prefix is not taken for it
    build_parser().parse_args([flag if a == prefix else a for a in argv])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_top_level_flag_prefix_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--he"])  # not --help
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_every_hyperparam_has_a_train_flag():
    # each field of Hyperparams is set through its own flag, with a value
    # that differs from its default and has the field's type
    given = dict(f=3, lambda_r1=0.25, lambda_r2=0.125, epsilon=1e-6, gamma=7.5,
                 tau=0.5, cg_max_iters=4, max_epochs=6, patience=2,
                 init_lo=0.1, init_hi=0.9, seed=9)
    assert set(given) == {fd.name for fd in dataclasses.fields(Hyperparams)}
    argv = ["train", "--data", "d.txt"]
    for name, value in given.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    h = _from_args(Hyperparams, build_parser().parse_args(argv))
    assert h == Hyperparams(**given)
    for name, value in given.items():
        assert type(getattr(h, name)) is type(value)
        assert value != getattr(Hyperparams(), name)


def field_names(cls, skip):
    return {fd.name for fd in dataclasses.fields(cls)} - {skip}


def test_every_grid_axis_names_a_setting():
    # each GridSpec axis <field>_values sweeps one Hyperparams or
    # OptimizerKind field, and those are the settings grid has no flag for
    axes = field_names(GridSpec, "fixed")
    assert all(axis.endswith("_values") for axis in axes)
    swept = {axis.removesuffix("_values") for axis in axes}
    assert swept == set(SWEPT)
    assert swept <= field_names(Hyperparams, "seed") | field_names(OptimizerKind, "name")


@pytest.mark.parametrize("command", ["train", "grid", "bench"])
def test_every_optimizer_knob_and_grid_axis_has_a_flag(command):
    # each OptimizerKind knob (on train and bench) or each GridSpec axis
    # (on grid) is set through its own flag to a non-default value and
    # reaches the object built from the arguments
    knobs = dict(learning_rate=0.25, momentum=0.5)
    axes = dict(lambda_r1_values=(0.5, 0.25), lambda_r2_values=(0.125,),
                gamma_values=(3.0, 1.5), learning_rate_values=(0.75,),
                momentum_values=(0.0, 0.25))
    assert set(knobs) == field_names(OptimizerKind, "name")
    assert set(axes) == field_names(GridSpec, "fixed")
    given = axes if command == "grid" else knobs
    argv = [command, "--data", "d.txt"]
    for name, value in given.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += ["--" + name.replace("_", "-"), text]
    args = build_parser().parse_args(argv)
    if command == "grid":
        h = Hyperparams(f=3)
        grid = _from_args(GridSpec, args, fixed=h)
        assert grid == GridSpec(**axes, fixed=h)
        assert all(type(v) is float for n in axes for v in getattr(grid, n))
    else:
        kind = _make_kind("SGDM", args)
        assert kind == OptimizerKind.sgdm(**knobs)
        assert all(type(getattr(kind, n)) is float for n in knobs)
        assert _make_kind("DRSLF", args) == OptimizerKind.drslf()  # knobs are SGDM's only
    for name, value in given.items():
        assert value != getattr(GridSpec() if name in axes else OptimizerKind("SGDM"), name)


@pytest.mark.parametrize("command", ["train", "grid", "bench"])
def test_parsed_defaults_are_the_dataclass_defaults(command):
    args = build_parser().parse_args([command, "--data", "d.txt"])
    classes = [(OptimizerKind, "name"), (Hyperparams, "seed")]
    if command == "grid":
        classes.append((GridSpec, "fixed"))
    swept = set(SWEPT) if command == "grid" else set()
    for cls, skip in classes:
        for fd in dataclasses.fields(cls):
            if fd.name != skip and fd.name not in swept:
                assert getattr(args, fd.name) == fd.default
                assert type(getattr(args, fd.name)) is type(fd.default)
    assert not swept & set(vars(args))  # grid parses no swept setting
    assert _from_args(Hyperparams, args) == Hyperparams()
    if command == "grid":
        assert _from_args(GridSpec, args, fixed=Hyperparams()) == GridSpec()
    else:
        assert _make_kind("SGDM", args) == OptimizerKind.sgdm()
