"""Command line behaviour, exercised in-process through main(argv)."""

import dataclasses

import pytest

from sofactor.cli import _hyper_from_args, build_parser, main, resolve_data_path
from sofactor.data import load_triples, sniff_format, synth_lowrank, write_triples
from sofactor.model import Hyperparams, load_factors

from oracles import write_dense_matrix


def write_synth_file(path, seed=0):
    t, _ = synth_lowrank(20, 24, rank=2, density=0.5, noise_sigma=0.05,
                         seed=seed, init_lo=0.2, init_hi=1.0)
    write_triples(path, t)
    return t


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
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("best: lambda_r1=")
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 4


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


# -------------------------------------------------------------------- errors

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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # --data is required
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "m.txt", "--out", "t.txt", "--seed", "0"],
    ["bench", "--data", "d.txt", "--seed", "0"],
    ["train", "--data", "d.txt", "--progress"],
])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
    h = _hyper_from_args(build_parser().parse_args(argv))
    assert h == Hyperparams(**given)
    for name, value in given.items():
        assert type(getattr(h, name)) is type(value)
        assert value != getattr(Hyperparams(), name)
