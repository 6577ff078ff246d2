"""Command line front end.

Subcommands: ingest (dense matrix -> triples), synth, split, train,
grid, bench. Dataset paths that do not resolve locally are retried
against $SOFACTOR_DATA_DIR. All failures print one "error: ..." line to
stderr and exit 1; argparse usage problems exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import bench as bench_mod
from . import data as data_mod
from .model import Hyperparams, save_factors
from .train import OptimizerKind, train

DATA_DIR_ENV = "SOFACTOR_DATA_DIR"

# benchmark split recipes: label -> (train_frac, val_frac)
KNOWN_CONFIGS = {"d1": (0.10, 0.45), "d2": (0.20, 0.40)}

MODEL_ALIASES = {
    "m1": "SGDM", "sgdm": "SGDM",
    "m2": "SLF", "slf": "SLF",
    "m3": "DRSLF", "drslf": "DRSLF",
}


def resolve_data_path(path: str) -> str:
    if os.path.exists(path):
        return path
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def load_dataset(path: str, fmt: str = "auto") -> data_mod.TripleSet:
    return data_mod.load_dataset(resolve_data_path(path), fmt)


def _parse_model(label: str) -> str:
    key = label.strip().lower()
    if key not in MODEL_ALIASES:
        raise ValueError(f"unknown model {label!r} (use m1/sgdm, m2/slf, m3/drslf)")
    return MODEL_ALIASES[key]


def _make_kind(name: str, args) -> OptimizerKind:
    if name == "SGDM":
        return OptimizerKind.sgdm(args.learning_rate, args.momentum)
    return OptimizerKind(name=name)


def _float_list(text: str) -> tuple:
    vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise argparse.ArgumentTypeError("empty value list")
    return vals


def _int_list(text: str) -> tuple:
    vals = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not vals:
        raise argparse.ArgumentTypeError("empty value list")
    return vals


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset file (dense or triples)")
    p.add_argument("--format", choices=("auto", "dense", "triples"), default="auto")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    """One flag per Hyperparams field but the seed: --name with '_' as
    '-', with the field's default and that default's type.

    train and grid take the seed from the split's --seed; bench sets it
    per run from --seeds.
    """
    for fd in dataclasses.fields(Hyperparams):
        if fd.name != "seed":
            p.add_argument("--" + fd.name.replace("_", "-"),
                           type=type(fd.default), default=fd.default)


def _hyper_from_args(args) -> Hyperparams:
    given = vars(args)
    return Hyperparams(**{fd.name: given[fd.name]
                          for fd in dataclasses.fields(Hyperparams) if fd.name in given})


def cmd_ingest(args) -> int:
    t = data_mod.load_dense_matrix(resolve_data_path(args.input))
    data_mod.write_triples(args.out, t)
    print(f"wrote {len(t)} triples ({t.num_users} users x {t.num_services} services) to {args.out}")
    return 0


def cmd_synth(args) -> int:
    t, truth = data_mod.synth_lowrank(
        args.num_users, args.num_services, args.rank, args.density,
        args.noise_sigma, args.seed)
    data_mod.write_triples(args.out, t)
    if args.factors_out:
        save_factors(args.factors_out, truth)
    print(f"wrote {len(t)} synthetic triples to {args.out}")
    return 0


def cmd_split(args) -> int:
    t = load_dataset(args.data, args.format)
    sp = data_mod.split(t, args.train_frac, args.val_frac, args.seed)
    for part in ("train", "validation", "test"):
        out = f"{args.out}.{part}.txt"
        data_mod.write_triples(out, getattr(sp, part).base)
        print(f"wrote {len(getattr(sp, part))} observations to {out}")
    return 0


def cmd_train(args) -> int:
    t = load_dataset(args.data, args.format)
    sp = data_mod.split(t, args.train_frac, args.val_frac, args.seed)
    h = _hyper_from_args(args)
    kind = _make_kind(_parse_model(args.model), args)
    state, report = train(sp, h, kind)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv(include_timing=args.timing))
    if args.save_factors:
        save_factors(args.save_factors, state)
    print(report.summary())
    return 0


def cmd_grid(args) -> int:
    t = load_dataset(args.data, args.format)
    sp = data_mod.split(t, args.train_frac, args.val_frac, args.seed)
    h = _hyper_from_args(args)
    kind = _make_kind(_parse_model(args.model), args)
    grid = bench_mod.GridSpec(
        lambda_r1_values=args.lambda_r1_values,
        lambda_r2_values=args.lambda_r2_values,
        gamma_values=args.gamma_values,
        learning_rate_values=args.learning_rate_values,
        momentum_values=args.momentum_values,
        fixed=h)
    progress = None
    if args.progress:
        def progress(r):
            print(f"l1={r.lambda_r1} l2={r.lambda_r2} gamma={r.gamma} "
                  f"lr={r.learning_rate} m={r.momentum} "
                  f"val_rmse={r.val_rmse} [{r.status}]", file=sys.stderr)
    best, results = bench_mod.grid_search(sp, grid, kind, progress=progress)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(bench_mod.grid_results_csv(results))
    bh = best.hyperparams
    print(f"best: lambda_r1={bh.lambda_r1!r} lambda_r2={bh.lambda_r2!r} "
          f"gamma={bh.gamma!r} learning_rate={best.kind.learning_rate!r} "
          f"momentum={best.kind.momentum!r}")
    return 0


def cmd_bench(args) -> int:
    t = load_dataset(args.data, args.format)
    configs = []
    for token in args.datasets:
        token = token.strip()
        if token.lower() in KNOWN_CONFIGS:
            tf, vf = KNOWN_CONFIGS[token.lower()]
            configs.append((token.lower(), tf, vf))
        else:
            parts = token.split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"unknown dataset config {token!r} (use d1, d2 or label:train_frac:val_frac)")
            configs.append((parts[0], float(parts[1]), float(parts[2])))
    models = [_make_kind(_parse_model(m), args) for m in args.models]
    h = _hyper_from_args(args)
    table = bench_mod.run_benchmark(t, configs, list(args.seeds), models, h,
                                    log=sys.stderr if args.progress else None)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
    print(table.to_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sofactor",
        description="Sparse matrix completion with second-order latent factor models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a dense matrix file to triples")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic low-rank dataset")
    p.add_argument("--num-users", type=int, required=True)
    p.add_argument("--num-services", type=int, required=True)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--noise-sigma", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--factors-out", help="also dump the ground-truth factors (npz)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write train/validation/test triple files")
    _add_data_flags(p)
    p.add_argument("--train-frac", type=float, required=True)
    p.add_argument("--val-frac", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_split)

    for name in ("train", "grid"):
        p = sub.add_parser(name, help=f"{name} a model on one split")
        _add_data_flags(p)
        p.add_argument("--train-frac", type=float, default=0.10)
        p.add_argument("--val-frac", type=float, default=0.45)
        p.add_argument("--model", default="m3",
                       help="m1/sgdm, m2/slf or m3/drslf (default m3)")
        p.add_argument("--learning-rate", type=float, default=0.01)
        p.add_argument("--momentum", type=float, default=0.9)
        p.add_argument("--seed", type=int, default=0)
        _add_hyper_flags(p)
        p.add_argument("--out", help="write per-epoch CSV here" if name == "train"
                       else "write all grid points as CSV here")
        if name == "train":
            p.add_argument("--save-factors", help="dump the trained factors (npz)")
            p.add_argument("--timing", action="store_true",
                           help="include measured wall_ms in the CSV (breaks byte determinism)")
            p.set_defaults(func=cmd_train)
        else:
            p.add_argument("--progress", action="store_true",
                           help="log per-point progress to stderr")
            p.add_argument("--lambda-r1-values", type=_float_list,
                           default=bench_mod.GridSpec().lambda_r1_values)
            p.add_argument("--lambda-r2-values", type=_float_list,
                           default=bench_mod.GridSpec().lambda_r2_values)
            p.add_argument("--gamma-values", type=_float_list,
                           default=bench_mod.GridSpec().gamma_values)
            p.add_argument("--learning-rate-values", type=_float_list,
                           default=bench_mod.GridSpec().learning_rate_values)
            p.add_argument("--momentum-values", type=_float_list,
                           default=bench_mod.GridSpec().momentum_values)
            p.set_defaults(func=cmd_grid)

    # no prefix matching here: it would read a stray --seed N as --seeds N
    p = sub.add_parser("bench", help="multi-seed benchmark over models and splits",
                       allow_abbrev=False)
    _add_data_flags(p)
    p.add_argument("--datasets", type=lambda s: s.split(","), default=["d1"],
                   help="comma list: d1, d2 or label:train_frac:val_frac")
    p.add_argument("--models", type=lambda s: s.split(","), default=["m1", "m2", "m3"])
    p.add_argument("--seeds", type=_int_list, default=(0, 1, 2, 3, 4))
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    _add_hyper_flags(p)
    p.add_argument("--out", help="write the summary CSV here")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
