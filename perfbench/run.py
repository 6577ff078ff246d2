"""End-to-end and per-layer benchmark of the sofactor training pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload ws-drslf --seed 0 --seconds 35 --trace 0

The runner writes seeded input files (``inputs.py``), then repeats the
public library path

    data.load_dataset -> data.split -> train.train -> model.save_factors

until ``--seconds`` are used up, timing each call from outside and
checking every output. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced runs with runs traced
by ``spans.py`` and prints the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Inputs, span lists and a full result record
go to ``.perfbench_work/`` at the repository root.

The library is imported from ``src/`` of the same checkout and nowhere
else; without it the runner exits with status 2 and prints no result.
Everything runs in this one process, with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"  # test_rmse at DEFAULT_SEED
DEFAULT_SEED = 0
MIN_PIPELINES = 3  # setup_s is a median of several set-ups in one run

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: a second OpenBLAS thread spins on a 2-vCPU machine
# (epochs measured ~15% slower), and a serial dot product sums in the
# same order on any core count, so test_rmse repeats across machines.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS pin)

import inputs  # noqa: E402
import spans  # noqa: E402

# Each workload trains for a fixed epoch count (patience > epochs), so
# the work per run does not depend on when validation RMSE stalls.
# "regimes" are properties of the program at these settings, measured on
# these inputs, not harness bugs; every run prints them.
WORKLOADS = {
    "ws-drslf": {
        "input": ("dense", {"num_users": 339, "num_services": 5825, "density": 0.9}),
        "split": (0.10, 0.45),
        "optimizer": ("DRSLF", {}),
        "epochs": 4,
        "regimes": [
            "DRSLF takes a zero step in every epoch at paper defaults: the first CG iterate "
            "raises the residual max-norm, cg_solve returns its best-by-max-norm iterate, "
            "delta = 0 (cg.useful_step_ratio = 0, test_rmse stays at the initial model's)",
            "each epoch still makes cg_max_iters + 1 = 11 damped products",
        ],
    },
    "ws-sgdm": {
        "input": ("dense", {"num_users": 339, "num_services": 5825, "density": 0.9}),
        "split": (0.10, 0.45),
        "optimizer": ("SGDM", {"learning_rate": 0.001, "momentum": 0.9}),
        "epochs": 1,
        "regimes": [
            "curvature and cg are never called (their per-layer metrics are 0)",
            "the pure-Python SGD kernel runs because numba is not installed",
            "lr 0.001 (on GridSpec's default axes): at the CLI default lr 0.01 with momentum "
            "0.9, SGDM diverges in epoch 1 on these response-time-scaled values",
        ],
    },
    "sparse-slf": {
        "input": ("triples", {"num_users": 50000, "num_services": 20000, "num_obs": 2000000}),
        "split": (0.80, 0.10),
        "optimizer": ("SLF", {}),
        "epochs": 2,
        "regimes": [
            "SLF takes useful steps: |g|_inf is above tau = 10 and CG does one iteration per "
            "epoch, so the damped products run on 1.6M train observations",
            "the per-line triples parser dominates set-up",
        ],
    },
}


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import sofactor from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "sofactor" / "__init__.py").is_file():
        fail_setup(f"no library source under {src}")
    sys.path.insert(0, str(src))
    import sofactor  # noqa: F401

    if not Path(sofactor.__file__).resolve().is_relative_to(src):
        fail_setup(f"sofactor imported from {sofactor.__file__}, not from {src}")
    return sys.modules["sofactor.data"], sys.modules["sofactor.model"], sys.modules["sofactor.train"]


def machine_record() -> dict:
    import importlib.util

    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    numba = importlib.util.find_spec("numba")
    return {"nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numba": "absent" if numba is None else "present",
            "blas_threads": BLAS_THREADS, "platform": platform.platform()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """One workload at one seed: the inputs, the settings and every check."""

    def __init__(self, name: str, seed: int, libs):
        self.data, self.model, self.loop = libs
        self.w = WORKLOADS[name]
        self.seed = seed
        fmt, shape = self.w["input"]
        WORK.mkdir(exist_ok=True)
        self.input_path = WORK / f"{name}-seed{seed}.{fmt}.txt"
        self.factor_path = WORK / f"{name}-seed{seed}.npz"
        writer = inputs.write_dense if fmt == "dense" else inputs.write_triples
        self.input_record = writer(self.input_path, seed, **shape)
        self.fmt = fmt
        epochs = self.w["epochs"]
        self.h = self.model.Hyperparams(max_epochs=epochs, patience=epochs + 1, seed=seed)
        opt, knobs = self.w["optimizer"]
        self.kind = self.loop.OptimizerKind(name=opt, **knobs)
        self.first_csv = None
        self.first_test_rmse = None
        self.reference = None
        if seed == DEFAULT_SEED:
            with open(REFERENCE, encoding="utf-8") as fh:
                self.reference = json.load(fh)[name]

    def pipeline(self) -> dict:
        """The timed public path; module attributes are looked up per call
        so that the tracer's patches apply."""
        data, model, loop = self.data, self.model, self.loop
        frac_train, frac_val = self.w["split"]
        t0 = time.perf_counter()
        triples = data.load_dataset(self.input_path, self.fmt)
        parts = data.split(triples, frac_train, frac_val, self.seed)
        t1 = time.perf_counter()
        state, report = loop.train(parts, self.h, self.kind)
        t2 = time.perf_counter()
        model.save_factors(self.factor_path, state)
        t3 = time.perf_counter()
        return {"setup_s": t1 - t0, "train_s": t2 - t1, "total_s": t3 - t0,
                "triples": triples, "parts": parts, "state": state, "report": report}

    def check(self, run: dict) -> list[str]:
        """Every reason the outputs of one pipeline are wrong (empty if right)."""
        problems = []
        rec, triples, report = self.input_record, run["triples"], run["report"]
        if (triples.num_users, triples.num_services, len(triples)) != (
                rec["num_users"], rec["num_services"], rec["num_obs"]):
            problems.append("loaded shape or observation count differs from the generated file")
        if len(report.epochs) != self.w["epochs"] or report.stop_reason != "max_epochs":
            problems.append(f"ran {len(report.epochs)} epochs, stop_reason={report.stop_reason}")
        saved = self.model.load_factors(self.factor_path)
        state = run["state"]
        if not (np.array_equal(saved.user_factors, state.user_factors)
                and np.array_equal(saved.service_factors, state.service_factors)):
            problems.append("saved factors differ from the trained ones")
        test = run["parts"].test.base
        pred = (saved.user_factors[test.users] * saved.service_factors[test.services]).sum(axis=1)
        own = float(np.sqrt(np.mean((test.values - pred) ** 2)))
        got = report.final_test_rmse
        if not np.isfinite(got) or abs(own - got) > 1e-9 * own:
            problems.append(f"final_test_rmse {got!r} but the saved factors give {own!r}")
        csv = report.to_csv(include_timing=False)
        if self.first_csv is None:
            self.first_csv, self.first_test_rmse = csv, got
        elif csv != self.first_csv:
            problems.append("report CSV differs from the first repeat of this seed")
        if self.reference is not None and abs(got - self.reference) > 1e-9 * self.reference:
            problems.append(f"test_rmse {got!r} differs from the recorded {self.reference!r}")
        return problems


def measure(runner: Runner, seconds: float, traced_at) -> tuple[list, list, int]:
    """Repeat the pipeline until the next one would overrun ``seconds``,
    and at least MIN_PIPELINES times; pipeline i runs under a fresh
    tracer when ``traced_at(i)``. Returns (untraced runs, traced runs,
    number of failed attempts)."""
    plain, traced, failed = [], [], 0
    started = time.perf_counter()
    last = 0.0
    i = 0
    while i < MIN_PIPELINES or time.perf_counter() - started + last <= seconds:
        tracer = spans.Tracer() if traced_at(i) else None
        t = time.perf_counter()
        run = None
        try:
            if tracer is None:
                run = runner.pipeline()
            else:
                with tracer.installed():
                    run = runner.pipeline()
            problems = runner.check(run)
        except Exception:  # a pipeline that raised counts as a failed attempt
            traceback.print_exc()
            problems = ["raised"]
        last = time.perf_counter() - t
        i += 1
        if problems:
            failed += 1
            print(f"pipeline {i}: FAILED: {'; '.join(problems)}", file=sys.stderr)
            if run is None:
                break  # an exception on fixed inputs would only repeat
            continue
        print(f"pipeline {i}{' (traced)' if tracer else ''}: setup {run['setup_s']:.3f} s, "
              f"train {run['train_s']:.3f} s, total {run['total_s']:.3f} s")
        run = {"setup_s": run["setup_s"], "train_s": run["train_s"], "total_s": run["total_s"],
               "report": run["report"], "n_train": len(run["parts"].train), "tracer": tracer}
        (traced if tracer else plain).append(run)
    return plain, traced, failed


END_TO_END_UNITS = {"setup_s": "s", "epoch_ms": "ms", "total_s": "s",
                    "peak_rss_mb": "MB", "test_rmse": "s"}

PER_LAYER_UNITS = {
    "data.load_s": "s", "data.load_mb_per_s": "MB/s", "data.split_s": "s",
    "data.index_s": "s", "data.scatter_ms": "ms", "data.scatter_calls": "count",
    "model.gradient_ms": "ms", "model.rmse_val_ms": "ms", "model.rmse_train_ms": "ms",
    "model.save_ms": "ms",
    "curvature.ctx_build_ms": "ms", "curvature.hvp_ms": "ms", "curvature.hvp_calls": "count",
    "curvature.jv_ms": "ms", "curvature.jv_gb_per_s_computed": "GB/s",
    "cg.solve_ms": "ms", "cg.self_ms": "ms", "cg.iters": "count",
    "cg.products_per_iter": "ratio", "cg.useful_step_ratio": "ratio",
    "train.update_ms.p50": "ms", "train.sgd_obs_per_s": "1/s", "train.snapshot_ms": "ms",
    "train.loop_self_ms": "ms", "trace.overhead_s": "s",
}


def end_to_end(runner: Runner, runs: list) -> dict:
    """name -> list of per-pipeline samples (one sample for the run-wide ones).

    ``setup_s`` is load_dataset plus split (which builds the three
    indexes), ``epoch_ms`` train() wall time over the epoch count,
    ``total_s`` set-up, train and save_factors. ``peak_rss_mb`` is the
    process's peak RSS, input generation included, and ``test_rmse`` the
    report's final_test_rmse, deterministic for a seed.
    """
    epochs = runner.w["epochs"]
    return {
        "setup_s": [r["setup_s"] for r in runs],
        "epoch_ms": [r["train_s"] / epochs * 1e3 for r in runs],
        "total_s": [r["total_s"] for r in runs],
        "peak_rss_mb": [peak_rss_mb()],
        "test_rmse": [runner.first_test_rmse],
    }


UPDATE_SPANS = ("curvature.ctx_build", "model.gradient", "cg.solve")
MIN_UPDATE_COVERAGE = 0.8  # the rest of a second-order update is x.add_vector(delta)


def layer_sample(runner: Runner, run: dict, span_cost_s: float) -> tuple[dict, dict, dict]:
    """Per-layer values of one traced pipeline: (times, exact counts,
    self time per span name inside train()).

    A ``_ms`` value is the median duration of one call; hvp, jv and
    scatter run several times per epoch (see the call counts). Counts
    are span counts and CG results, not timings. ``cg.self_ms`` is a solve's
    time minus its operator products; ``train.loop_self_ms`` is train()'s
    own time per epoch, so the self times inside train() add up to its
    wall time by definition. ``trace.overhead_s`` is the span count times
    ``span_cost_s``, the measured cost of one wrapper around an empty call.
    A metric of a layer the workload never calls is 0.

    The check that can fail: the update spans of each epoch (context
    build, gradient and CG solve) must fit inside that epoch's
    ``EpochRecord.wall_ms``, and for DRSLF/SLF cover most of it.
    """
    tracer, sp = run["tracer"], run["tracer"].spans
    epochs = runner.w["epochs"]
    own = spans.self_times(sp)
    root = next(i for i, s in enumerate(sp) if s.name == "train")
    inside = spans.descendants(sp, root)
    durations = {}
    for s in sp:
        durations.setdefault(s.name, []).append(s.end - s.start)
    self_in_train = {}
    for i in inside:
        self_in_train[sp[i].name] = self_in_train.get(sp[i].name, 0.0) + own[i]

    records = run["report"].epochs
    update_s = [0.0]  # per epoch; "model.rmse.train" follows each epoch's update
    for s in sp:
        if s.parent == root and s.name in UPDATE_SPANS:
            update_s[-1] += s.end - s.start
        elif s.parent == root and s.name == "model.rmse.train":
            update_s.append(0.0)
    update_s.pop()
    wall_s = [r.wall_ms / 1e3 for r in records]
    if len(update_s) != len(wall_s) or any(u > w + 1e-9 for u, w in zip(update_s, wall_s)):
        raise RuntimeError(f"update spans {update_s} do not fit in the epoch wall times {wall_s}")
    if runner.kind.name != "SGDM" and sum(update_s) < MIN_UPDATE_COVERAGE * sum(wall_s):
        raise RuntimeError(f"update spans cover {sum(update_s) / sum(wall_s):.1%} "
                           f"of the epoch wall times, under {MIN_UPDATE_COVERAGE:.0%}")

    def ms(name):
        return statistics.median(durations[name]) * 1e3 if name in durations else 0.0

    solves = [own[i] for i in inside if sp[i].name == "cg.solve"]
    hvp_calls = len(durations.get("curvature.hvp", []))
    counts = {
        "data.scatter_calls": sum(1 for i in inside if sp[i].name == "data.scatter"),
        "curvature.hvp_calls": hvp_calls,
        "cg.iters": tracer.cg_iters,
        "cg.useful_step_ratio": tracer.useful_steps / len(solves) if solves else 0.0,
    }
    # J v reads four f-vectors (two gathered, two cached rows) and two
    # int64 ids per observation and writes one float64: computed, not measured
    jv_ms = ms("curvature.jv")
    jv_bytes = run["n_train"] * (4 * 8 * runner.h.f + 2 * 8 + 8)
    load_s = durations["data.load"][0]
    times = {
        "data.load_s": load_s,
        "data.load_mb_per_s": runner.input_record["file_bytes"] / 1e6 / load_s,
        "data.split_s": sum(own[i] for i, s in enumerate(sp) if s.name == "data.split"),
        "data.index_s": sum(durations["data.index"]),
        "data.scatter_ms": ms("data.scatter"),
        "model.gradient_ms": ms("model.gradient"),
        "model.rmse_val_ms": ms("model.rmse.validation"),
        "model.rmse_train_ms": ms("model.rmse.train"),
        "model.save_ms": ms("model.save"),
        "curvature.ctx_build_ms": ms("curvature.ctx_build"),
        "curvature.hvp_ms": ms("curvature.hvp"),
        "curvature.jv_ms": jv_ms,
        "curvature.jv_gb_per_s_computed": jv_bytes / 1e6 / jv_ms if jv_ms else 0.0,
        "cg.solve_ms": ms("cg.solve"),
        "cg.self_ms": statistics.median(solves) * 1e3 if solves else 0.0,
        "cg.products_per_iter": hvp_calls / tracer.cg_iters if tracer.cg_iters else 0.0,
        "train.update_ms.p50": statistics.median(r.wall_ms for r in records),
        "train.sgd_obs_per_s": (sum(r.inner_iters for r in records) / sum(wall_s)
                                if runner.kind.name == "SGDM" else 0.0),
        "train.snapshot_ms": ms("train.snapshot"),
        "train.loop_self_ms": self_in_train["train"] / epochs * 1e3,
        "trace.overhead_s": len(sp) * span_cost_s,
    }
    return times, counts, self_in_train


def per_layer(runner: Runner, traced: list) -> tuple[dict, dict]:
    """name -> samples over traced pipelines, plus the self-time table of
    the first traced pipeline. Exact counts must repeat exactly."""
    span_cost_s = spans.span_cost_s()
    samples, counts_seen, first_self = {}, [], None
    for run in traced:
        times, counts, self_in_train = layer_sample(runner, run, span_cost_s)
        for k, v in times.items():
            samples.setdefault(k, []).append(v)
        counts_seen.append(counts)
        first_self = first_self or self_in_train
    if any(c != counts_seen[0] for c in counts_seen):
        raise RuntimeError(f"exact counts differ between traced pipelines: {counts_seen}")
    samples.update({k: [v] for k, v in counts_seen[0].items()})
    return samples, first_self


def describe(name, unit, values) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{name} = {med!r} {unit}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{name} = {med!r} {unit} (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    libs = import_library()
    machine = machine_record()
    print("machine " + json.dumps(machine))
    runner = Runner(args.workload, args.seed, libs)
    print("input " + json.dumps(runner.input_record))
    print(f"workload {args.workload}")
    for regime in runner.w["regimes"]:
        print(f"  known regime: {regime}")
    print(f"rss after input generation: {peak_rss_mb():.1f} MB")

    try:
        traced_at = (lambda i: i % 2 == 0) if args.trace else (lambda i: False)
        plain, traced, failed = measure(runner, args.seconds, traced_at)
        attempted = len(plain) + len(traced) + failed
        self_table = None
        samples = {}  # no metrics from a run with a failed attempt
        if failed:
            pass
        elif args.trace:
            try:
                samples, self_table = per_layer(runner, traced)
            except RuntimeError as exc:  # counts that did not repeat, or spans outside their epoch
                print(f"trace check FAILED: {exc}", file=sys.stderr)
                failed = len(traced)
        else:
            samples = end_to_end(runner, plain)
    finally:
        runner.input_path.unlink(missing_ok=True)
        runner.factor_path.unlink(missing_ok=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, values in samples.items():
        print("metric " + describe(name, units[name], values))
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted!r}")
    if traced and plain:
        diff = (statistics.median(r["total_s"] for r in traced)
                - statistics.median(r["total_s"] for r in plain))
        print(f"traced minus untraced total_s = {diff:.3f} s (not resolved: the run-to-run "
              "spread of total_s is larger than the tracing cost)")
    if self_table:
        wall = sum(self_table.values())
        print(f"self time inside train() of the first traced pipeline ({wall * 1e3:.1f} ms):")
        for name, t in sorted(self_table.items(), key=lambda kv: -kv[1]):
            print(f"  {name:24s} {t * 1e3:10.1f} ms {t / wall:7.1%}")

    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    stem = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(spans.spans_jsonl((i, r["tracer"].spans) for i, r in enumerate(traced)))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "input": runner.input_record,
              "epochs": runner.w["epochs"], "optimizer": runner.w["optimizer"],
              "split": runner.w["split"], "regimes": runner.w["regimes"],
              "test_rmse": runner.first_test_rmse, "samples": samples,
              "self_s_in_train": self_table, "attempted": attempted, "failed": failed}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
