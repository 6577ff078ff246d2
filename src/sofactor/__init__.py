"""sofactor: sparse QoS matrix completion with second-order latent factors."""

from .bench import BenchRow, BenchTable, GridPoint, GridPointResult, GridSpec, grid_search, run_benchmark
from .cg import CgResult, IndefiniteOperatorError, NonFiniteOperatorError, cg_solve
from .curvature import CurvatureContext
from .data import (
    IndexedDataset,
    RaggedIndex,
    SplitDataset,
    TripleSet,
    build_index,
    load_dataset,
    load_dense_matrix,
    load_triples,
    sniff_format,
    split,
    synth_lowrank,
    write_triples,
)
from .model import (
    FactorState,
    Hyperparams,
    gradient,
    init_factors,
    load_factors,
    objective,
    rmse,
    save_factors,
)
from .train import BestSnapshot, EpochRecord, OptimizerKind, TrainReport, train

__version__ = "0.1.0"

__all__ = [
    "BenchRow", "BenchTable", "GridPoint", "GridPointResult", "GridSpec",
    "grid_search", "run_benchmark",
    "CgResult", "IndefiniteOperatorError", "NonFiniteOperatorError", "cg_solve",
    "CurvatureContext",
    "IndexedDataset", "RaggedIndex", "SplitDataset", "TripleSet",
    "build_index", "load_dataset", "load_dense_matrix", "load_triples",
    "sniff_format", "split", "synth_lowrank", "write_triples",
    "FactorState", "Hyperparams", "gradient", "init_factors", "load_factors",
    "objective", "rmse", "save_factors",
    "BestSnapshot", "EpochRecord", "OptimizerKind", "TrainReport", "train",
    "__version__",
]
