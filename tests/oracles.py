"""Reference implementations that the tests compare the library against,
and fixture writers that only the tests use."""

import numpy as np

from sofactor.data import IndexedDataset, TripleSet
from sofactor.model import FactorState


def predict(x: FactorState, u: int, s: int) -> float:
    "One prediction, the inner product of a user row and a service row."
    if not 0 <= u < x.num_users:
        raise IndexError(f"user id {u} out of range")
    if not 0 <= s < x.num_services:
        raise IndexError(f"service id {s} out of range")
    return float(x.user_factors[u] @ x.service_factors[s])


def write_dense_matrix(path, t: TripleSet, missing: float = -1.0) -> None:
    """Inverse of load_dense_matrix for sets whose dims match the matrix."""
    if missing >= 0:
        raise ValueError("missing sentinel must be negative")
    matrix = np.full((t.num_users, t.num_services), missing, dtype=np.float64)
    matrix[t.users, t.services] = t.values
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


def dense_gn_oracle(x: FactorState, data: IndexedDataset) -> np.ndarray:
    """Explicit J^T J, built row by row. Test oracle only.

    Refuses problems with more than 200 parameters; the point is an
    independent check of gn_hvp on tiny instances, not a usable path.
    """
    dim = x.dim
    if dim > 200:
        raise ValueError(f"dense oracle limited to 200 parameters, got {dim}")
    t = data.base
    jac = np.zeros((len(t), dim))
    f = x.f
    cut = x.num_users * f
    for k in range(len(t)):
        u = int(t.users[k])
        s = int(t.services[k])
        for d in range(f):
            jac[k, u * f + d] = x.service_factors[s, d]
            jac[k, cut + s * f + d] = x.user_factors[u, d]
    return jac.T @ jac
