"""Reference implementations that the tests compare the library against,
fixture writers and a memory probe that only the tests use."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from sofactor.data import IndexedDataset, RaggedIndex, TripleSet
from sofactor.model import FactorState, Hyperparams, residuals
from sofactor.sddmm import sampled_dots


def predict(x: FactorState, u: int, s: int) -> float:
    "One prediction, the inner product of a user row and a service row."
    if not 0 <= u < x.num_users:
        raise IndexError(f"user id {u} out of range")
    if not 0 <= s < x.num_services:
        raise IndexError(f"service id {s} out of range")
    return float(x.user_factors[u] @ x.service_factors[s])


def traced_peak(fn):
    """fn() and the peak, in bytes, of what tracemalloc saw allocated
    while it ran: its peak above the start, counting what it returns."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def write_reduced_inputs(directory) -> dict:
    """The reduced inputs, written into directory by the benchmark's own
    seeded writers (``perfbench/inputs.py``, loaded by path): a 120 x 800
    dense file of density 0.9 and 40,000 triples of 3000 x 2000, both at
    seed 0. Returns each one's ``{"path", "sha256"}`` by name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    directory = Path(directory)
    dense = inputs.write_dense(directory / "dense.txt", 0, 120, 800, 0.9)
    triples = inputs.write_triples(directory / "triples.txt", 0, 3000, 2000, 40_000)
    return {"dense": {"path": str(directory / "dense.txt"), "sha256": dense["sha256"]},
            "triples": {"path": str(directory / "triples.txt"), "sha256": triples["sha256"]}}


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


def grouping_order(ids: np.ndarray) -> np.ndarray:
    """The observation at each position of a grouping by ids: the stable
    argsort of the ids, observations sorted by id and kept in stored
    order inside each group. ``by_user``'s order is
    ``grouping_order(base.users)``, the user-major order."""
    return np.argsort(ids, kind="stable")


def _stored_order_sums(index: RaggedIndex, ids: np.ndarray, weights: np.ndarray,
                       rows: np.ndarray) -> np.ndarray:
    """Weighted sums over the grouping of ids, with weights in stored
    observation order."""
    m = sp.csr_matrix((weights[grouping_order(ids)], index.indices, index.indptr),
                      shape=index.shape)
    return m @ rows


def stored_order_data_gradient(x: FactorState, data: IndexedDataset) -> np.ndarray:
    """Data-term gradient from residuals in stored observation order, each
    weighted sum gathering them through its own grouping."""
    t = data.base
    r = residuals(x, t)
    gu = _stored_order_sums(data.by_user, t.users, -r, x.service_factors)
    gs = _stored_order_sums(data.by_service, t.services, -r, x.user_factors)
    return np.concatenate([gu.ravel(), gs.ravel()])


def stored_order_damped_hvp(x: FactorState, data: IndexedDataset, h: Hyperparams,
                            v: np.ndarray) -> np.ndarray:
    """(G_E + gamma*I) v with J v in stored observation order, and the L1
    product added even when lambda_r1 = 0."""
    t = data.base
    cut = x.num_users * x.f
    vu = v[:cut].reshape(x.num_users, x.f)
    vs = v[cut:].reshape(x.num_services, x.f)
    jv = sampled_dots(t.users, t.services,
                      ((vu, x.service_factors), (x.user_factors, vs)))
    out = np.concatenate([
        _stored_order_sums(data.by_user, t.users, jv, x.service_factors).ravel(),
        _stored_order_sums(data.by_service, t.services, jv, x.user_factors).ravel()])
    cu = data.by_user.counts[:, None].astype(np.float64)
    cs = data.by_service.counts[:, None].astype(np.float64)
    e = h.epsilon
    su, ss = x.user_factors * x.user_factors + e, x.service_factors * x.service_factors + e
    l1u = h.lambda_r1 * cu * e / (su * np.sqrt(su))  # (x^2 + eps)^(3/2), correctly rounded
    l1s = h.lambda_r1 * cs * e / (ss * np.sqrt(ss))
    out += np.concatenate([(l1u * vu).ravel(), (l1s * vs).ravel()])
    out += np.concatenate([(h.lambda_r2 * cu * vu).ravel(), (h.lambda_r2 * cs * vs).ravel()])
    if h.gamma != 0:
        out += h.gamma * v
    return out
