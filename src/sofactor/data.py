"""Loading, indexing, splitting, and synthesis of sparse QoS observation data.

A QoS matrix is huge and mostly unobserved, so datasets are kept as
coordinate lists: one (user, service, value) triple per known cell.
Two text formats are supported:

* dense matrix: one row per line, whitespace-separated reals, any
  strictly negative cell means "missing" (the public response-time
  data uses -1 for unmeasured invocations);
* triples: one "user service value" record per line, ``#`` lines are
  comments.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sddmm import sampled_dots


# The array-holding types here (and FactorState, CgResult) are declared
# eq=False: the generated __eq__ would compare ndarray fields and raise,
# so equality is identity.
@dataclass(frozen=True, eq=False)
class TripleSet:
    """The known set of a user-by-service matrix, stored as parallel arrays.

    ``users``, ``services`` and ``values`` have one entry per observation,
    in file/order of construction. Invariants checked on construction:
    ids in range, values finite, no duplicate (user, service) pair.
    """

    num_users: int
    num_services: int
    users: np.ndarray
    services: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "users", np.ascontiguousarray(self.users, dtype=np.int64))
        object.__setattr__(self, "services", np.ascontiguousarray(self.services, dtype=np.int64))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        if not (len(self.users) == len(self.services) == len(self.values)):
            raise ValueError("users/services/values length mismatch")
        if self.num_users < 0 or self.num_services < 0:
            raise ValueError("negative dimensions")
        if len(self.users) > 0:
            if self.users.min() < 0 or self.services.min() < 0:
                raise ValueError("negative id")
            if self.users.max() >= self.num_users:
                raise ValueError(f"user id {self.users.max()} out of range (num_users={self.num_users})")
            if self.services.max() >= self.num_services:
                raise ValueError(f"service id {self.services.max()} out of range (num_services={self.num_services})")
            if not np.isfinite(self.values).all():
                raise ValueError("non-finite observation value")
            # duplicate (u, s) detection via lexicographic sort
            order = np.lexsort((self.services, self.users))
            uu, ss = self.users[order], self.services[order]
            dup = (uu[1:] == uu[:-1]) & (ss[1:] == ss[:-1])
            if dup.any():
                j = order[1:][dup][0]
                raise ValueError(f"duplicate (user, service) pair ({self.users[j]}, {self.services[j]})")

    def __len__(self) -> int:
        return len(self.users)

    def subset(self, obs_indices: np.ndarray) -> "TripleSet":
        """New TripleSet with the selected observations, same dimensions."""
        idx = np.asarray(obs_indices, dtype=np.int64)
        return TripleSet(self.num_users, self.num_services,
                         self.users[idx], self.services[idx], self.values[idx])


@dataclass(frozen=True, eq=False)
class RaggedIndex:
    """Observations grouped by one entity (all users or all services).

    The grouping is the structure of a CSR matrix of ``shape`` (this
    entity by the other one): group ``i`` holds observations
    ``order[indptr[i]:indptr[i+1]]``, in their original order (stable
    grouping), and ``indices`` holds the other entity's id for each of
    them. ``indices`` and ``indptr`` are in scipy's own index dtype for
    ``shape``, so ``weighted_sums`` pairs them with fresh data without
    a per-call range scan or cast; nothing ever writes to them.
    """

    shape: tuple
    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        "Observations per group, as int64 whatever scipy's index dtype."
        return np.diff(self.indptr).astype(np.int64)

    def weighted_sums(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """out[i] = sum over k in group i of weights[k] * rows[j_k], where
        j_k is the other entity's id of observation k.

        weights is per-observation (len |K|); rows has one row per id of
        the other entity.
        """
        m = sp.csr_matrix((np.asarray(weights, dtype=np.float64)[self.order],
                           self.indices, self.indptr), shape=self.shape)
        return m @ rows


@dataclass(frozen=True, eq=False)
class IndexedDataset:
    """A TripleSet plus per-user and per-service observation indices.

    ``by_user`` groups the observations touching each user u (its known
    set K_u); ``by_service`` likewise for services. The groupings double as
    fixed sparsity structure for the weighted accumulations used by
    gradients and curvature products, so they are precomputed once
    here. Immutable after construction; safe for shared reads.
    """

    base: TripleSet
    by_user: RaggedIndex
    by_service: RaggedIndex
    role: str = ""

    def __len__(self) -> int:
        return len(self.base)

    @property
    def user_counts(self) -> np.ndarray:
        return self.by_user.counts

    @property
    def service_counts(self) -> np.ndarray:
        return self.by_service.counts

    def user_weighted_sums(self, weights: np.ndarray, service_rows: np.ndarray) -> np.ndarray:
        """out[u] = sum over k in K_u of weights[k] * service_rows[service_k].

        weights is per-observation (len |K|); service_rows is (num_services, f).
        """
        return self.by_user.weighted_sums(weights, service_rows)

    def service_weighted_sums(self, weights: np.ndarray, user_rows: np.ndarray) -> np.ndarray:
        """out[s] = sum over k in K_s of weights[k] * user_rows[user_k]."""
        return self.by_service.weighted_sums(weights, user_rows)


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """Disjoint train/validation/test partition of one TripleSet."""

    train: IndexedDataset
    validation: IndexedDataset
    test: IndexedDataset
    seed: int


def _grouped(ids: np.ndarray, other_ids: np.ndarray, shape: tuple) -> RaggedIndex:
    order = np.argsort(ids, kind="stable").astype(np.int64)
    offsets = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=shape[0]), out=offsets[1:])
    # built through scipy so that its index-dtype choice for shape holds
    m = sp.csr_matrix((np.zeros(len(order)), other_ids[order], offsets), shape=shape)
    return RaggedIndex(shape=shape, order=order, indices=m.indices, indptr=m.indptr)


def build_index(t: TripleSet, role: str = "") -> IndexedDataset:
    """Group observation indices by user and by service.

    Total on any valid TripleSet; preserves observation order inside
    every group.
    """
    return IndexedDataset(
        base=t, role=role,
        by_user=_grouped(t.users, t.services, (t.num_users, t.num_services)),
        by_service=_grouped(t.services, t.users, (t.num_services, t.num_users)))


def load_dense_matrix(path) -> TripleSet:
    """Parse a whitespace-separated dense matrix file into a TripleSet.

    Row index = user id, column index = service id. Any strictly
    negative cell is treated as missing and not stored. Raises
    ValueError with the offending line number on ragged rows or
    non-numeric tokens; I/O problems propagate as OSError.
    """
    rows = []
    num_cols = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            tokens = raw.split()
            try:
                row = np.array(tokens, dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric token") from None
            if num_cols is None:
                num_cols = len(row)
            elif len(row) != num_cols:
                raise ValueError(
                    f"{path}:{line_no}: expected {num_cols} columns, got {len(row)}")
            rows.append(row)
    if not rows:
        return TripleSet(0, 0, np.empty(0, np.int64), np.empty(0, np.int64),
                         np.empty(0, np.float64))
    matrix = np.vstack(rows)
    users, services = np.nonzero(matrix >= 0)
    return TripleSet(matrix.shape[0], matrix.shape[1],
                     users.astype(np.int64), services.astype(np.int64),
                     matrix[users, services])


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


def load_triples(path) -> TripleSet:
    """Parse a "user service value" triple file.

    Blank lines and ``#`` comments are skipped. Ids are 0-based dense
    integers; dimensions are inferred as 1 + max id. Duplicate
    (user, service) pairs and malformed or negative-id lines raise
    ValueError with their line number; an empty file has no inferable
    dimensions and is rejected.
    """
    users, services, values = [], [], []
    seen: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ValueError(f"{path}:{line_no}: expected 'user service value'")
            try:
                u, s, v = int(tokens[0]), int(tokens[1]), float(tokens[2])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: malformed record") from None
            if u < 0 or s < 0:
                raise ValueError(f"{path}:{line_no}: negative id")
            if not math.isfinite(v):
                raise ValueError(f"{path}:{line_no}: non-finite value")
            if (u, s) in seen:
                raise ValueError(
                    f"{path}:{line_no}: duplicate pair ({u}, {s}), first seen on line {seen[(u, s)]}")
            seen[(u, s)] = line_no
            users.append(u)
            services.append(s)
            values.append(v)
    if not users:
        raise ValueError(f"{path}: no observations")
    return TripleSet(max(users) + 1, max(services) + 1,
                     np.array(users, np.int64), np.array(services, np.int64),
                     np.array(values, np.float64))


def write_triples(path, t: TripleSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {t.num_users} users, {t.num_services} services, {len(t)} observations\n")
        for u, s, v in zip(t.users, t.services, t.values):
            fh.write(f"{u} {s} {float(v)!r}\n")


def sniff_format(path) -> str:
    """Guess dense vs triples from the first data line.

    Exactly three tokens with integer ids reads as triples; anything
    else as dense. Ambiguous files should state the format explicitly.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) == 3:
                try:
                    int(tokens[0]), int(tokens[1]), float(tokens[2])
                    return "triples"
                except ValueError:
                    return "dense"
            return "dense"
    return "triples"


def load_dataset(path, fmt: str = "auto") -> TripleSet:
    """Load a dataset file in either supported format.

    fmt is "dense", "triples", or "auto" to sniff from the content. A
    missing file raises FileNotFoundError describing what was expected.
    """
    if fmt not in ("auto", "dense", "triples"):
        raise ValueError(f"unknown dataset format {fmt!r}")
    if not os.path.isfile(path):
        raise FileNotFoundError(
            f"dataset file not found: {path} (expected a text file holding "
            f"either a whitespace-separated dense matrix with negative "
            f"entries marking missing cells, or 'user service value' "
            f"triples, one per line)")
    if fmt == "auto":
        fmt = sniff_format(path)
    if fmt == "dense":
        return load_dense_matrix(path)
    return load_triples(path)


def split(t: TripleSet, train_frac: float, val_frac: float, seed: int) -> SplitDataset:
    """Partition a TripleSet into train/validation/test by a seeded shuffle.

    Sizes are floor(|t| * train_frac) and floor(|t| * val_frac); the test
    part takes the remainder. Same seed, same input -> identical split.
    """
    if not (0 < train_frac < 1 and 0 < val_frac < 1):
        raise ValueError("fractions must lie in (0, 1)")
    if train_frac + val_frac > 1:
        raise ValueError("train_frac + val_frac must not exceed 1")
    n = len(t)
    n_train = math.floor(n * train_frac)
    n_val = math.floor(n * val_frac)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"{n} observations cannot give every part >= 1 element "
            f"(sizes {n_train}/{n_val}/{n_test})")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitDataset(
        train=build_index(t.subset(perm[:n_train]), role="train"),
        validation=build_index(t.subset(perm[n_train:n_train + n_val]), role="validation"),
        test=build_index(t.subset(perm[n_train + n_val:]), role="test"),
        seed=seed)


def synth_lowrank(num_users: int, num_services: int, rank: int, density: float,
                  noise_sigma: float, seed: int,
                  init_lo: float = 0.0, init_hi: float = 0.04):
    """Generate a low-rank observation set plus its ground-truth factors.

    Ground-truth factors are sampled uniformly from [init_lo, init_hi),
    matching the default initialization range of training. Observed
    cells are a seeded sample without replacement at the given density;
    each value is the factor inner product plus N(0, noise_sigma^2)
    noise. Returns (TripleSet, FactorState).
    """
    from .model import FactorState  # deferred: model builds on this module

    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not (0 < density <= 1):
        raise ValueError("density must lie in (0, 1]")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if not init_lo < init_hi:
        raise ValueError("init_lo must be < init_hi")
    rng = np.random.default_rng(seed)
    user_factors = rng.uniform(init_lo, init_hi, size=(num_users, rank))
    service_factors = rng.uniform(init_lo, init_hi, size=(num_services, rank))
    n_cells = num_users * num_services
    n_obs = math.floor(n_cells * density)
    cells = rng.choice(n_cells, size=n_obs, replace=False)
    users = (cells // num_services).astype(np.int64)
    services = (cells % num_services).astype(np.int64)
    values = sampled_dots(users, services, ((user_factors, service_factors),))
    if noise_sigma > 0:
        values = values + rng.normal(0.0, noise_sigma, size=n_obs)
    data = TripleSet(num_users, num_services, users, services, values)
    truth = FactorState(f=rank, user_factors=user_factors,
                        service_factors=service_factors)
    return data, truth
