"""Loading, indexing, splitting, and synthesis of sparse QoS observation data.

A QoS matrix is huge and mostly unobserved, so datasets are kept as
coordinate lists: one (user, service, value) triple per known cell.
Two text formats are supported:

* dense matrix: one row per line, whitespace-separated reals, any
  strictly negative cell means "missing" (the public response-time
  data uses -1 for unmeasured invocations);
* triples: one "user service value" record per line; ``#`` starts a
  comment that runs to the end of its line, and blank lines are skipped.

Both loaders parse with ``np.loadtxt``: ids are decimal integers with an
optional sign, values decimal or exponent reals; ``1_0`` and ``0x10`` are
rejected. ``nan`` and ``inf`` parse: a triple holding one is rejected,
and in a dense file ``inf`` is rejected while ``nan`` and ``-inf``, being
not >= 0, are missing cells.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .sddmm import BLOCK_ROWS, check_integer, run_spans, sampled_dots, span_bounds

_INT64_MAX = int(np.iinfo(np.int64).max)
# Set-up runs on the calling thread, and its passes go a block at a time,
# so that they hold nothing of one entry per observation beyond their
# outputs. The passes that add positions read them from one shared arange
# of SETUP_BLOCK entries (128 KiB) and allocate nothing per block; the
# gathers that make a temporary go BLOCK_ROWS at a time, so each of their
# temporaries stays at 16 KiB.
SETUP_BLOCK = 16_384
_TRIPLE = np.dtype([("u", "i8"), ("s", "i8"), ("v", "f8")])
_ID = re.compile(r"[+-]?[0-9]+")


# The array-holding types here (and FactorState, CgResult) are declared
# eq=False: the generated __eq__ would compare ndarray fields and raise,
# so equality is identity.
@dataclass(frozen=True, eq=False)
class TripleSet:
    """The known set of a user-by-service matrix, stored as parallel arrays.

    ``users``, ``services`` and ``values`` have one entry per observation,
    in file/order of construction: contiguous ids in the narrowest signed
    integer type that holds both dimensions (``_id_dtype``: int16 up to
    32,767, as on the WS-DREAM shape, int32 up to 2^31 - 1, else int64)
    and float64 values, 12 bytes per observation with int16 ids and 16
    with int32 ones. Every sum or product of ids is formed in int64 or
    in Python ints, never in the ids' own dtype. Invariants checked on
    construction: integer dimensions and, unless there are no
    observations, an integer id dtype (a float or bool id is rejected,
    not truncated), ids in range, values finite, no duplicate (user,
    service) pair, and ``max(num_users * num_services, max(num_users,
    num_services) * len)`` within int64, so that the sort keys of the
    duplicate check and of ``build_index``, formed in int64, are exact.
    The ids are range-checked as the caller gave them, read as int64,
    before they are narrowed: a narrowing cast would wrap silently.
    A uint64 id above 2^63 - 1 is named out of range before that read,
    which would wrap it to a negative one.

    Two callers inside this module build sets whose contents already
    hold these invariants through ``_trusted``, which keeps the dtype
    normalisation and the O(1) checks but skips the scans and the sort:
    ``split``, whose parts are disjoint slices of a valid set, and
    ``load_dense_matrix``, whose cells are distinct and in range by
    construction and whose values it checks itself.
    """

    num_users: int
    num_services: int
    users: np.ndarray
    services: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # checked before any cast: int() truncates 2.5, and a float or
        # bool id array would be truncated or read as 0 and 1
        for name in ("num_users", "num_services"):
            check_integer(name, getattr(self, name))
        nu, ns = int(self.num_users), int(self.num_services)
        dims = (("users", nu), ("services", ns))
        for name, dim in dims:
            ids = np.asarray(getattr(self, name))
            if ids.size and ids.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integer ids, got dtype {ids.dtype}")
            # the int64 cast below would wrap such an id to a negative one;
            # no dimension of a valid set reaches it
            if ids.size and ids.dtype == np.uint64 and ids.max() > _INT64_MAX:
                _check_below(name, ids, dim)
        self._normalise(np.int64)
        if len(self) > 0:
            if self.users.min() < 0 or self.services.min() < 0:
                raise ValueError("negative id")
            for name, dim in dims:
                _check_below(name, getattr(self, name), dim)
        self._normalise(_id_dtype(nu, ns))  # the ids are in range: narrowing keeps them
        if len(self) > 0:
            if not np.isfinite(self.values).all():
                raise ValueError("non-finite observation value")
            # sorted pair keys; equal neighbours are a repeated pair, and the
            # first of them is the smallest such (user, service)
            keys = np.multiply(self.users, ns, dtype=np.int64)
            keys += self.services
            keys.sort()
            dup = keys[1:] == keys[:-1]
            if dup.any():
                u, s = divmod(int(keys[np.argmax(dup)]), ns)
                raise ValueError(f"duplicate (user, service) pair ({u}, {s})")

    def _normalise(self, id_dtype):
        "Contiguous id_dtype ids and float64 values, and the checks that take O(1)."
        object.__setattr__(self, "users", np.ascontiguousarray(self.users, dtype=id_dtype))
        object.__setattr__(self, "services", np.ascontiguousarray(self.services, dtype=id_dtype))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        if not (len(self.users) == len(self.services) == len(self.values)):
            raise ValueError("users/services/values length mismatch")
        nu, ns, n = int(self.num_users), int(self.num_services), len(self.users)
        if nu < 0 or ns < 0:
            raise ValueError("negative dimensions")
        # users * ns + services is below nu * ns, and _grouped's
        # ids * n + position below max(nu, ns) * n
        if max(nu * ns, max(nu, ns) * n) > _INT64_MAX:
            raise ValueError(
                f"{nu} x {ns} matrix with {n} observations is too large for int64 sort keys")

    def __len__(self) -> int:
        return len(self.users)


def _check_below(name: str, ids: np.ndarray, dim: int) -> None:
    "Name the largest of the non-empty ids if it is not below dim."
    top = ids.max()
    if top >= dim:
        raise ValueError(f"{name[:-1]} id {top} out of range (num_{name}={dim})")


def _id_dtype(num_users: int, num_services: int):
    """The dtype of a TripleSet's ids: the narrowest signed integer type
    that holds both dimensions, so every id and every ``id + 1``: int16
    when both are at most 32,767, int32 up to 2^31 - 1, else int64."""
    for dtype in (np.int16, np.int32):
        if max(num_users, num_services) <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _trusted(num_users, num_services, users, services, values) -> TripleSet:
    """A TripleSet whose ids the caller knows to be in range and pairwise
    distinct, and whose values it knows to be finite: built without the
    scans and the duplicate sort of the public constructor."""
    t = object.__new__(TripleSet)
    t.__dict__.update(num_users=num_users, num_services=num_services,
                      users=users, services=services, values=values)
    t._normalise(_id_dtype(int(num_users), int(num_services)))
    return t


@dataclass(frozen=True, eq=False)
class RaggedIndex:
    """Observations grouped by one entity (all users or all services).

    The grouping is the structure of a CSR matrix of ``shape`` (this
    entity by the other one). Its group order is the stable grouping of
    the observations by this entity's id: group ``i`` holds positions
    ``indptr[i]:indptr[i+1]``, its observations in their original order,
    and ``indices`` holds the other entity's id at each position. The
    order itself (which observation sits at each position) is not kept:
    only the build of the user-major view reads it (``_work_order``).
    ``indices`` and ``indptr`` are in scipy's own index dtype for
    ``shape``, so ``weighted_sums`` pairs them with fresh data without
    a per-call range scan or cast; nothing ever writes to them.
    """

    shape: tuple
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        "Observations per group, as int64 whatever scipy's index dtype."
        return np.diff(self.indptr).astype(np.int64)

    def weighted_sums(self, weights: np.ndarray, rows: np.ndarray,
                      positions=None, out=None) -> np.ndarray:
        """out[i] = sum over the observations k of group i of
        weights[k] * rows[j_k], where j_k is the other entity's id of k.

        weights holds one entry per observation in this index's group
        order (entry p belongs to the observation at position p, whose
        other id is ``indices[p]``); rows has one row per id of the other
        entity. With ``positions``, one entry per observation, weights is
        in another order and entry p is ``weights[positions[p]]`` instead.
        out, if given, receives the sums and is returned.

        Chunks of groups run on the pool of ``sddmm``, split at the first
        group at or after each inner bound of ``span_bounds(nnz)`` (equal
        splits merge). A chunk sums BLOCK_ROWS groups at a time as a CSR
        matrix over views of this index, gathering their weights through
        ``positions``; no group's sum depends on the chunk or block.
        """
        indptr = self.indptr
        nnz = int(indptr[-1])
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (nnz,):
            raise ValueError(f"{weights.shape} weights for {nnz} observations")
        if positions is not None and positions.shape != (nnz,):
            raise ValueError(f"{positions.shape} positions for {nnz} observations")
        rows = np.ascontiguousarray(rows)  # each chunk's product reads it flat
        shape = (self.shape[0],) + rows.shape[1:]
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")

        def chunk(lo, hi):
            for start in range(lo, hi, BLOCK_ROWS):  # a block's product stays small
                stop = min(start + BLOCK_ROWS, hi)
                a, b = indptr[start], indptr[stop]
                w = weights[a:b] if positions is None else weights.take(positions[a:b])
                m = sp.csr_matrix((w, self.indices[a:b], indptr[start:stop + 1] - a),
                                  shape=(stop - start, self.shape[1]))
                out[start:stop] = m @ rows

        starts = np.searchsorted(indptr, span_bounds(nnz)[:-1])
        run_spans(chunk, np.unique(np.append(starts, self.shape[0])))
        return out


@dataclass(frozen=True, eq=False)
class UserMajorOrder:
    """The work order of per-observation vectors in training passes.

    It is ``by_user``'s group order: the observations grouped by user, in
    stored order inside each user. ``users``, ``services`` and ``values``
    give the ids and the observed value at each position, and
    ``to_service`` maps the positions onto ``by_service``'s group order
    (``w[to_service]`` is w in that order). The ids and the map are in
    the CSR index dtype of the dataset's groupings; ``services`` is
    ``by_user.indices``, not a copy.
    """

    users: np.ndarray
    services: np.ndarray
    values: np.ndarray
    to_service: np.ndarray


@dataclass(frozen=True, eq=False)
class IndexedDataset:
    """A TripleSet plus per-user and per-service observation indices.

    ``by_user`` groups the observations touching each user u (its known
    set K_u); ``by_service`` likewise for services. The groupings double as
    fixed sparsity structure for the weighted accumulations used by
    gradients and curvature products.

    Per-observation vectors come in one of two orders. Stored order is
    that of ``base``; predictions, residuals and RMSE use it. User-major
    order (``user_major``) is the order of ``by_user``; the weighted
    sums take their weights in it, so the data gradient and J v, which
    feed them, are computed in it too.

    The two groupings and the view are built together (``_work_order``)
    and cached as one: the first read of any of them builds all three,
    which ``build_index`` does in set-up for a train part. A part that
    is only evaluated (predictions and RMSE read ``base`` alone) never
    builds them. Immutable apart from that cached build, which is
    idempotent; safe for shared reads.
    """

    base: TripleSet
    role: str = ""

    def __len__(self) -> int:
        return len(self.base)

    @cached_property
    def _built(self) -> tuple:
        "(by_user, by_service, user_major), built on first use and then cached."
        return _work_order(self.base)

    @property
    def by_user(self) -> RaggedIndex:
        "The observations grouped by user."
        return self._built[0]

    @property
    def by_service(self) -> RaggedIndex:
        "The observations grouped by service."
        return self._built[1]

    @property
    def user_major(self) -> UserMajorOrder:
        "The user-major work order."
        return self._built[2]

    def user_weighted_sums(self, weights: np.ndarray, service_rows: np.ndarray,
                           out=None) -> np.ndarray:
        """out[u] = sum over k in K_u of weights[k] * service_rows[service_k].

        weights is per-observation (len |K|) in user-major order;
        service_rows is (num_services, f). out, if given, receives the
        sums and is returned.
        """
        return self.by_user.weighted_sums(weights, service_rows, out=out)

    def service_weighted_sums(self, weights: np.ndarray, user_rows: np.ndarray,
                              out=None) -> np.ndarray:
        """out[s] = sum over k in K_s of weights[k] * user_rows[user_k],
        with weights in user-major order; each chunk of the sum gathers
        its own weights through ``user_major.to_service``."""
        return self.by_service.weighted_sums(weights, user_rows,
                                             positions=self.user_major.to_service, out=out)


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """Disjoint train/validation/test partition of one TripleSet."""

    train: IndexedDataset
    validation: IndexedDataset
    test: IndexedDataset


def _blocks(n: int, size: int):
    "The (start, stop) bounds of the blocks of range(n), size entries at most."
    return ((a, min(a + size, n)) for a in range(0, n, size))


def _grouped(ids: np.ndarray, other_ids: np.ndarray, shape: tuple) -> tuple:
    """Group observations by ``ids`` (each below ``shape[0]``), keeping
    their order inside each group: the grouping and its order, the
    observation at each position as int64 (``np.argsort(ids,
    kind="stable")``).

    The keys ``ids * n + position`` are unique and sort by id, then by
    position, so ``key % n`` is the stable grouping order whatever
    algorithm ``np.sort`` uses. They are formed in int64 whatever the
    ids' dtype, and TripleSet bounds every key to int64. The keys take
    their positions a block at a time, and the group bounds are found in
    the sorted keys. The gather of ``other_ids`` goes straight to scipy,
    which keeps it as its indices when it is in scipy's index dtype for
    ``shape`` and casts it otherwise (int16 ids widen to int32), so
    beside its outputs the build holds at most that gather.
    """
    n = len(ids)
    order = np.empty(n, dtype=np.int64)
    steps = np.arange(min(SETUP_BLOCK, n))  # block a's positions are a + steps
    for a, b in _blocks(n, SETUP_BLOCK):
        key = order[a:b]
        key[...] = ids[a:b]  # a cast by assignment needs no buffer
        key *= n
        key += steps[:b - a]
        key += a
    del steps
    order.sort()
    # group i starts at its first key at or above i * n
    offsets = np.searchsorted(order, np.arange(shape[0] + 1) * n)
    order %= n
    # scipy picks the index dtype for shape; its data is one zero, broadcast
    m = sp.csr_matrix((np.broadcast_to(0.0, n), other_ids.take(order), offsets), shape=shape)
    return RaggedIndex(shape=shape, indices=m.indices, indptr=m.indptr), order


def _work_order(t: TripleSet) -> tuple:
    """(by_user, by_service, user_major) of t, built in one pass.

    The view is the one reader of the groupings' orders, so no order
    outlives this build, and at most one is held at a time. The service
    side goes first, and its order leaves behind only each observation's
    position in service order (``in_service``). With the user side's
    order, each user-major position p then gathers its value and marks
    itself in ``to_service`` at the service-order position of its
    observation. The build peaks at 4 bytes per observation above what
    it keeps: the two groupings' ids, the view's user ids, values and
    ``to_service``, 24 bytes per observation.
    """
    n = len(t)
    by_service, order = _grouped(t.services, t.users, (t.num_services, t.num_users))
    dtype = by_service.indptr.dtype  # holds n, so every position fits
    arange = np.arange(n, dtype=dtype)
    in_service = np.empty(n, dtype=dtype)  # each observation's position in service order
    in_service[order] = arange
    del order
    by_user, order = _grouped(t.users, t.services, (t.num_users, t.num_services))
    to_service = np.empty(n, dtype=dtype)
    for a, b in _blocks(n, BLOCK_ROWS):  # the composed gather makes a temporary
        to_service[in_service.take(order[a:b])] = arange[a:b]
    del in_service, arange
    values = np.empty(n)
    # order is a permutation of range(n), so clip never clips; it lets
    # take() write into out= without a buffer
    np.take(t.values, order, out=values, mode="clip")
    del order
    indptr = by_user.indptr
    users = np.repeat(np.arange(len(indptr) - 1, dtype=dtype), np.diff(indptr))
    return by_user, by_service, UserMajorOrder(
        users=users, services=by_user.indices, values=values, to_service=to_service)


def build_index(t: TripleSet, role: str = "") -> IndexedDataset:
    """Build t's groupings by user and by service and its user-major
    view now, rather than on first use.

    Total on any valid TripleSet; preserves observation order inside
    every group.
    """
    d = IndexedDataset(base=t, role=role)
    d.user_major  # builds and caches the groupings with it
    return d


def _loadtxt(path, **kwargs) -> np.ndarray:
    "np.loadtxt in UTF-8, without its warning for a file that holds no data."
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, encoding="utf-8", **kwargs)


def _lines(path, comments: bool):
    """(line number, tokens) for each line of a text file, split on
    whitespace as np.loadtxt splits it; with ``comments``, everything from
    a ``#`` on is dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            yield line_no, (raw.split("#", 1)[0] if comments else raw).split()


def _count_lines(path) -> int:
    "Lines of a text file, counted as iterating over it counts them."
    count, last = 0, "\n"
    with open(path, "r", encoding="utf-8") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            count += chunk.count("\n")
            last = chunk[-1]
    return count + (last != "\n")


def _is_id(token: str) -> bool:
    "Whether np.loadtxt reads token as an int64."
    return _ID.fullmatch(token) is not None and -_INT64_MAX - 1 <= int(token) <= _INT64_MAX


def _is_real(token: str) -> bool:
    "Whether np.loadtxt reads token as a float64: float() without '_' or non-ASCII digits."
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_dense_matrix(path) -> TripleSet:
    """Parse a whitespace-separated dense matrix file into a TripleSet.

    Row index = user id, column index = service id. Any cell that is
    not >= 0 (negative, ``nan`` or ``-inf``) is treated as missing and
    not stored. Raises ValueError with the offending line number on
    ragged rows (a blank line has 0 columns), non-numeric tokens (``#``
    among them) or an ``inf`` cell; an empty or all-blank file is the
    empty 0 x 0 set. I/O problems propagate as OSError.
    """
    try:
        matrix = _loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise _dense_error(path, exc) from None
    if matrix.size == 0:
        return TripleSet(0, 0, np.empty(0, np.int64), np.empty(0, np.int64),
                         np.empty(0, np.float64))
    if len(matrix) != _count_lines(path):
        raise _dense_error(path, "np.loadtxt skipped a line") from None
    keep = matrix >= 0
    # np.nonzero(keep), from one flat scan, in the ids' final dtype: each
    # row's kept cells in row-major order, the row repeated once per kept
    # cell; the cell offsets users * cols are formed in int64
    rows, cols = matrix.shape
    dtype = _id_dtype(rows, cols)
    users = np.repeat(np.arange(rows, dtype=dtype), np.count_nonzero(keep, axis=1))
    services = np.empty(len(users), dtype=dtype)
    np.subtract(np.flatnonzero(keep), np.multiply(users, cols, dtype=np.int64),
                out=services, casting="same_kind")
    values = matrix[keep]  # row-major, the order of the ids
    finite = np.isfinite(values)
    if not finite.all():
        # no line was skipped (checked above), so row r is line r + 1
        row = int(users[np.argmin(finite)])
        raise ValueError(f"{path}:{row + 1}: non-finite value")
    # the ids name each cell of the matrix at most once, inside its
    # shape, and the kept values were just checked: _trusted's contract
    return _trusted(rows, cols, users, services, values)


def _dense_error(path, cause) -> ValueError:
    """The error naming the first bad line of a dense file, once loading
    has failed: a non-numeric token, or a column count unlike the first
    line's. Re-reads the file and builds no data."""
    num_cols = None
    for line_no, tokens in _lines(path, comments=False):
        if not all(map(_is_real, tokens)):
            return ValueError(f"{path}:{line_no}: non-numeric token")
        if num_cols is None:
            num_cols = len(tokens)
        elif len(tokens) != num_cols:
            return ValueError(f"{path}:{line_no}: expected {num_cols} columns, got {len(tokens)}")
    return ValueError(f"{path}: {cause}")


def load_triples(path) -> TripleSet:
    """Parse a "user service value" triple file.

    Blank lines are skipped, and ``#`` starts a comment that runs to the
    end of its line (so ``0 0 1.0 # note`` is a record). Ids are 0-based
    dense integers; dimensions are inferred as 1 + max id. A line that
    is not two ids and a real, a negative id, a non-finite value or a
    repeated (user, service) pair raises ValueError with its line
    number: the first line that does not parse, else the first record
    with a bad value or a repeated pair. An empty file has no inferable
    dimensions and is rejected.
    """
    try:
        rec = _loadtxt(path, dtype=_TRIPLE, comments="#", ndmin=1)
    except ValueError as exc:
        raise _triples_error(path, exc) from None
    if len(rec) == 0:
        raise ValueError(f"{path}: no observations")
    users, services, values = rec["u"], rec["s"], rec["v"]
    try:
        return TripleSet(int(users.max()) + 1, int(services.max()) + 1,
                         users, services, values)
    except ValueError as exc:
        raise _triples_error(path, exc, rec) from None


def _triples_error(path, cause, rec=None) -> ValueError:
    """The error naming the first bad line of a triples file, once
    loading has failed. Re-reads the file and builds no data.

    Without ``rec`` the file did not parse, and the first line that is
    not two ids and a real is named. ``rec`` holds the parsed records of
    a file that TripleSet rejected; then the first record with a
    negative id or a non-finite value is named, or, before it, the first
    one that repeats the pair of an earlier one.
    """
    rows = enumerate((n, tokens) for n, tokens in _lines(path, comments=True) if tokens)
    if rec is None:
        for _, (line_no, tokens) in rows:
            if len(tokens) != 3:
                return ValueError(f"{path}:{line_no}: expected 'user service value'")
            if not (_is_id(tokens[0]) and _is_id(tokens[1]) and _is_real(tokens[2])):
                return ValueError(f"{path}:{line_no}: malformed record")
        return ValueError(f"{path}: {cause}")
    u, s, v = rec["u"], rec["s"], rec["v"]
    bad = (u < 0) | (s < 0) | ~np.isfinite(v)
    row = int(np.argmax(bad)) if bad.any() else len(rec)
    first = None
    order = np.lexsort((s[:row], u[:row]))  # stable: equal pairs in row order
    same = (u[order[1:]] == u[order[:-1]]) & (s[order[1:]] == s[order[:-1]])
    if same.any():
        repeats, firsts = order[1:][same], order[:-1][same]
        k = np.argmin(repeats)
        row, first = int(repeats[k]), int(firsts[k])
    elif row == len(rec):
        return ValueError(f"{path}: {cause}")
    line = {k: line_no for k, (line_no, _) in islice(rows, row + 1) if k in (row, first)}
    if first is not None:
        return ValueError(f"{path}:{line[row]}: duplicate pair ({u[row]}, {s[row]}), "
                          f"first seen on line {line[first]}")
    what = "negative id" if u[row] < 0 or s[row] < 0 else "non-finite value"
    return ValueError(f"{path}:{line[row]}: {what}")


def write_triples(path, t: TripleSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {t.num_users} users, {t.num_services} services, {len(t)} observations\n")
        for u, s, v in zip(t.users, t.services, t.values):
            fh.write(f"{u} {s} {float(v)!r}\n")


def sniff_format(path) -> str:
    """Guess dense vs triples from the first data line.

    Exactly three tokens with integer ids reads as triples; anything
    else as dense. Comments are dropped as the triples loader drops
    them. Ambiguous files should state the format explicitly.
    """
    for _, tokens in _lines(path, comments=True):
        if tokens:
            if len(tokens) == 3 and _is_id(tokens[0]) and _is_id(tokens[1]) and _is_real(tokens[2]):
                return "triples"
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


def check_fractions(train_frac: float, val_frac: float) -> None:
    "Reject a train/validation fraction pair that split cannot honour."
    if not (0 < train_frac < 1 and 0 < val_frac < 1):
        raise ValueError("fractions must lie in (0, 1)")
    if train_frac + val_frac > 1:
        raise ValueError("train_frac + val_frac must not exceed 1")


def split(t: TripleSet, train_frac: float, val_frac: float, seed: int) -> SplitDataset:
    """Partition a TripleSet into train/validation/test by a seeded shuffle.

    Sizes are floor(|t| * train_frac) and floor(|t| * val_frac); the test
    part takes the remainder. Same seed, same input -> identical split:
    the parts hold t in the order of ``default_rng(seed).permutation(n)``,
    train first. They are contiguous slices of one buffer per column,
    12 or 16 bytes per observation as in t, and no permutation is held
    beside them: it is drawn into the values buffer, which the values
    then overwrite. Like all of set-up, it runs on the calling thread.
    Only the train part's groupings and user-major view are built here,
    in set-up (``build_index``); the validation and test parts build
    theirs on first use, if any, since evaluation reads only ``base``.
    """
    check_fractions(train_frac, val_frac)
    n = len(t)
    n_train = math.floor(n * train_frac)
    n_val = math.floor(n * val_frac)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"{n} observations cannot give every part >= 1 element "
            f"(sizes {n_train}/{n_val}/{n_test})")
    # one buffer per column, filled in permuted order; the permutation is
    # drawn into the values buffer as default_rng(seed).permutation(n)
    # draws it, an arange shuffled in place, and each block of the gather
    # overwrites its entries with the values they pick once all the ids
    # are gathered
    users = np.empty(n, dtype=t.users.dtype)
    services = np.empty(n, dtype=t.services.dtype)
    values = np.empty(n)
    perm = values.view(np.int64)
    steps = np.arange(min(SETUP_BLOCK, n))
    for a, b in _blocks(n, SETUP_BLOCK):
        np.add(steps[:b - a], a, out=perm[a:b])
    del steps
    np.random.default_rng(seed).shuffle(perm)
    # perm lies in range(n), so clip never clips
    np.take(t.users, perm, out=users, mode="clip")
    np.take(t.services, perm, out=services, mode="clip")
    for a, b in _blocks(n, BLOCK_ROWS):
        values[a:b] = t.values.take(perm[a:b])

    def part(lo, hi):
        # slices of one permutation's gathers, so the parts are disjoint
        # subsets of t: their ids lie in t's range, their pairs are
        # distinct and their values finite because t's are
        return _trusted(t.num_users, t.num_services, users[lo:hi], services[lo:hi], values[lo:hi])

    return SplitDataset(
        train=build_index(part(0, n_train), role="train"),
        validation=IndexedDataset(part(n_train, n_train + n_val), role="validation"),
        test=IndexedDataset(part(n_train + n_val, n), role="test"))


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
