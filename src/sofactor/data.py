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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .sddmm import BLOCK_ROWS, check_integer, run_spans, sampled_dots, span_bounds

_INT64_MAX = int(np.iinfo(np.int64).max)
# Set-up runs on the calling thread, and its passes go a block at a time,
# so that they hold nothing of one entry per observation beyond their
# outputs. The passes that write positions take them SETUP_BLOCK at a time
# (at most 128 KiB), those that add them from one shared arange; the
# gathers that make a temporary go BLOCK_ROWS at a time, so each of their
# temporaries stays at 16 KiB.
SETUP_BLOCK = 16_384
_TRIPLE = np.dtype([("u", "i8"), ("s", "i8"), ("v", "f8")])
_ID = re.compile(r"[+-]?[0-9]+")
_ESCAPED = re.compile("[\udc80-\udcff]")  # the surrogateescape error handler's range


class TripleSet:
    """The known set of a user-by-service matrix, stored as parallel arrays.

    ``users``, ``services`` and ``values`` have one entry per observation,
    in file/order of construction: contiguous ids in the narrowest signed
    integer type that holds both dimensions (``_id_dtype``: int16 up to
    32,767, as on the WS-DREAM shape, int32 up to 2^31 - 1, else int64)
    and float64 values, 12 bytes per observation with int16 ids and 16
    with int32 ones. Every sum or product of ids is formed in int64 or
    in Python ints, never in the ids' own dtype. Equality is identity.

    Invariants checked on construction: integer dimensions, equal lengths,
    dimensions >= 0 and ``max(num_users * num_services, max(num_users,
    num_services) * len)`` within int64, so that the sort keys of the
    duplicate check and of ``build_index``, formed in int64, are exact;
    then, unless there are no observations, ids of an integer dtype and in
    range, values of an integer or float dtype and finite, and no repeated
    (user, service) pair. A float or bool dimension or id, and a bool,
    string or complex value, is rejected, not converted. Each array is
    checked once, in the dtype it arrives in; the set keeps a copy of it.

    ``_trusted`` builds the sets of three callers in this module whose
    contents already hold these invariants, ``split`` (disjoint slices of
    a valid set), ``_work_order`` (a valid set in another order) and
    ``load_dense_matrix`` (distinct cells in range, values it checks
    itself): it casts them, without the scans and the sort.
    """

    def __init__(self, num_users, num_services, users, services, values):
        # checked before any cast: int() truncates 2.5
        check_integer("num_users", num_users)
        check_integer("num_services", num_services)
        self.num_users = nu = int(num_users)
        self.num_services = ns = int(num_services)
        # ids are checked contiguous in the caller's dtype (faster than
        # strided) and replaced as they are cast, so no uncast copy outlives
        # its cast; each array kept is a copy, never the caller's
        self.users, self.services = map(np.ascontiguousarray, (users, services))
        self.values = np.array(values, ndmin=1)
        _check_sizes(nu, ns, len(self.users), len(self.services), len(self.values))
        if len(self) > 0:
            _check_ids("users", self.users, nu)
            _check_ids("services", self.services, ns)
            if self.values.dtype.kind not in "iuf":
                raise ValueError(f"values must be integer or float, got dtype {self.values.dtype}")
        id_dtype = _id_dtype(nu, ns)
        self.users = np.array(self.users, dtype=id_dtype)
        self.services = np.array(self.services, dtype=id_dtype)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
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

    def __len__(self) -> int:
        return len(self.users)


def _check_ids(name: str, ids: np.ndarray, dim: int) -> None:
    "Reject non-empty ids, in their own dtype, that are not integers in range(dim)."
    if ids.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer ids, got dtype {ids.dtype}")
    if ids.dtype.kind == "i" and ids.min() < 0:
        raise ValueError("negative id")
    top = ids.max()
    if top >= dim:
        raise ValueError(f"{name[:-1]} id {top} out of range (num_{name}={dim})")


def _check_sizes(nu: int, ns: int, *lengths: int) -> None:
    "The checks on a set's sizes, which take O(1): equal lengths, dimensions >= 0, int64 keys."
    if len(set(lengths)) > 1:
        raise ValueError("users/services/values length mismatch")
    if nu < 0 or ns < 0:
        raise ValueError("negative dimensions")
    # users * ns + services is below nu * ns, and _grouped's
    # ids * n + position below max(nu, ns) * n
    if max(nu * ns, max(nu, ns) * lengths[0]) > _INT64_MAX:
        raise ValueError(
            f"{nu} x {ns} matrix with {lengths[0]} observations is too large for int64 sort keys")


def _id_dtype(num_users: int, num_services: int):
    """The dtype of a TripleSet's ids: the narrowest signed integer type
    that holds both dimensions, so every id and every ``id + 1``: int16
    when both are at most 32,767, int32 up to 2^31 - 1, else int64."""
    for dtype in (np.int16, np.int32):
        if max(num_users, num_services) <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _trusted(num_users: int, num_services: int, users, services, values) -> TripleSet:
    """A TripleSet of ids the caller knows to be in range and pairwise
    distinct and of values it knows to be finite, cast as the constructor
    casts them. Of its checks only the O(1) size checks run: a dense
    file's shape alone does not bound the sort keys to int64."""
    t = TripleSet.__new__(TripleSet)
    t.num_users, t.num_services = num_users, num_services
    dtype = _id_dtype(num_users, num_services)
    t.users = np.ascontiguousarray(users, dtype=dtype)
    t.services = np.ascontiguousarray(services, dtype=dtype)
    t.values = np.ascontiguousarray(values, dtype=np.float64)
    _check_sizes(num_users, num_services, len(t.users), len(t.services), len(t.values))
    return t


# The array-holding dataclasses here (and CgResult) are declared eq=False:
# the generated __eq__ would compare ndarray fields and raise, so equality
# is identity.
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
    ``positions``, if set, maps this index's positions onto the order its
    weights come in (``w[positions]`` is w in group order): it is None on
    a dataset's ``by_user``, whose order is the weights', and set on its
    ``by_service``. ``indices``, ``indptr`` and ``positions`` are in
    scipy's own index dtype for ``shape``, so ``weighted_sums`` pairs
    them with fresh data without a per-call range scan or cast; nothing
    ever writes to them.
    """

    shape: tuple
    indices: np.ndarray
    indptr: np.ndarray
    positions: np.ndarray | None = None

    @property
    def counts(self) -> np.ndarray:
        "Observations per group, as int64 whatever scipy's index dtype."
        return np.diff(self.indptr).astype(np.int64)

    def weighted_sums(self, weights: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
        """out[i] = sum over the observations k of group i of
        weights[k] * rows[j_k], where j_k is the other entity's id of k.

        weights holds one entry per observation in this index's group
        order (entry p belongs to the observation at position p, whose
        other id is ``indices[p]``); rows has one row per id of the other
        entity. With ``positions``, weights is in another order and entry
        p is ``weights[positions[p]]`` instead. out, if given, receives
        the sums and is returned.

        Chunks of groups run on the pool of ``sddmm``, split at the first
        group at or after each inner bound of ``span_bounds(nnz)`` (equal
        splits merge). A chunk sums BLOCK_ROWS groups at a time as a CSR
        matrix over views of this index, gathering their weights through
        ``positions``; no group's sum depends on the chunk or block.
        """
        indptr, positions = self.indptr, self.positions
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
class IndexedDataset:
    """A TripleSet plus per-user and per-service observation indices.

    ``by_user`` groups the observations touching each user u (its known
    set K_u); ``by_service`` likewise for services. The groupings double as
    fixed sparsity structure for the weighted accumulations used by
    gradients and curvature products.

    Per-observation vectors come in one of two orders. Stored order is
    that of ``base``; predictions, residuals and RMSE use it. User-major
    order is the order of ``by_user``; the weighted sums take their
    weights in it (``by_service`` through its ``positions``), so the data
    gradient and J v, which feed them, are computed in it too.
    ``user_major`` is ``base`` in that order: a TripleSet of the same
    observations, its ids in ``base``'s dtype.

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
    def user_major(self) -> TripleSet:
        "The observations of ``base`` in user-major order."
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
        its own weights through ``by_service.positions``."""
        return self.by_service.weighted_sums(weights, user_rows, out=out)


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
    outlives this build. The service side's order is kept, narrowed to
    scipy's index dtype; one scatter of the user side's order gives each
    observation its user-major position (``in_user``), and those gathered
    in service order, in place, are ``by_service.positions``. The view
    is a TripleSet with ids in t's dtype: its services are
    ``by_user.indices`` itself when that dtype is scipy's index dtype,
    else a narrower copy. The build peaks at 4 bytes per observation
    above what it keeps: the two groupings' ids (4 + 4),
    ``by_service.positions`` (4), the view's values (8) and ids (2 + 2
    with int16 ids, 4 + 0 with int32 ones), 24 bytes per observation.
    """
    n = len(t)
    by_service, order = _grouped(t.services, t.users, (t.num_services, t.num_users))
    dtype = by_service.indptr.dtype  # holds n, so every position fits
    positions = order.astype(dtype)  # the service order, until overwritten below
    del order
    by_user, order = _grouped(t.users, t.services, (t.num_users, t.num_services))
    in_user = np.empty(n, dtype=dtype)  # each observation's user-major position
    for a, b in _blocks(n, SETUP_BLOCK):
        in_user[order[a:b]] = np.arange(a, b, dtype=dtype)
    for a, b in _blocks(n, BLOCK_ROWS):  # the gather makes a temporary
        positions[a:b] = in_user.take(positions[a:b])
    del in_user
    values = t.values.take(order)
    del order
    users = np.repeat(np.arange(t.num_users, dtype=t.users.dtype), np.diff(by_user.indptr))
    # a permutation of t: _trusted's contract
    user_major = _trusted(t.num_users, t.num_services, users, by_user.indices, values)
    return by_user, replace(by_service, positions=positions), user_major


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
    a ``#`` on is dropped. A line that is not UTF-8 raises ValueError
    naming it: each byte that does not decode reads as a lone surrogate."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if _ESCAPED.search(raw):
                raise ValueError(f"{path}:{line_no}: not UTF-8")
            yield line_no, (raw.split("#", 1)[0] if comments else raw).split()


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
    among them), an ``inf`` cell or a line that is not UTF-8 (a gzip
    file is not decompressed); an empty or all-blank file is the empty
    0 x 0 set. I/O problems propagate as OSError. The file is opened
    and decoded once; only a failed load reads it again, to name the line.
    """
    blank = []  # whitespace-only lines, dropped as np.loadtxt drops them
    try:
        with open(path, encoding="utf-8") as fh:
            matrix = _loadtxt(_unblank(fh, blank), dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError among them
        raise _dense_error(path, exc) from None
    if matrix.size == 0:
        return TripleSet(0, 0, [], [], [])
    if blank:
        raise _dense_error(path, "blank line")
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
        # no line was blank (checked above), so row r is line r + 1
        row = int(users[np.argmin(finite)])
        raise ValueError(f"{path}:{row + 1}: non-finite value")
    # the ids name each cell of the matrix at most once, inside its
    # shape, and the kept values were just checked: _trusted's contract
    return _trusted(rows, cols, users, services, values)


def _unblank(lines, blank: list):
    "The lines that are not whitespace-only; each one that is goes to blank."
    for line in lines:
        if line.isspace():
            blank.append(line)
        else:
            yield line


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
    check_integer("seed", seed, least=0)
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

    for name, value, least in (("num_users", num_users, 0), ("num_services", num_services, 0),
                               ("rank", rank, 1), ("seed", seed, 0)):
        check_integer(name, value, least)
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
