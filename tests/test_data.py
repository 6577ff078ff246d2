"""Loader, index, split, and synthesis tests.

Grouping and accumulation results are checked against brute-force
python dictionaries; file formats against hand-written fixtures.
"""

import copy
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, strategies as st

from sofactor.cg import cg_solve
from sofactor.data import (
    IndexedDataset,
    TripleSet,
    _grouped,
    build_index,
    load_dataset,
    load_dense_matrix,
    load_triples,
    sniff_format,
    split,
    synth_lowrank,
    write_triples,
)
from sofactor.model import Hyperparams, init_factors

from oracles import write_dense_matrix


def small_set():
    # 4 users x 3 services, 6 observations, user 3 unobserved
    return TripleSet(
        4, 3,
        np.array([0, 0, 1, 2, 2, 2]),
        np.array([0, 2, 1, 0, 1, 2]),
        np.array([1.5, 0.0, 2.25, 3.0, 0.5, 4.0]))


# ---------------------------------------------------------------- types

def test_tripleset_validates_ranges():
    with pytest.raises(ValueError, match="out of range"):
        TripleSet(2, 2, np.array([0, 2]), np.array([0, 1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="out of range"):
        TripleSet(2, 2, np.array([0, 1]), np.array([0, 5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        TripleSet(1, 1, np.array([0]), np.array([0]), np.array([np.inf]))


def test_tripleset_rejects_duplicate_pair():
    with pytest.raises(ValueError, match=r"duplicate \(user, service\) pair \(1, 2\)"):
        TripleSet(3, 3,
                  np.array([0, 1, 1]),
                  np.array([2, 2, 2]),
                  np.array([1.0, 2.0, 3.0]))


def lexsort_duplicate_pair(users, services):
    "The pair a duplicate-check built on np.lexsort names: the smallest repeated one."
    order = np.lexsort((services, users))
    uu, ss = users[order], services[order]
    j = order[1:][(uu[1:] == uu[:-1]) & (ss[1:] == ss[:-1])][0]
    return int(users[j]), int(services[j])


def test_duplicate_among_many_rows_names_the_smallest_repeated_pair():
    rng = np.random.default_rng(5)
    nu, ns, n = 3000, 2000, 200_000
    cells = rng.choice(nu * ns, size=n, replace=False)
    # repeat three pairs at random rows, out of order
    cells[rng.choice(n, 3, replace=False)] = cells[rng.choice(n, 3, replace=False)]
    users, services = cells // ns, cells % ns
    u, s = lexsort_duplicate_pair(users, services)
    with pytest.raises(ValueError, match=rf"duplicate \(user, service\) pair \({u}, {s}\)$"):
        TripleSet(nu, ns, users, services, np.ones(n))


INT64_MAX = 2**63 - 1


def test_sort_keys_fit_int64_up_to_the_bound():
    # 21870289 * 421730688463 == 2**63 - 1: the largest pair key,
    # (nu - 1) * ns + ns - 1, is INT64_MAX - 1 and still exact
    nu, ns = 21870289, 421730688463
    assert nu * ns == INT64_MAX
    corner = (np.array([nu - 1, nu - 1, 0]), np.array([ns - 1, ns - 2, ns - 1]))
    assert len(TripleSet(nu, ns, *corner, np.ones(3))) == 3
    with pytest.raises(ValueError, match=rf"pair \({nu - 1}, {ns - 1}\)"):
        TripleSet(nu, ns, np.array([nu - 1, 0, nu - 1]), np.array([ns - 1, 0, ns - 1]),
                  np.ones(3))


@pytest.mark.parametrize("nu,ns,n", [
    (2**62, 2, 0),      # pair keys: nu * ns = 2**63
    (2**32, 2**31, 1),  # likewise
    (2**61, 2, 4),      # grouping keys: max(nu, ns) * n = 2**63
    (3, 2**61, 4),
])
def test_tripleset_rejects_dims_beyond_int64_sort_keys(nu, ns, n):
    with pytest.raises(ValueError, match="too large for int64 sort keys"):
        TripleSet(nu, ns, np.zeros(n, np.int64), np.arange(n), np.ones(n))


def test_tripleset_accepts_grouping_keys_just_inside_int64():
    # max(nu, ns) * n == 3 * 2**61 < 2**63
    t = TripleSet(2**61, 2, np.array([0, 1, 2**61 - 1]), np.zeros(3, np.int64), np.ones(3))
    assert len(t) == 3


@pytest.mark.parametrize("make", [
    small_set,
    lambda: build_index(small_set()).by_user,
    lambda: build_index(small_set()),
    lambda: split(small_set(), 0.5, 0.25, seed=0),
    lambda: init_factors(4, 3, Hyperparams(f=2)),
    lambda: cg_solve(lambda v: v, np.ones(3), 1e-12, 5),
], ids=["TripleSet", "RaggedIndex", "IndexedDataset", "SplitDataset",
        "FactorState", "CgResult"])
def test_array_holding_types_compare_by_identity(make):
    # a generated __eq__ would compare the ndarray fields and raise
    a = make()
    assert a == a
    assert (a == copy.copy(a)) is False


# -------------------------------------------------------------- loaders

def test_load_dense_matrix_sentinel_and_zero(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.5 -1 0.0\n-1 2.25 -0.5\n")
    t = load_dense_matrix(p)
    assert (t.num_users, t.num_services) == (2, 3)
    got = {(u, s): v for u, s, v in zip(t.users, t.services, t.values)}
    # zero is a real observation; every negative cell is missing
    assert got == {(0, 0): 1.5, (0, 2): 0.0, (1, 1): 2.25}


def test_load_dense_matrix_two_by_two(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.2 -1\n0.5 2.0\n")
    t = load_dense_matrix(p)
    assert (t.num_users, t.num_services) == (2, 2)
    got = set(zip(t.users.tolist(), t.services.tolist(), t.values.tolist()))
    assert got == {(0, 0, 1.2), (1, 0, 0.5), (1, 1, 2.0)}


def test_load_dense_matrix_all_missing(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("-1 -1\n-1 -1\n")
    t = load_dense_matrix(p)
    assert (t.num_users, t.num_services, len(t)) == (2, 2, 0)


def test_load_dense_matrix_ragged_row_cites_line(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError, match=r"m\.txt:2: expected 3 columns"):
        load_dense_matrix(p)


def test_load_dense_matrix_bad_token_cites_line(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 2\n3 x\n")
    with pytest.raises(ValueError, match=r"m\.txt:2: non-numeric"):
        load_dense_matrix(p)


def test_load_dense_matrix_missing_file():
    with pytest.raises(OSError):
        load_dense_matrix("/no/such/file.txt")


def test_dense_roundtrip(tmp_path):
    t = small_set()
    p = tmp_path / "m.txt"
    write_dense_matrix(p, t)
    back = load_dense_matrix(p)
    assert (back.num_users, back.num_services) == (4, 3)
    a = {(u, s): v for u, s, v in zip(t.users, t.services, t.values)}
    b = {(u, s): v for u, s, v in zip(back.users, back.services, back.values)}
    assert a == b


def test_load_triples_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# header\n\n0 0 1.5\n1 2 0.25\n# trailing\n")
    t = load_triples(p)
    assert (t.num_users, t.num_services, len(t)) == (2, 3, 2)


@pytest.mark.parametrize("body,msg", [
    ("0 0 1.0 9\n", "expected 'user service value'"),
    ("0 0\n", "expected 'user service value'"),
    ("0 zero 1.0\n", "malformed record"),
    ("0.5 0 1.0\n", "malformed record"),
    ("-1 0 1.0\n", "negative id"),
    ("0 0 inf\n", "non-finite value"),
])
def test_load_triples_malformed_lines(tmp_path, body, msg):
    p = tmp_path / "t.txt"
    p.write_text("# c\n" + body)
    with pytest.raises(ValueError, match=f"t.txt:2: {msg}"):
        load_triples(p)


def test_load_triples_duplicate_cites_both_lines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("3 4 1.0\n3 4 2.0\n")
    with pytest.raises(ValueError, match=r"t\.txt:2: duplicate pair \(3, 4\), first seen on line 1"):
        load_triples(p)


def test_load_triples_empty_is_error(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no observations"):
        load_triples(p)


def test_triples_roundtrip_bytes_stable(tmp_path):
    t = small_set()
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_triples(p1, t)
    back = load_triples(p1)
    # reload infers dims from max ids, so the trailing unobserved user drops
    assert (back.num_users, back.num_services) == (3, 3)
    assert np.array_equal(back.values, t.values)
    write_triples(p2, back)
    # identical records -> identical bytes (the dims header aside)
    body = lambda p: [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
    assert body(p1) == body(p2)
    assert p1.read_text().startswith("# 4 users, 3 services, 6 observations")


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_triples_value_roundtrip_exact(tmp_path_factory, v):
    p = tmp_path_factory.mktemp("rt") / "one.txt"
    p.write_text(f"0 0 {v!r}\n")
    assert load_triples(p).values[0] == v


def test_load_triples_error_cites_file_line_after_comments_and_blanks(tmp_path):
    head = "# a\n\n0 0 1.0\n"
    for body, msg in [("0 x 1.0\n", "4: malformed record"),
                      ("   \n# b\n-1 0 1.0\n", "6: negative id"),
                      ("\n0 1 nan\n", "5: non-finite value"),
                      ("# b\n0 0 2.0\n", r"5: duplicate pair \(0, 0\), first seen on line 3")]:
        p = tmp_path / "t.txt"
        p.write_text(head + body)
        with pytest.raises(ValueError, match=rf"t\.txt:{msg}"):
            load_triples(p)


@pytest.mark.parametrize("body,msg", [
    ("0 0 1.0\n0 0 2.0\n-1 0 1.0\n", r"2: duplicate pair \(0, 0\), first seen on line 1"),
    ("0 0 1.0\n-1 0 1.0\n0 0 2.0\n", "2: negative id"),
    ("1 1 inf\n0 0 1.0\n0 0 2.0\n0 x 1\n", "4: malformed record"),
    ("2 2 1.0\n1 1 1.0\n2 2 1.0\n1 1 1.0\n", r"3: duplicate pair \(2, 2\), first seen on line 1"),
])
def test_load_triples_names_first_unparsable_else_first_bad_record(tmp_path, body, msg):
    p = tmp_path / "t.txt"
    p.write_text(body)
    with pytest.raises(ValueError, match=rf"t\.txt:{msg}"):
        load_triples(p)


@pytest.mark.parametrize("token", ["1_0", "0x10", "1.5", "1e3", "9223372036854775808", "\u0661"])
def test_load_triples_rejects_non_decimal_ids(tmp_path, token):
    p = tmp_path / "t.txt"
    p.write_text(f"0 0 1.0\n{token} 0 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"t\.txt:2: malformed record"):
        load_triples(p)


@pytest.mark.parametrize("token", ["1_0", "0x10", "1d3", "\u0661"])
def test_loaders_reject_non_decimal_values(tmp_path, token):
    p = tmp_path / "t.txt"
    p.write_text(f"0 0 1.0\n0 1 {token}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"t\.txt:2: malformed record"):
        load_triples(p)
    p.write_text(f"1 2\n3 {token}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"t\.txt:2: non-numeric token"):
        load_dense_matrix(p)


def test_load_triples_reads_signed_ids_and_exponent_values(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("+1 0 1e-3\n0 +2 -2.5E+2\n")
    t = load_triples(p)
    assert t.users.tolist() == [1, 0] and t.services.tolist() == [0, 2]
    assert t.values.tolist() == [1e-3, -250.0]


@pytest.mark.parametrize("eol,sep", [("\r\n", " "), ("\n", "\t"), ("\r\n", "\t"), ("\r", " ")],
                         ids=["crlf", "tab", "crlf-tab", "cr"])
def test_loaders_read_crlf_and_tab_separated_files(tmp_path, eol, sep):
    p = tmp_path / "t.txt"
    p.write_bytes(f"# c{eol}0{sep}1{sep}2.5{eol}{eol}1{sep}0{sep}0.5{eol}".encode())
    t = load_triples(p)
    assert (t.num_users, t.num_services) == (2, 2)
    assert t.values.tolist() == [2.5, 0.5]
    p.write_bytes(f"1.5{sep}-1{eol}0{sep}2{eol}".encode())
    t = load_dense_matrix(p)
    assert (t.num_users, t.num_services) == (2, 2)
    assert t.values.tolist() == [1.5, 0.0, 2.0]
    p.write_bytes(f"1.5{sep}-1{eol}{eol}0{sep}2{eol}".encode())
    with pytest.raises(ValueError, match=r"t\.txt:2: expected 2 columns, got 0"):
        load_dense_matrix(p)


def test_loaders_read_a_last_line_without_newline(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("1.5 -1\n0 2")
    assert load_dense_matrix(p).values.tolist() == [1.5, 0.0, 2.0]
    p.write_text("0 0 1.5\n1 1 2")
    assert load_triples(p).values.tolist() == [1.5, 2.0]


def test_load_triples_accepts_inline_comment(tmp_path):
    # from "#" to the end of the line is a comment, on any line
    p = tmp_path / "t.txt"
    p.write_text("0 0 1.0 # note\n1 2 0.5#x\n")
    t = load_triples(p)
    assert t.users.tolist() == [0, 1] and t.services.tolist() == [0, 2]
    assert t.values.tolist() == [1.0, 0.5]
    assert sniff_format(p) == "triples"
    assert len(load_dataset(p)) == 2


def test_load_triples_ids_beyond_int64_sort_keys_name_the_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(f"0 0 1.0\n{2**62} 4 1.0\n")
    with pytest.raises(ValueError, match=r"t\.txt: .*too large for int64 sort keys"):
        load_triples(p)


@pytest.mark.parametrize("body,line,cols", [
    ("1 2\n\n3 4\n", 2, 2),
    ("1 2\n3 4\n   \n", 3, 2),
    ("1 2\n3 4\n\n", 3, 2),
])
def test_load_dense_matrix_blank_line_cites_line(tmp_path, body, line, cols):
    p = tmp_path / "m.txt"
    p.write_text(body)
    with pytest.raises(ValueError, match=rf"m\.txt:{line}: expected {cols} columns, got 0"):
        load_dense_matrix(p)


def test_load_dense_matrix_leading_blank_line_sets_zero_columns(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("\n1 2\n")
    with pytest.raises(ValueError, match=r"m\.txt:2: expected 0 columns, got 2"):
        load_dense_matrix(p)


@pytest.mark.parametrize("body", ["1 2\n# c\n3 4\n", "1 2 # c\n3 4\n"])
def test_load_dense_matrix_hash_is_non_numeric(tmp_path, body):
    p = tmp_path / "m.txt"
    p.write_text(body)
    with pytest.raises(ValueError, match=r"m\.txt:\d: non-numeric"):
        load_dense_matrix(p)


@pytest.mark.parametrize("body", ["", "\n", "  \n\t\n"], ids=["empty", "blank", "blanks"])
def test_load_dense_matrix_empty_or_blank_file_is_empty_set(tmp_path, body):
    p = tmp_path / "m.txt"
    p.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = load_dense_matrix(p)
    assert (t.num_users, t.num_services, len(t)) == (0, 0, 0)


def test_load_triples_empty_file_warns_nothing(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("\n# only a comment\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no observations"):
            load_triples(p)


# ---------------------------------------------------------------- index

def group(index, i):
    "Observations of group i of a RaggedIndex."
    return index.order[index.indptr[i]:index.indptr[i + 1]]


def test_build_index_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nu = int(rng.integers(1, 9))
        ns = int(rng.integers(1, 9))
        cells = rng.permutation(nu * ns)[: int(rng.integers(1, nu * ns + 1))]
        t = TripleSet(nu, ns, cells // ns, cells % ns,
                      rng.uniform(0, 5, len(cells)))
        d = build_index(t)
        by_u, by_s = {}, {}
        for k, (u, s) in enumerate(zip(t.users, t.services)):
            by_u.setdefault(int(u), []).append(k)
            by_s.setdefault(int(s), []).append(k)
        for u in range(nu):
            assert list(group(d.by_user, u)) == by_u.get(u, [])
        for s in range(ns):
            assert list(group(d.by_service, s)) == by_s.get(s, [])
        assert np.array_equal(d.user_counts, [len(by_u.get(u, [])) for u in range(nu)])
        assert np.array_equal(d.service_counts, [len(by_s.get(s, [])) for s in range(ns)])


@pytest.mark.parametrize("n,num_ids", [
    (0, 1), (0, 5), (1, 1), (1, 7), (50, 3), (300_000, 4), (300_000, 70_000), (200_000, 1_000_000),
])
def test_grouped_order_is_stable_argsort(n, num_ids):
    rng = np.random.default_rng(n + num_ids)
    ids = rng.integers(0, num_ids, size=n)
    other = rng.integers(0, 9, size=n)
    g = _grouped(ids, other, (num_ids, 9))
    assert g.order.dtype == np.int64
    assert np.array_equal(g.order, np.argsort(ids, kind="stable"))
    assert np.array_equal(g.indices, other[g.order])
    assert np.array_equal(g.counts, np.bincount(ids, minlength=num_ids))


def test_index_preserves_observation_order_within_group():
    t = small_set()
    d = build_index(t)
    assert list(group(d.by_user, 2)) == [3, 4, 5]
    assert list(group(d.by_user, 3)) == []
    assert list(group(d.by_service, 0)) == [0, 3]


def test_weighted_sums_match_bruteforce():
    rng = np.random.default_rng(3)
    t = small_set()
    d = build_index(t)
    f = 4
    w = rng.standard_normal(len(t))
    svc_rows = rng.standard_normal((t.num_services, f))
    usr_rows = rng.standard_normal((t.num_users, f))
    by_user = np.zeros((t.num_users, f))
    by_service = np.zeros((t.num_services, f))
    for k, (u, s) in enumerate(zip(t.users, t.services)):
        by_user[u] += w[k] * svc_rows[s]
        by_service[s] += w[k] * usr_rows[u]
    np.testing.assert_allclose(d.user_weighted_sums(w, svc_rows), by_user, atol=1e-12)
    np.testing.assert_allclose(d.service_weighted_sums(w, usr_rows), by_service, atol=1e-12)


def test_cached_scatter_structure_matches_fresh_csr_build():
    # build_index keeps the CSR structure; every weighted sum must equal
    # a csr_matrix built from scratch, bitwise, and a later call with
    # other weights must leave an earlier result untouched
    rng = np.random.default_rng(19)
    nu, ns, f = 40, 30, 5
    cells = rng.permutation(nu * ns)[:700]  # unsorted columns within each row
    t = TripleSet(nu, ns, cells // ns, cells % ns, rng.uniform(0, 5, len(cells)))
    d = build_index(t)
    svc_rows = rng.standard_normal((ns, f))
    usr_rows = rng.standard_normal((nu, f))

    def fresh(w):
        mu = sparse.csr_matrix((w[d.by_user.order], t.services[d.by_user.order],
                                d.by_user.indptr), shape=(nu, ns))
        ms = sparse.csr_matrix((w[d.by_service.order], t.users[d.by_service.order],
                                d.by_service.indptr), shape=(ns, nu))
        return mu @ svc_rows, ms @ usr_rows

    w1 = rng.standard_normal(len(t))
    w2 = rng.standard_normal(len(t))
    first = (d.user_weighted_sums(w1, svc_rows), d.service_weighted_sums(w1, usr_rows))
    second = (d.user_weighted_sums(w2, svc_rows), d.service_weighted_sums(w2, usr_rows))
    for got, want in zip(first + second, fresh(w1) + fresh(w2)):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------- split

def test_split_sizes_follow_floor_rule():
    t = TripleSet(2, 5, np.repeat([0, 1], 5), np.tile(np.arange(5), 2),
                  np.arange(10, dtype=float))
    sp = split(t, 0.10, 0.45, seed=0)
    assert (len(sp.train), len(sp.validation), len(sp.test)) == (1, 4, 5)


def test_split_is_disjoint_and_exhaustive():
    t, _ = synth_lowrank(12, 9, rank=2, density=0.6, noise_sigma=0.0, seed=5)
    sp = split(t, 0.5, 0.25, seed=9)
    parts = [sp.train.base, sp.validation.base, sp.test.base]
    pairs = [set(zip(p.users.tolist(), p.services.tolist())) for p in parts]
    assert sum(len(p) for p in pairs) == len(t)
    assert pairs[0] | pairs[1] | pairs[2] == set(zip(t.users.tolist(), t.services.tolist()))
    assert not (pairs[0] & pairs[1] or pairs[0] & pairs[2] or pairs[1] & pairs[2])
    for part, role in zip(parts, ("train", "validation", "test")):
        assert part.num_users == t.num_users and part.num_services == t.num_services
    assert sp.train.role == "train"


def test_split_deterministic_and_seed_sensitive():
    t, _ = synth_lowrank(10, 10, rank=2, density=0.5, noise_sigma=0.0, seed=1)
    a = split(t, 0.6, 0.2, seed=4)
    b = split(t, 0.6, 0.2, seed=4)
    c = split(t, 0.6, 0.2, seed=5)
    assert np.array_equal(a.train.base.users, b.train.base.users)
    assert np.array_equal(a.train.base.values, b.train.base.values)
    assert not np.array_equal(a.train.base.users, c.train.base.users) or \
        not np.array_equal(a.train.base.services, c.train.base.services)


@pytest.mark.parametrize("tf,vf", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.7, 0.4)])
def test_split_rejects_bad_fractions(tf, vf):
    t = small_set()
    with pytest.raises(ValueError):
        split(t, tf, vf, seed=0)


def test_split_rejects_too_small_input():
    t = TripleSet(1, 2, np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=">= 1 element"):
        split(t, 0.4, 0.4, seed=0)


# ---------------------------------------------------------------- synth

def test_synth_lowrank_noiseless_matches_truth():
    t, truth = synth_lowrank(15, 11, rank=3, density=0.4, noise_sigma=0.0, seed=8)
    assert len(t) == int(15 * 11 * 0.4)
    want = np.einsum("ij,ij->i", truth.user_factors[t.users],
                     truth.service_factors[t.services])
    np.testing.assert_allclose(t.values, want, rtol=0, atol=0)


def test_synth_lowrank_full_density_covers_every_cell():
    t, _ = synth_lowrank(6, 7, rank=2, density=1.0, noise_sigma=0.0, seed=1)
    assert len(t) == 6 * 7
    assert len({(u, s) for u, s in zip(t.users, t.services)}) == 42


def test_synth_lowrank_noise_level_consistent_with_truth():
    t, truth = synth_lowrank(100, 200, rank=3, density=0.2, noise_sigma=0.01, seed=1)
    assert len(t) == 4000
    clean = np.einsum("ij,ij->i", truth.user_factors[t.users],
                      truth.service_factors[t.services])
    residual = t.values - clean
    # sampling error of the std estimate over 4000 draws is about 1.1e-4
    assert abs(float(residual.std()) - 0.01) < 5e-4
    assert abs(float(residual.mean())) < 5e-4


def test_synth_lowrank_deterministic_and_noise_seeded():
    a, _ = synth_lowrank(10, 10, 2, 0.3, 0.05, seed=3)
    b, _ = synth_lowrank(10, 10, 2, 0.3, 0.05, seed=3)
    c, _ = synth_lowrank(10, 10, 2, 0.3, 0.05, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_synth_lowrank_validates_args():
    with pytest.raises(ValueError):
        synth_lowrank(5, 5, 0, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_lowrank(5, 5, 2, 0.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_lowrank(5, 5, 2, 1.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        synth_lowrank(5, 5, 2, 0.5, -0.1, seed=0)
