"""Loader, index, split, and synthesis tests.

Grouping and accumulation results are checked against brute-force
python dictionaries; file formats against hand-written fixtures.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, strategies as st

from sofactor.data import (
    IndexedDataset,
    TripleSet,
    build_index,
    load_dense_matrix,
    load_triples,
    split,
    synth_lowrank,
    write_dense_matrix,
    write_triples,
)


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
