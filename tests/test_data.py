"""Loader, index, split, and synthesis tests.

Grouping and accumulation results are checked against brute-force
python dictionaries; file formats against hand-written fixtures.
"""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, strategies as st

from sofactor import data as data_mod, sddmm
from sofactor.cg import cg_solve
from sofactor.data import (
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
from sofactor.sddmm import run_spans

from oracles import grouping_order, traced_peak, write_dense_matrix


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
    with pytest.raises(ValueError, match="^users/services/values length mismatch$"):
        TripleSet(3, 3, [0, 1], [0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^users/services/values length mismatch$"):
        TripleSet(3, 3, [0], [0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^negative dimensions$"):
        TripleSet(-1, 3, [], [], [])
    # an unsigned id is not called out of range against a negative dimension
    with pytest.raises(ValueError, match="^negative dimensions$"):
        TripleSet(3, -1, [0], np.array([5], np.uint8), [1.0])


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


@pytest.mark.parametrize("users, msg", [
    ([-2**40, 1], "negative id"),
    ([2**32 + 1, 0], r"user id 4294967297 out of range \(num_users=6\)"),
    (np.array([2**63, 1], np.uint64),
     r"^user id 9223372036854775808 out of range \(num_users=6\)$"),
    (np.array([0, 2**64 - 1], np.uint64),
     r"^user id 18446744073709551615 out of range \(num_users=6\)$"),
    (np.array([6, 1], np.uint8), r"^user id 6 out of range \(num_users=6\)$"),
])
def test_tripleset_checks_ids_before_narrowing_them(users, msg):
    # -2**40 and 2**32 + 1 both read as a valid id once cast to int32,
    # and an unsigned id at or above 2**63 as a negative one in int64
    with pytest.raises(ValueError, match=msg):
        TripleSet(6, 2, np.array(users), np.array([0, 1]), np.ones(2))


@pytest.mark.parametrize("args, msg", [
    # a cast would truncate these to users [0, 1] and services [2, 0]
    ((3, 3, [0.5, 1.7], [2.9, 0.0]), "users must hold integer ids, got dtype float64"),
    # a cast of NaN warns, then reads as a negative id
    ((3, 3, [0, 1], np.array([np.nan, 1.0])), "services must hold integer ids, got dtype float64"),
    ((3, 3, np.array([True, False]), [0, 1]), "users must hold integer ids, got dtype bool"),
    # would be built, then fail in build_index
    ((2.5, 3, [0, 1], [0, 1]), r"num_users must be an integer, got 2\.5"),
    ((2, 3.0, [0, 1], [0, 1]), r"num_services must be an integer, got 3\.0"),
    ((True, 3, [0], [0]), "num_users must be an integer, got True"),
])
def test_tripleset_rejects_ids_and_dimensions_that_are_not_integers(args, msg):
    # rejected before any cast, so no RuntimeWarning escapes first
    with pytest.raises(ValueError, match=msg):
        TripleSet(*args, np.ones(len(args[2])))


def test_tripleset_takes_an_empty_id_array_of_any_dtype():
    # np.empty(0) is float64, yet holds no id to truncate
    t = TripleSet(3, 2, np.empty(0), np.empty(0), np.empty(0))
    assert len(t) == 0 and t.users.dtype == np.int16
    t = TripleSet(np.int64(3), np.uint16(2), np.array([2], np.uint8), [1], [0.5])
    assert (t.users.tolist(), t.services.tolist()) == ([2], [1])


def test_pair_keys_of_int32_ids_are_formed_in_int64():
    # 2**30 * 4 wraps to 0 in int32, the key of pair (0, 0)
    assert len(TripleSet(2**30 + 1, 4, np.array([0, 2**30]), np.array([0, 0]), np.ones(2))) == 2


def test_pair_keys_of_int16_ids_are_formed_in_int64():
    # 300 x 32,767 holds int16 ids; (2, 2) has key 2 * 32,767 + 2 = 65,536,
    # which wraps to 0 in int16, the key of pair (0, 0)
    for users, services in (([0, 299], [0, 32_766]), ([0, 2], [0, 2])):
        t = TripleSet(300, 32_767, np.array(users), np.array(services), np.ones(2))
        assert t.users.dtype == np.int16 and len(t) == 2


@pytest.mark.parametrize("dim, dtype", [(32_767, np.int16), (32_768, np.int32),
                                        (2**31 - 1, np.int32), (2**31, np.int64)])
def test_id_dtype_is_the_narrowest_signed_type_holding_either_dimension(dim, dtype):
    # either dimension decides; the grouping by the other entity, whose
    # index holds ids below dim, keeps scipy's index dtype, int32 at least
    # (built alone: a grouping by the entity of dimension dim would hold
    # dim + 1 group bounds)
    wide = TripleSet(1, dim, np.array([0]), np.array([dim - 1]), np.ones(1))
    tall = TripleSet(dim, 1, np.array([dim - 1]), np.array([0]), np.ones(1))
    for t in (wide, tall):
        assert t.users.dtype == t.services.dtype == dtype
    g, _ = _grouped(wide.users, wide.services, (1, dim))
    assert g.indices.dtype == np.promote_types(dtype, np.int32)
    g, _ = _grouped(tall.services, tall.users, (1, dim))
    assert g.indices.dtype == np.promote_types(dtype, np.int32)


@pytest.mark.parametrize("num_services, nbytes", [(40, 12), (32_767, 12), (32_768, 16)])
def test_loaded_sets_and_split_parts_hold_12_bytes_per_observation_up_to_32767_and_16_above(
        tmp_path, num_services, nbytes):
    # user 2 and service num_services - 1 are observed, so both files load
    # as 3 x num_services
    rng = np.random.default_rng(3)
    cells = np.append(rng.choice(3 * num_services - 1, 39, replace=False), 3 * num_services - 1)
    t = TripleSet(3, num_services, cells // num_services, cells % num_services,
                  rng.standard_normal(40))
    write_dense_matrix(tmp_path / "m.txt", t)
    write_triples(tmp_path / "t.txt", t)
    dense, triples = load_dense_matrix(tmp_path / "m.txt"), load_triples(tmp_path / "t.txt")
    assert (dense.num_services, triples.num_services) == (num_services, num_services)
    sp = split(triples, 0.5, 0.25, seed=0)
    for part in (dense, triples, sp.train.base, sp.validation.base, sp.test.base):
        assert part.users.nbytes + part.services.nbytes + part.values.nbytes == nbytes * len(part)


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


@pytest.mark.parametrize("cols, dtype", [(32_767, np.int16), (32_768, np.int32)])
def test_load_dense_matrix_at_either_id_width_wraps_no_id(tmp_path, cols, dtype):
    # the cell offsets users * cols pass 32,767 at row 2
    rows = np.full((3, cols), "-1", dtype=object)
    rows[1, 0], rows[2, cols - 2], rows[2, cols - 1] = "0.5", "1.5", "2.5"
    p = tmp_path / "m.txt"
    p.write_text("".join(" ".join(row) + "\n" for row in rows))
    t = load_dense_matrix(p)
    assert (t.num_users, t.num_services) == (3, cols)
    assert t.users.dtype == t.services.dtype == dtype
    assert t.users.tolist() == [1, 2, 2]
    assert t.services.tolist() == [0, cols - 2, cols - 1]
    assert t.values.tolist() == [0.5, 1.5, 2.5]


def test_load_triples_with_service_id_32767_wraps_no_id(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("2 32767 1.5\n0 0 2.5\n")
    t = load_triples(p)
    assert (t.num_users, t.num_services) == (3, 32_768)
    assert t.users.dtype == t.services.dtype == np.int32
    assert t.users.tolist() == [2, 0] and t.services.tolist() == [32_767, 0]


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


def test_load_dataset_missing_file_names_expected_format(tmp_path):
    missing = tmp_path / "nope.txt"
    with pytest.raises(FileNotFoundError) as exc_info:
        load_dataset(str(missing))
    msg = str(exc_info.value)
    assert "nope.txt" in msg
    assert "dense matrix" in msg and "triples" in msg


def test_load_dataset_reads_dense_sniffed_or_stated(tmp_path):
    p = tmp_path / "m.txt"
    write_dense_matrix(p, small_set())
    want = load_dense_matrix(p)
    for fmt in ("auto", "dense"):
        got = load_dataset(p, fmt)
        assert (got.num_users, got.num_services) == (4, 3)
        for name in ("users", "services", "values"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    with pytest.raises(ValueError, match="unknown dataset format 'csv'"):
        load_dataset(p, "csv")


def test_load_dataset_sniffs_a_file_without_data_lines_as_triples(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# nothing here\n\n")
    assert sniff_format(p) == "triples"
    with pytest.raises(ValueError, match="no observations"):  # the triples loader's error
        load_dataset(p)


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
    ("-1099511627776 0 1.0\n0 1 2.0\n", "1: negative id$"),  # -2**40 is 0 in int32
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


@pytest.mark.parametrize("body,line", [
    ("1 inf\n2 3\n", 1),
    ("1 2\n-1 3\n4 +inf\n", 3),
    ("-1 2\n3 nan\ninf -inf\n", 3),
])
def test_load_dense_matrix_inf_cell_cites_line(tmp_path, body, line):
    p = tmp_path / "m.txt"
    p.write_text(body)
    with pytest.raises(ValueError, match=rf"m\.txt:{line}: non-finite value$"):
        load_dense_matrix(p)


def test_load_dense_matrix_nan_and_minus_inf_are_missing(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 nan\n-inf 3\n")
    t = load_dense_matrix(p)
    assert (t.num_users, t.num_services) == (2, 2)
    got = {(u, s): v for u, s, v in zip(t.users.tolist(), t.services.tolist(), t.values.tolist())}
    assert got == {(0, 0): 1.0, (1, 1): 3.0}


def parent_formula_dense(matrix):
    "The dense loader's triples as np.nonzero, a pairwise gather and the public constructor give them."
    users, services = np.nonzero(matrix >= 0)
    return TripleSet(matrix.shape[0], matrix.shape[1], users, services, matrix[users, services])


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 5), (40, 33)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_load_dense_matrix_matches_nonzero_formula_byte_for_byte(tmp_path, shape, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0, 5, shape)
    kind = rng.integers(0, 6, shape)
    matrix[kind == 0] = -1.0
    matrix[kind == 1] = 0.0
    matrix[kind == 2] = -0.0  # >= 0, so an observation, sign kept
    matrix[kind == 3] = np.nan
    matrix[kind == 4] = -np.inf
    p = tmp_path / "m.txt"
    p.write_text("".join(" ".join(map(repr, row.tolist())) + "\n" for row in matrix))
    got, want = load_dense_matrix(p), parent_formula_dense(matrix)
    assert (got.num_users, got.num_services) == (want.num_users, want.num_services)
    for name in ("users", "services", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


def test_load_triples_empty_file_warns_nothing(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("\n# only a comment\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no observations"):
            load_triples(p)


# ---------------------------------------------------------------- index

def group(index, ids, i):
    "Observations of group i of a RaggedIndex, the grouping of ids."
    return grouping_order(ids)[index.indptr[i]:index.indptr[i + 1]]


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
            assert list(group(d.by_user, t.users, u)) == by_u.get(u, [])
            assert list(t.services[group(d.by_user, t.users, u)]) == list(
                d.by_user.indices[d.by_user.indptr[u]:d.by_user.indptr[u + 1]])
        for s in range(ns):
            assert list(group(d.by_service, t.services, s)) == by_s.get(s, [])
            assert list(t.users[group(d.by_service, t.services, s)]) == list(
                d.by_service.indices[d.by_service.indptr[s]:d.by_service.indptr[s + 1]])
        assert np.array_equal(d.by_user.counts, [len(by_u.get(u, [])) for u in range(nu)])
        assert np.array_equal(d.by_service.counts, [len(by_s.get(s, [])) for s in range(ns)])


@pytest.mark.parametrize("n,num_ids", [
    (0, 1), (0, 5), (1, 1), (1, 7), (50, 3), (300_000, 4), (300_000, 70_000), (200_000, 1_000_000),
])
def test_grouped_order_is_stable_argsort(n, num_ids):
    rng = np.random.default_rng(n + num_ids)
    ids = rng.integers(0, num_ids, size=n)
    other = rng.integers(0, 9, size=n)
    g, order = _grouped(ids, other, (num_ids, 9))
    assert order.dtype == np.int64
    assert np.array_equal(order, grouping_order(ids))
    assert np.array_equal(g.indices, other[order])
    assert np.array_equal(g.counts, np.bincount(ids, minlength=num_ids))


def test_grouping_keys_of_int32_ids_are_formed_in_int64():
    # 65,535 * 40,000 wraps in int32: the keys would no longer sort by id
    rng = np.random.default_rng(37)
    n = 40_000
    users = rng.integers(65_000, 65_536, n)
    d = build_index(TripleSet(65_536, n, users, np.arange(n), np.ones(n)))
    # the services are 0 .. n - 1, so the user side's indices are its order
    assert np.array_equal(d.by_user.indices, grouping_order(users))


def test_grouping_keys_of_int16_ids_are_formed_in_int64():
    # 299 * 1,000 wraps in int16: the keys would no longer sort by id
    rng = np.random.default_rng(38)
    n = 1_000
    cells = rng.choice(300 * 700, n, replace=False)
    t = TripleSet(300, 700, cells // 700, cells % 700, np.ones(n))
    assert t.users.dtype == np.int16
    d = build_index(t)
    by_user, by_service = grouping_order(t.users), grouping_order(t.services)
    assert np.array_equal(d.by_user.indices, t.services[by_user])
    assert np.array_equal(d.by_service.indices, t.users[by_service])
    um = d.user_major
    assert np.array_equal(um.users, t.users[by_user])
    position = np.empty(n, dtype=np.int64)
    position[by_user] = np.arange(n)
    assert np.array_equal(um.to_service, position[by_service])


def test_index_preserves_observation_order_within_group():
    t = small_set()
    d = build_index(t)
    assert list(group(d.by_user, t.users, 2)) == [3, 4, 5]
    assert list(group(d.by_user, t.users, 3)) == []
    assert list(group(d.by_service, t.services, 0)) == [0, 3]
    assert list(d.by_user.indices[d.by_user.indptr[2]:d.by_user.indptr[3]]) == list(t.services[3:6])


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
    w_um = w[grouping_order(t.users)]  # the weighted sums take user-major order
    np.testing.assert_allclose(d.user_weighted_sums(w_um, svc_rows), by_user, atol=1e-12)
    np.testing.assert_allclose(d.service_weighted_sums(w_um, usr_rows), by_service, atol=1e-12)


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

    by_user, by_service = grouping_order(t.users), grouping_order(t.services)

    def fresh(w):
        mu = sparse.csr_matrix((w[by_user], t.services[by_user], d.by_user.indptr),
                               shape=(nu, ns))
        ms = sparse.csr_matrix((w[by_service], t.users[by_service], d.by_service.indptr),
                               shape=(ns, nu))
        return mu @ svc_rows, ms @ usr_rows

    w1 = rng.standard_normal(len(t))
    w2 = rng.standard_normal(len(t))
    um1, um2 = w1[by_user], w2[by_user]  # user-major order
    first = (d.user_weighted_sums(um1, svc_rows), d.service_weighted_sums(um1, usr_rows))
    second = (d.user_weighted_sums(um2, svc_rows), d.service_weighted_sums(um2, usr_rows))
    for got, want in zip(first + second, fresh(w1) + fresh(w2)):
        assert np.array_equal(got, want)


def serial_sums(index, w, rows):
    "The weighted sums as one CSR product over the whole index."
    return sparse.csr_matrix((w, index.indices, index.indptr), shape=index.shape) @ rows


@pytest.fixture
def chunks_run(monkeypatch):
    "The chunk count of each run_spans call in data: only the weighted sums make one."
    counts = []

    def counted(fn, bounds):
        counts.append(len(bounds) - 1)
        return run_spans(fn, bounds)

    monkeypatch.setattr(data_mod, "run_spans", counted)
    return counts


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_weighted_sums_at_any_worker_count_give_the_serial_bytes(
        extra, workers, monkeypatch, chunks_run):
    # nnz just below, at and just above the least that splits, 2 * MIN_SPAN;
    # groups 0, 1 and the last two are empty
    nnz = 2 * sddmm.MIN_SPAN + extra
    nu, ns, f = 3000, 700, 3
    rng = np.random.default_rng(nnz)
    ids = rng.integers(2, nu - 2, nnz)
    index, _ = _grouped(ids, rng.integers(0, ns, nnz), (nu, ns))
    w = rng.standard_normal(nnz)
    rows = rng.standard_normal((ns, f))
    want = serial_sums(index, w, rows)
    assert not want[[0, 1, -2, -1]].any()

    monkeypatch.setattr(sddmm, "WORKERS", workers)
    assert np.array_equal(index.weighted_sums(w, rows), want)
    # about 5 observations per group, so no two span bounds fall in one
    # group: one chunk per span
    assert chunks_run == [max(1, min(workers, nnz // sddmm.MIN_SPAN))]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_weighted_sums_merge_chunks_inside_one_dominant_group(workers, monkeypatch, chunks_run):
    # group 3 holds 80% of the observations, so at three workers the
    # inner bounds at a third and two thirds of nnz both fall inside it
    # and their chunks merge
    nnz = 3 * sddmm.MIN_SPAN + 1000
    nu, ns, f = 500, 300, 4
    rng = np.random.default_rng(11)
    ids = rng.integers(0, nu, nnz)
    ids[rng.random(nnz) < 0.8] = 3
    index, _ = _grouped(ids, rng.integers(0, ns, nnz), (nu, ns))
    w = rng.standard_normal(nnz)
    rows = rng.standard_normal((ns, f))
    want = serial_sums(index, w, rows)

    monkeypatch.setattr(sddmm, "WORKERS", workers)
    assert np.array_equal(index.weighted_sums(w, rows), want)
    assert chunks_run == [{1: 1, 2: 2, 3: 2}[workers]]  # at 3, two merged


def test_weighted_sums_reject_weights_of_another_length():
    index = build_index(small_set()).by_user
    with pytest.raises(ValueError, match="weights for 6 observations"):
        index.weighted_sums(np.ones(7), np.ones((3, 2)))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_weighted_sums_gather_their_weights_per_chunk(extra, workers, monkeypatch, chunks_run):
    # each chunk takes weights[positions[a:b]]: the bytes of gathering
    # all the weights first, at nnz just below, at and just above
    # 2 * MIN_SPAN, the least that splits
    nnz = 2 * sddmm.MIN_SPAN + extra
    nu, ns, f = 3000, 700, 3
    rng = np.random.default_rng(nnz + 7)
    index, _ = _grouped(rng.integers(0, nu, nnz), rng.integers(0, ns, nnz), (nu, ns))
    w = rng.standard_normal(nnz)
    w[::5] = -0.0
    positions = rng.permutation(nnz).astype(index.indptr.dtype)
    rows = rng.standard_normal((ns, f))
    want = serial_sums(index, w[positions], rows)

    monkeypatch.setattr(sddmm, "WORKERS", workers)
    out = np.empty((nu, f))
    got = index.weighted_sums(w, rows, positions=positions, out=out)
    assert got is out
    assert got.tobytes() == want.tobytes()
    assert chunks_run == [max(1, min(workers, nnz // sddmm.MIN_SPAN))]


def test_weighted_sums_of_two_min_spans_run_in_two_chunks(monkeypatch, chunks_run):
    # 2 * MIN_SPAN observations at two workers: both sides run in two chunks
    n = 2 * sddmm.MIN_SPAN
    nu, ns, f = 5000, 3000, 20
    rng = np.random.default_rng(17)
    cells = rng.choice(nu * ns, size=n, replace=False)
    d = build_index(TripleSet(nu, ns, cells // ns, cells % ns, rng.standard_normal(n)))
    w = rng.standard_normal(n)
    user_rows, service_rows = rng.standard_normal((nu, f)), rng.standard_normal((ns, f))
    want_user = serial_sums(d.by_user, w, service_rows)
    want_service = serial_sums(d.by_service, w[d.user_major.to_service], user_rows)

    monkeypatch.setattr(sddmm, "WORKERS", 2)
    assert d.user_weighted_sums(w, service_rows).tobytes() == want_user.tobytes()
    assert d.service_weighted_sums(w, user_rows).tobytes() == want_service.tobytes()
    assert chunks_run == [2, 2]


def test_weighted_sums_reject_positions_and_out_of_another_shape():
    index = build_index(small_set()).by_user
    with pytest.raises(ValueError, match="positions for 6 observations"):
        index.weighted_sums(np.ones(6), np.ones((3, 2)), positions=np.arange(5))
    with pytest.raises(ValueError, match=r"out has shape \(4, 3\), expected \(4, 2\)"):
        index.weighted_sums(np.ones(6), np.ones((3, 2)), out=np.empty((4, 3)))


def bar_pool(monkeypatch, workers):
    """Set WORKERS and make the pool fail to start: set-up runs on the
    calling thread, so it must give its serial bytes all the same."""
    def no_pool():
        raise AssertionError("set-up started the pool")

    monkeypatch.setattr(sddmm, "WORKERS", workers)
    monkeypatch.setattr(sddmm, "_executor", no_pool)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_user_major_view_gives_its_serial_definition(extra, workers, monkeypatch, chunks_run):
    # n just below, at and just above SETUP_BLOCK, the block of the keys;
    # SETUP_BLOCK is 2 * MIN_SPAN, from where a pooled pass would split
    n = data_mod.SETUP_BLOCK + extra
    nu, ns = 3000, 700
    rng = np.random.default_rng(n)
    cells = rng.choice(nu * ns, size=n, replace=False)
    t = TripleSet(nu, ns, cells // ns, cells % ns, rng.standard_normal(n))
    bar_pool(monkeypatch, workers)
    d = build_index(t)
    um = d.user_major
    by_user, by_service = grouping_order(t.users), grouping_order(t.services)
    position = np.empty(n, dtype=np.int64)
    position[by_user] = np.arange(n)
    assert um.values.dtype == np.float64
    assert um.values.tobytes() == t.values[by_user].tobytes()
    assert um.to_service.dtype == d.by_user.indptr.dtype
    assert np.array_equal(um.to_service, position[by_service])
    assert np.array_equal(um.users, t.users[by_user])
    assert um.services is d.by_user.indices
    assert chunks_run == []  # no pooled pass


@pytest.mark.parametrize("n", [data_mod.SETUP_BLOCK - 1, data_mod.SETUP_BLOCK,
                               data_mod.SETUP_BLOCK + 1, 3 * data_mod.SETUP_BLOCK // 2 + 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_grouping_gives_its_serial_definition(n, workers, monkeypatch, chunks_run):
    # the keys take their positions a SETUP_BLOCK at a time: n fills
    # less than, exactly and more than one block, and one and a half
    rng = np.random.default_rng(n)
    ids = rng.integers(0, 3000, n)
    other = rng.integers(0, 700, n)
    bar_pool(monkeypatch, workers)
    g, got_order = _grouped(ids, other, (3000, 700))
    assert chunks_run == []  # no pooled pass
    order = grouping_order(ids)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=3000))])
    assert got_order.dtype == np.int64 and got_order.tobytes() == order.tobytes()
    assert g.indices.dtype == g.indptr.dtype == sparse.csr_matrix((3000, 700)).indptr.dtype
    assert g.indices.tobytes() == other[order].astype(g.indices.dtype).tobytes()
    assert g.indptr.tobytes() == indptr.astype(g.indptr.dtype).tobytes()


# ---------------------------------------------------------------- split

def distinct_cells(n, seed, nu=3000, ns=700):
    "A TripleSet of n distinct random cells of an nu x ns matrix."
    rng = np.random.default_rng(seed)
    cells = rng.choice(nu * ns, size=n, replace=False)
    return TripleSet(nu, ns, cells // ns, cells % ns, rng.standard_normal(n))


@pytest.mark.parametrize("n", [data_mod.SETUP_BLOCK - 1, data_mod.SETUP_BLOCK,
                               data_mod.SETUP_BLOCK + 1, 3 * data_mod.SETUP_BLOCK // 2 + 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_gives_the_gathers_of_its_permutation(n, workers, monkeypatch, chunks_run):
    # 4n observations split 1/2, 1/4, 1/4; the permutation's fill, a
    # SETUP_BLOCK at a time, ends in a whole or a partial block
    t = distinct_cells(4 * n, seed=n)
    bar_pool(monkeypatch, workers)
    sp = split(t, 0.5, 0.25, seed=n)
    assert chunks_run == []  # no pooled pass, the train work order's included
    perm = np.random.default_rng(n).permutation(4 * n)
    parts = (sp.train.base, sp.validation.base, sp.test.base)
    for part, idx in zip(parts, (perm[:2 * n], perm[2 * n:3 * n], perm[3 * n:])):
        for name in ("users", "services", "values"):
            got, want = getattr(part, name), getattr(t, name)[idx]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def set_up_arrays(d):
    "Every array of a dataset's stored observations, groupings and user-major view."
    um = d.user_major
    return [d.base.users, d.base.services, d.base.values, d.by_user.indices,
            d.by_user.indptr, d.by_service.indices, d.by_service.indptr,
            um.users, um.services, um.values, um.to_service]


def test_set_up_starts_no_pool_at_any_worker_count(monkeypatch):
    # split (the train part's work order with it) and build_index run on
    # the calling thread: on two workers, with a pool that cannot start,
    # they give the one-worker bytes at 4 * MIN_SPAN observations, where
    # a pooled pass over the whole set or the train part would split
    t = distinct_cells(4 * sddmm.MIN_SPAN, seed=47)

    def set_up():
        sp = split(t, 0.8, 0.1, seed=3)
        return [a for d in (sp.train, sp.validation, sp.test, build_index(t))
                for a in set_up_arrays(d)]

    monkeypatch.setattr(sddmm, "WORKERS", 1)
    want = set_up()
    bar_pool(monkeypatch, 2)
    for got, ref in zip(set_up(), want, strict=True):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def work_order_nbytes(d):
    "What a dataset's groupings and user-major view hold."
    um = d.user_major  # um.services is by_user.indices
    return sum(a.nbytes for a in (d.by_user.indices, d.by_user.indptr, d.by_service.indices,
                                  d.by_service.indptr, um.users, um.values, um.to_service))


def test_split_holds_no_more_than_its_parts_and_the_train_work_order():
    # the permutation is drawn into the values buffer, each grouping
    # build holds only its outputs and the work order holds one order at
    # a time, so beyond the parts and the train work order it peaks at
    # 4 bytes per train observation; 256 KiB of slack covers the shared
    # positions (SETUP_BLOCK int64 entries, 128 KiB), a gather's block and
    # the groupings' bounds
    t = distinct_cells(400_000, seed=41, nu=1000)
    sp, peak = traced_peak(lambda: split(t, 0.8, 0.1, seed=0))
    parts = sum(a.nbytes for d in (sp.train, sp.validation, sp.test)
                for a in (d.base.users, d.base.services, d.base.values))
    assert peak <= parts + work_order_nbytes(sp.train) + 4 * len(sp.train) + 256 * 1024


@pytest.mark.parametrize("nu, ns", [(1000, 700), (3000, 40_000)], ids=["int16", "int32"])
def test_train_index_holds_24_bytes_per_observation(nu, ns):
    # after set-up and a first read of the view, a train part holds its
    # two groupings' ids (4 + 4 bytes per observation), the view's user
    # ids (4), values (8) and to_service (4), and no grouping order
    t = distinct_cells(300_000, seed=43, nu=nu, ns=ns)
    tracemalloc.start()
    try:
        d = build_index(t, role="train")
        d.user_major
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bounds = d.by_user.indptr.nbytes + d.by_service.indptr.nbytes  # per group, not per observation
    assert held <= 24 * len(t) + bounds + 64 * 1024
    assert work_order_nbytes(d) <= held


def serial_grouping(ids, other_ids, shape):
    "The serial grouping build, written out, freeing each temporary as soon as it can."
    n = len(ids)
    order = ids * n
    order += np.arange(n)
    order.sort()
    order %= n
    offsets = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=shape[0]), out=offsets[1:])
    sparse.csr_matrix((np.zeros(n), other_ids[order], offsets), shape=shape)


def grouping_peaks():
    "(n, traced peak of serial_grouping, traced peak of _grouped)."
    rng = np.random.default_rng(31)
    n = 3 * sddmm.MIN_SPAN
    ids, other = rng.integers(0, 3000, n), rng.integers(0, 700, n)
    peaks = [traced_peak(lambda: build(ids, other, (3000, 700)))[1]
             for build in (serial_grouping, _grouped)]
    return n, *peaks


def test_grouping_holds_no_more_at_once_than_one_serial_build():
    # a position array kept alive through the gather would add 8 bytes
    # per observation to the peak
    _, serial, grouped = grouping_peaks()
    assert grouped <= serial + 64 * 1024


def test_grouping_writes_out_no_csr_data():
    # the csr_matrix that picks the index dtype gets a broadcast zero as
    # its data, where the serial build writes out n float64 zeros
    n, serial, grouped = grouping_peaks()
    assert grouped <= serial - 6 * n


@pytest.mark.parametrize("num_other, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_grouped_index_dtype_follows_scipy(num_other, dtype):
    ids, other = np.array([0, 2, 1, 2]), np.array([5, num_other - 1, 0, 3])
    g, order = _grouped(ids, other, (3, num_other))
    assert g.indices.dtype == g.indptr.dtype == dtype
    assert sparse.csr_matrix((np.zeros(4), other[order], [0, 1, 2, 4]),
                             shape=(3, num_other)).indices.dtype == dtype
    assert g.indices.tolist() == [5, 0, num_other - 1, 3]
    assert g.indptr.tolist() == [0, 1, 2, 4]


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


def test_split_builds_only_the_train_groupings():
    t, _ = synth_lowrank(12, 9, rank=2, density=0.6, noise_sigma=0.0, seed=5)
    sp = split(t, 0.5, 0.25, seed=9)
    assert "_built" in vars(sp.train)  # the groupings and the view, built as one
    for part in (sp.validation, sp.test):
        assert "_built" not in vars(part)
        want = build_index(part.base)
        for name in ("by_user", "by_service"):
            got, ref = getattr(part, name), getattr(want, name)
            assert got.shape == ref.shape
            for field in ("indices", "indptr"):
                a, b = getattr(got, field), getattr(ref, field)
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert getattr(part, name) is got  # cached
        for field in ("users", "services", "values", "to_service"):
            a, b = getattr(part.user_major, field), getattr(want.user_major, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def small_triple_sets(draw):
    "Valid sets of up to 8 x 8 cells: empty rows and columns, and single observations, included."
    nu, ns = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = np.array(draw(st.lists(st.integers(0, nu * ns - 1), min_size=1,
                                   max_size=nu * ns, unique=True)), dtype=np.int64)
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(cells), max_size=len(cells)))
    return TripleSet(nu, ns, cells // ns, cells % ns, np.array(values))


@given(t=small_triple_sets(), train_frac=st.floats(0.01, 0.98),
       val_share=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_split_parts_are_valid_sets_covering_t_in_permutation_order(
        t, train_frac, val_share, seed):
    # split builds its parts without re-checking them; this is the oracle
    # for the checks it skips
    val_frac = min((1 - train_frac) * val_share, 0.99)
    n = len(t)
    n_train, n_val = int(np.floor(n * train_frac)), int(np.floor(n * val_frac))
    if min(n_train, n_val, n - n_train - n_val) < 1:
        with pytest.raises(ValueError, match=">= 1 element"):
            split(t, train_frac, val_frac, seed)
        return
    sp = split(t, train_frac, val_frac, seed)
    parts = [sp.train.base, sp.validation.base, sp.test.base]
    assert [len(p) for p in parts] == [n_train, n_val, n - n_train - n_val]
    for p in parts:
        TripleSet(p.num_users, p.num_services, p.users, p.services, p.values)
        assert (p.num_users, p.num_services) == (t.num_users, t.num_services)
    # together they are t in the order of the split's permutation, and,
    # as one set, still free of repeated pairs
    perm = np.random.default_rng(seed).permutation(n)
    joined = [np.concatenate([getattr(p, name) for p in parts])
              for name in ("users", "services", "values")]
    TripleSet(t.num_users, t.num_services, *joined)
    for got, want in zip(joined, (t.users, t.services, t.values)):
        assert got.tobytes() == want[perm].tobytes()


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
    with pytest.raises(ValueError, match="init_lo must be < init_hi"):
        synth_lowrank(5, 5, 2, 0.5, 0.0, seed=0, init_lo=0.3, init_hi=0.3)
