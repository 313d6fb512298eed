"""The numpy kernels: the irreducibility sieve, batched residue scaling and
the rows T^k mod F that every reduction mod a modulus goes through."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from ffmoments import _backend, cli, ffpoly
from ffmoments._backend import (
    _low_table,
    _multiple_indices,
    _prime_rows,
    digit_rows,
    irreducible_counts,
    irreducible_indices,
    reduction_rows,
    scale_mod_many,
)
from ffmoments.config import ExperimentConfig
from ffmoments.ffpoly import (
    FieldSpec,
    FqPoly,
    is_irreducible,
    monic_from_index,
    parse_poly,
    poly_divmod,
    prime_count_exact,
    residue_from_index,
    residue_index,
)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_sieve_matches_per_poly_test(q):
    field = FieldSpec(q)
    table = irreducible_indices(q, {2: 8, 3: 6, 5: 4, 7: 3}[q])
    for n in range(1, len(table)):
        expected = {
            i
            for i in range(q**n)
            if is_irreducible(monic_from_index(field, n, i))
        }
        assert set(int(i) for i in table[n]) == expected


def test_sieve_sorted_lexicographic():
    table = irreducible_indices(3, 5)
    for n in range(1, 6):
        arr = table[n]
        assert np.all(arr[:-1] < arr[1:])


# q = 11 reduces its int8 remainders at every step, q = 13 needs int16
@pytest.mark.parametrize(
    "q,n_max", [(2, 16), (3, 10), (5, 7), (7, 5), (11, 3), (13, 3)]
)
def test_sieve_counts_match_formula(q, n_max, monkeypatch):
    fresh = irreducible_indices(q, n_max)
    # a small chunk splits every (degree, factor degree) pass into many rows
    monkeypatch.setattr(_backend, "_SIEVE_CHUNK", 1 << 8)
    chunked = irreducible_indices(q, n_max)
    field = FieldSpec(q)
    for n in range(1, n_max + 1):
        assert len(chunked[n]) == prime_count_exact(field, n)
        assert np.array_equal(chunked[n], fresh[n])
    # a chunk below q leaves no low digits: every row is one product
    monkeypatch.setattr(_backend, "_SIEVE_CHUNK", q - 1)
    unchunked = irreducible_indices(q, min(n_max, 6))
    for a, b in zip(unchunked, fresh):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "q,n_max", [(2, 16), (3, 10), (5, 7), (7, 5), (11, 3), (13, 3)]
)
def test_segmented_sieve_matches_formula(q, n_max, monkeypatch):
    # segments of the least width q^(n // 2): every degree above 1 is
    # sieved in many segments, and each factor degree's remainder digits
    # still fall inside one segment
    fresh = irreducible_indices(q, n_max)
    monkeypatch.setattr(_backend, "_SIEVE_SEGMENT", 1)
    assert all(
        _backend._segment_digits(q, n) == n // 2 for n in range(1, n_max + 1)
    )
    segmented = irreducible_indices(q, n_max)
    table, counts = irreducible_counts(q, n_max)
    field = FieldSpec(q)
    assert counts == [prime_count_exact(field, n) for n in range(1, n_max + 1)]
    assert len(table) == n_max // 2 + 1
    for a, b in zip(segmented, fresh):
        assert np.array_equal(a, b)
    for a, b in zip(table, fresh):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("q", [2, 3])
def test_counts_extend_known_tables(q):
    # a count from a known table sieves only the degrees it lacks, and a
    # degree the table holds is counted from it
    field = FieldSpec(q)
    known = irreducible_indices(q, 7)
    table, counts = irreducible_counts(q, 12, known, first=5)
    assert counts == [prime_count_exact(field, n) for n in range(5, 13)]
    assert len(table) == 8 and all(a is b for a, b in zip(table, known))
    table, counts = irreducible_counts(q, 9, irreducible_indices(q, 2), first=9)
    assert counts == [prime_count_exact(field, 9)] and len(table) == 5


# sha256 of the concatenated int64 index arrays of degree 0..n, from the
# sieve that built one bool mask of q^n entries per degree
SIEVE_DIGESTS = {
    (2, 21): "7a8da09ed69585d4",
    (3, 14): "69236e712ec0385a",
    (5, 9): "afb1a8835ccf4c2d",
}


@pytest.mark.parametrize("q,n", list(SIEVE_DIGESTS))
def test_deep_index_arrays_unchanged(q, n):
    table = irreducible_indices(q, n)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in table)).hexdigest()
    assert digest[:16] == SIEVE_DIGESTS[q, n]
    assert [len(a) for a in table[1:]] == irreducible_counts(q, n)[1]


def test_counting_memory_does_not_grow_with_q_to_the_n(monkeypatch):
    # counting degree 22 at q = 2 in segments of 2^14 monics holds the index
    # arrays of degree <= 11 and the rows -T^k mod P of their primes (in
    # int8, about n q^(n/2) bytes), one segment mask and one step's marks:
    # O(n q^(n/2)) bytes, below the 4 MiB that a bool mask of all 2^22
    # monics would take alone
    q, n = 2, 22
    monkeypatch.setattr(_backend, "_SIEVE_SEGMENT", 1 << 14)
    tracemalloc.start()
    try:
        table, counts = irreducible_counts(q, n, first=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [prime_count_exact(FieldSpec(q), n)]
    assert len(table) == n // 2 + 1
    assert peak <= 32 * n * q ** (n // 2) < q**n


# tracemalloc peaks of irreducible_counts(q, n) with steps of 2^17 products
# and segments of 2^20 monics, whose int32 indices numpy copied to intp
COUNT_PEAKS_AT_WIDE_STEPS = {(2, 21): 3_658_004, (3, 14): 2_104_306}


@pytest.mark.parametrize("q,n", list(COUNT_PEAKS_AT_WIDE_STEPS))
def test_counting_memory_at_the_default_sizes(q, n):
    # the sieve of enumerate's prime-count rows holds one segment mask, one
    # step's intp indices and their index(R) digits, and the low-digit
    # tables: at most half of what the wide steps took
    tracemalloc.start()
    try:
        table, counts = irreducible_counts(q, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [prime_count_exact(FieldSpec(q), m) for m in range(1, n + 1)]
    assert peak <= COUNT_PEAKS_AT_WIDE_STEPS[q, n] // 2


def test_low_tables_built_once_per_factor_degree(monkeypatch):
    # each degree above 1 is sieved in many segments; every segment and
    # every degree reuse the one table of each factor degree d <= n / 2
    calls = []

    def counted(q, rho):
        calls.append(rho.shape[1])
        return _low_table(q, rho)

    monkeypatch.setattr(_backend, "_low_table", counted)
    monkeypatch.setattr(_backend, "_SIEVE_SEGMENT", 1)
    q, n = 3, 10
    assert [q ** (m - _backend._segment_digits(q, m)) for m in (9, 10)] == [243, 243]
    table, counts = irreducible_counts(q, n)
    assert calls == list(range(1, n // 2 + 1))
    assert counts == [prime_count_exact(FieldSpec(q), m) for m in range(1, n + 1)]
    calls.clear()
    extended = irreducible_indices(q, 8, table)
    assert calls == [1, 2, 3, 4]
    assert [len(a) for a in extended[1:]] == counts[:8]


@pytest.mark.parametrize("q,n_max", [(2, 7), (3, 5), (5, 4), (7, 3)])
def test_multiple_indices_are_the_multiples(q, n_max, monkeypatch):
    # a small chunk makes the products of one (n, d) pass span several
    # arrays, and one prime's multiples span several steps
    monkeypatch.setattr(_backend, "_SIEVE_CHUNK", 1 << 4)
    field = FieldSpec(q)
    table = irreducible_indices(q, n_max)

    def multiples(rho, n, d):
        (segment,) = _multiple_indices(q, rho, _low_table(q, rho), n, d, n)
        arrays = list(segment)
        assert all(a.size <= 1 << 4 for a in arrays)
        return np.concatenate([a.ravel() for a in arrays])

    for n in range(2, n_max + 1):
        for d in range(1, n + 1):
            rho = _prime_rows(q, table[d], d, n)
            flat = multiples(rho, n, d)
            assert flat.size == len(table[d]) * q ** (n - d)
            # a pass over many primes may run the primes innermost, so each
            # prime's multiples come from a pass over its rows alone, and the
            # pass over all of them yields the same indices
            rows = [multiples(rho[:, :, [i]], n, d) for i in range(len(table[d]))]
            assert np.array_equal(np.sort(flat), np.sort(np.concatenate(rows)))
            for p_idx, row in zip(table[d], rows):
                P = monic_from_index(field, d, int(p_idx))
                assert len(set(row.tolist())) == q ** (n - d)
                for idx in row:
                    A = monic_from_index(field, n, int(idx))
                    assert poly_divmod(A, P)[1].is_zero, (str(P), str(A))


@pytest.mark.parametrize("q,n", [(2, 21), (3, 12)])
def test_sieve_working_memory_is_bounded(q, n, monkeypatch):
    # beyond the mask and the output, a step holds per product at most 8 + 2
    # bytes of intp indices and the index(R) they are made from, and the low
    # digit table of each factor degree d <= n / 2 holds at most chunk / 4
    # digits: c = 2 covers 10 + n / 8 for n >= 12, with room for the rows
    # rho_k, which do not scale with the chunk
    chunk = 1 << 14
    monkeypatch.setattr(_backend, "_SIEVE_CHUNK", chunk)
    tracemalloc.start()
    try:
        table = irreducible_indices(q, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in table)
    assert peak <= q**n + output + 2 * chunk * n


def test_prime_rows_built_in_the_digit_dtype():
    # the rows -T^k mod P of the d <= 11 primes to degree 22 at q = 2 are
    # built and reduced in int8; int64 temporaries would peak at 13 times
    # what is kept
    q, top = 2, 22
    table = irreducible_indices(q, top // 2)
    tracemalloc.start()
    try:
        rows = [_prime_rows(q, table[d], d, top) for d in range(1, top // 2 + 1)]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= sum(rho.nbytes for rho in rows)
    assert peak <= 2 * kept + (64 << 10)
    for d, rho in enumerate(rows, 1):
        assert rho.dtype == np.int8 and rho.shape == (top - d + 1, d, len(table[d]))
        digits = digit_rows(table[d] + q**d, q, d + 1).T
        want = -reduction_rows(q, digits, top)[:, d:] % q
        assert np.array_equal(rho, want.transpose(1, 2, 0))


def test_prime_rows_built_once_per_factor_degree(monkeypatch):
    # the rows T^k mod P of the degree-d primes are built once, to the
    # deepest degree, and sliced for every n
    calls = []

    def counted(q, mod_digits, top):
        calls.append(top)
        return reduction_rows(q, mod_digits, top)

    monkeypatch.setattr(_backend, "reduction_rows", counted)
    table = irreducible_indices(2, 21)
    assert calls == [21] * 10  # one per d <= 21 // 2
    assert len(table[21]) == prime_count_exact(FieldSpec(2), 21)


def test_enumerate_counts_every_degree_in_one_sieve_pass(monkeypatch):
    # cmd_enumerate's Lemma 2.2 rows to degree 21 build the rows of each
    # prime degree d <= 10 once, and keep no index array above degree 10
    calls = []

    def counted(q, mod_digits, top):
        calls.append(top)
        return reduction_rows(q, mod_digits, top)

    monkeypatch.setattr(_backend, "reduction_rows", counted)
    monkeypatch.setattr(ffpoly, "_IRR_INDEX_CACHE", {})
    monkeypatch.setattr(ffpoly, "_IRR_COUNT_CACHE", {})
    cfg = ExperimentConfig.from_dict(
        {"schema": 1, "q": 2, "moduli": ["T^2"], "budget": {"max_enum": 1 << 21}}
    )
    rows = cli.cmd_enumerate(cfg)
    assert calls == [21] * 10
    assert [r.params for r in rows] == [f"n={n}" for n in range(1, 22)]
    assert all(r.passed and r.value == r.constant for r in rows)
    assert len(ffpoly._IRR_INDEX_CACHE[2]) == 11


@pytest.mark.parametrize("q", [2, 3])
def test_extended_table_equals_fresh_build(q):
    short = irreducible_indices(q, 5)
    extended = irreducible_indices(q, 9, short)
    fresh = irreducible_indices(q, 9)
    assert len(short) == 6 and len(extended) == len(fresh) == 10
    for a, b in zip(extended, fresh):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("q,dmod", [(2, 3), (3, 2), (3, 4), (5, 3)])
def test_scale_mod_many_matches_poly_arithmetic(q, dmod):
    field = FieldSpec(q)
    rng = random.Random(100 * q + dmod)
    mod = FqPoly(field, [rng.randrange(q) for _ in range(dmod)] + [1])
    mod_digits = np.array([mod.coeff(k) for k in range(dmod + 1)], np.int64)
    rows = np.array([rng.randrange(q**dmod) for _ in range(80)], np.int64)
    c_one = rng.randrange(q**dmod)
    c_many = np.array([rng.randrange(q**dmod) for _ in range(80)], np.int64)
    for c_idx in (c_one, c_many):
        got = scale_mod_many(q, mod_digits, rows, c_idx)
        for row, c, out in zip(rows, np.broadcast_to(c_idx, rows.shape), got):
            r_poly = residue_from_index(field, dmod, int(row))
            c_poly = residue_from_index(field, dmod, int(c))
            expected = (r_poly * c_poly) % mod
            assert int(out) == residue_index(expected, dmod)


@pytest.mark.parametrize(
    "q,text,top",
    [
        (2, "T^3 + T + 1", 9),
        (2, "T^4", 9),  # non-squarefree
        (3, "T^2 + 1", 8),
        (3, "T^3 + T^2", 10),  # non-squarefree
        (3, "T^4 + 2*T + 2", 6),
        (5, "T^2 + T + 2", 7),
        (5, "T^3 + 4*T + 4", 2),  # top below deg F
    ],
)
def test_reduction_rows_match_division(q, text, top):
    field = FieldSpec(q)
    F = parse_poly(field, text)
    rows = reduction_rows(q, F.coeffs, top)
    assert rows.shape == (top + 1, F.degree)
    assert np.array_equal(reduction_rows(q, [F.coeffs] * 2, top), [rows, rows])
    for k in range(top + 1):
        T_k = FqPoly(field, [0] * k + [1])
        expected = poly_divmod(T_k, F)[1]
        assert [int(c) for c in rows[k]] == [expected.coeff(i) for i in range(F.degree)]


def test_product_rows_memo_keyed_by_q_and_modulus():
    # one coefficient tuple at two q, passed as a tuple and as an array: each
    # product matches FqPoly arithmetic, and the memo holds one read-only
    # entry per (q, coefficients)
    _backend._product_rows.cache_clear()
    for q in (3, 5, 3):
        field = FieldSpec(q)
        mod, c = parse_poly(field, "T^2 + 2"), parse_poly(field, "T + 1")
        want = [
            residue_index((residue_from_index(field, 2, r) * c) % mod, 2)
            for r in range(q**2)
        ]
        for digits in (mod.coeffs, np.array(mod.coeffs)):
            got = scale_mod_many(q, digits, np.arange(q**2), residue_index(c, 2))
            assert got.tolist() == want
    assert _backend._product_rows.cache_info().currsize == 2
    rows = _backend._product_rows(3, (2, 0, 1))
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1
