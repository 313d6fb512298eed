"""Bulk polynomial kernels in numpy, and the base-q digit encoding they share.

Encoding: a monic polynomial of degree n <-> integer in [0, q^n) whose
base-q digits are the n low-order coefficients, constant term least
significant.  Residues mod a degree-d modulus use the same digits over d
slots.  Reduction mod a monic F is linear in the digits: a polynomial with
digit column x (leading coefficient included) reduces to the digits
(reduction_rows(q, F, top)[:len(x)].T @ x) mod q.

irreducible_indices sieves the monic irreducibles of each degree, and
irreducible_counts only counts them beyond degree n_max / 2.  A monic
A = H T^d + R of degree n, deg R < d, is a multiple of the degree-d prime P
exactly when R = -H T^d mod P; then index(A) = index(H) q^d + index(R), and
R is linear in the digits of H, through the rows -T^k mod P, built once
per call to the deepest degree.  Degree n is sieved in segments of q^k
monics, k >= n/2, so that the top n - k digits of A are the top digits of
H: a segment's multiples of P are those whose H has the segment's top
digits, and one bool mask of q^k entries holds a segment's marks.  The
multiples are built from one small table of low-digit remainders per factor
degree, in steps of at most _SIEVE_CHUNK products, so the working memory
does not grow with q^n; counting keeps only the index arrays of degree
<= n/2.  scale_mod_many multiplies encoded residues by residues mod Q.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# products per sieve step; bounds the sieve's working memory
_SIEVE_CHUNK = 1 << 16
# monics per sieve segment, at most, unless a degree needs more
_SIEVE_SEGMENT = 1 << 18


def digit_rows(indices, q: int, width: int) -> np.ndarray:
    """(width, N) base-q digits of N indices: row k holds digit k."""
    rem = np.array(indices, dtype=np.int64)
    out = np.empty((width, len(rem)), dtype=np.int64)
    for k in range(width):
        out[k] = rem % q
        rem //= q
    return out


def reduction_rows(q: int, mod_digits, top: int) -> np.ndarray:
    """(top + 1, d) digit rows of T^k mod F for k = 0..top, where mod_digits
    holds the d + 1 coefficients of the monic degree-d F, constant first.
    A stack of N moduli of one degree, mod_digits of shape (N, d + 1), gives
    the rows of each along a leading axis, shape (N, top + 1, d).  The rows
    have the dtype of mod_digits, int64 for a list or tuple; it must hold
    +-(q - 1)^2."""
    low = np.asarray(mod_digits)[..., :-1]
    d = low.shape[-1]
    rows = np.zeros(low.shape[:-1] + (top + 1, d), dtype=low.dtype)
    if d == 0:
        return rows
    rows[..., 0, 0] = 1
    for k in range(top):
        cur, nxt = rows[..., k, :], rows[..., k + 1, :]
        nxt[..., 1:] = cur[..., :-1]
        nxt -= cur[..., -1:] * low  # T^d = -(low part of F) mod F
        nxt %= q
    return rows


def _add_digits(q: int, rho: np.ndarray) -> np.ndarray:
    """(d, R, q^K) outer sums sum_k h_k rho[k] mod q over the digits h_k of the
    K row blocks rho[k], shape (d, R), in the dtype of rho; the digit h_k is
    the k-th least significant of the last axis.  Reduced mod q in place
    after every `steps` digits of _digit_type and after the last one."""
    r = np.zeros(rho.shape[1:] + (1,), rho.dtype)
    hdig = np.arange(q, dtype=r.dtype)[:, None]
    for k, rho_k in enumerate(rho, 1):
        r = r[:, :, None] + hdig * rho_k[:, :, None, None]
        r = r.reshape(r.shape[0], r.shape[1], -1)
        if k % _digit_type(q)[1] == 0 or k == len(rho):
            t = r // q  # numpy divides by a scalar far faster than %
            t *= q
            r -= t
    return r


@functools.cache
def _digit_type(q: int):
    """The narrowest dtype for digit sums that cannot wrap between their
    reductions mod q, one every `steps` digits: (q - 1) + steps (q - 1)^2;
    with that step count."""
    for ctype in (np.int8, np.int16, np.int32, np.int64):
        steps = (np.iinfo(ctype).max - (q - 1)) // (q - 1) ** 2
        if steps >= 1:
            return ctype, steps


def _prime_rows(q: int, primes: np.ndarray, d: int, top: int) -> np.ndarray:
    """(top - d + 1, d, N) rows rho_k = -T^(d+k) mod P, k <= top - d, of the N
    degree-d primes with these indices, in the digit dtype of q; the first
    n - d + 1 of them serve every degree n <= top.  Built and reduced in
    that dtype, so no int64 copy of the rows is made."""
    digits = digit_rows(primes + q**d, q, d + 1).astype(_digit_type(q)[0])
    rho = reduction_rows(q, digits.T, top)[:, d:]
    np.negative(rho, out=rho)
    rho %= q
    return np.ascontiguousarray(rho.transpose(1, 2, 0))


def _low_table(q: int, rho: np.ndarray) -> np.ndarray:
    """The remainders sum_{i<j} h_i rho_i of the low j digits h of H, by
    _add_digits over the rows rho of _prime_rows: j < len(rho) the largest with
    d N q^j <= _SIEVE_CHUNK / 4; the first q^i columns are those of i digits."""
    _, d, count = rho.shape
    j = sum(d * count * q**i <= _SIEVE_CHUNK // 4 for i in range(1, len(rho)))
    return _add_digits(q, rho[:j])


def _multiple_indices(q: int, rho: np.ndarray, low: np.ndarray, n: int, d: int, k: int):
    """Yield per segment of q^k monics, d <= k <= n, an iterator over the
    indices (from the segment start) of its monic degree-n multiples of the
    degree-d primes with rows rho_k = -T^(d+k) mod P (_prime_rows), k <= n - d,
    and _low_table low, at most _SIEVE_CHUNK products per array.  A multiple
    of P is A = H T^d + R, H monic of degree m = n - d and R = sum_k h_k rho_k
    over its digits (h_m = 1); segment s holds those whose digits k - d ..
    m - 1 of H are the digits of s.  The table, plus the segment's digits,
    gives the remainders of the low j <= k - d digits of H, an outer sum those
    of the others; a step adds the two digit by digit, the longer of the prime
    and low-digit axes innermost, and reduces mod q."""
    m, f = n - d, k - d  # the digits of H below f are free in a segment
    rho, rtype = rho.view(f"u{rho.itemsize}"), np.min_scalar_type(q**d - 1)
    j = sum(q**i <= low.shape[2] for i in range(1, f + 1))
    free = _add_digits(q, rho[j:f])
    (_, count, tops), lows = free.shape, q**j
    inner = count > lows  # steps run over axes (top, low, prime), else (top, prime, low)
    free = np.expand_dims(np.ascontiguousarray(free.transpose(0, 2, 1)), 3 - inner)
    low = np.ascontiguousarray(np.moveaxis(low[:, :, :lows], 1, 1 + inner))
    mid, last = sorted((count, lows))
    ic = min(last, max(1, _SIEVE_CHUNK // mid))  # innermost entries per step
    tc = max(1, _SIEVE_CHUNK // (mid * ic))  # tops per step

    def marks(top):
        lo = low.view(rho.dtype) + np.expand_dims(top, 2 - inner)
        np.minimum(lo, lo - q, out=lo)  # lo - q wraps where lo < q
        hlow = np.moveaxis(np.arange(lows)[None] * q**d, 0, inner)  # index(H) q^d
        for t, p in itertools.product(range(0, tops, tc), range(0, last, ic)):
            b, c = free[::-1, t : t + tc, ..., p : p + ic], lo[::-1, ..., p : p + ic]
            r = (np.minimum(s, s - q) for s in map(np.add, b, c))  # R, top digit first
            index = functools.reduce(lambda x, y: x * q + y, r, rtype.type(0))
            index = index.astype(np.intp)  # then added to in place: no cast buffers
            index += hlow
            index += np.arange(t, t + len(index))[:, None, None] * q ** (j + d)
            yield index
            del index  # freed before the next step is built

    for h in digit_rows(range(q ** (n - k)), q, n - k).T:  # the digits of s
        yield marks(((rho[m] + np.tensordot(h, rho[f:m], axes=1)) % q).astype(rho.dtype))


def _segment_digits(q: int, n: int) -> int:
    """k for the segments of degree n: q^k monics each, the most that fit in
    _SIEVE_SEGMENT, but never fewer than q^(n // 2), so that every factor
    degree d <= n / 2 leaves its remainder digits inside one segment."""
    k = n // 2
    while k < n and q ** (k + 1) <= _SIEVE_SEGMENT:
        k += 1
    return k


def _sieve(q: int, n_max: int, table: list[np.ndarray], keep: int, first: int):
    """Sieve the degrees len(table)..n_max, but those between keep and first:
    append to table the index array of each degree n <= keep, and return the
    counts of degree first..n_max (a degree already in table is counted from
    it).  keep >= n_max // 2, since the primes of degree d <= n / 2 mark the
    composites of degree n.

    A degree n is sieved one segment of q^k monics at a time, in one bool
    mask of q^k entries: the multiples of each degree-d prime that fall in
    the segment are marked composite (_multiple_indices), and what survives
    is the segment's irreducibles.  The rows -T^k mod P of the degree-d
    primes and their _low_table are built once, for every n <= n_max."""
    counts = [len(a) for a in table]
    rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for n in range(len(table), n_max + 1):
        counts.append(0)
        if keep < n < first:
            continue
        for d in range(1, n // 2 + 1):
            if d not in rows:
                rho = _prime_rows(q, table[d], d, n_max)
                rows[d] = rho, _low_table(q, rho)
        k = _segment_digits(q, n)
        mask = np.empty(q**k, dtype=bool)
        degrees = [_multiple_indices(q, *rows[d], n, d, k) for d in range(1, n // 2 + 1)]
        survivors = []
        for s, *marks in zip(range(q ** (n - k)), *degrees):
            mask.fill(True)
            for index in itertools.chain.from_iterable(marks):
                mask[index] = False
                del index  # freed before the next step is built
            counts[n] += int(np.count_nonzero(mask))
            if n <= keep:
                survivors.append(np.flatnonzero(mask) + s * q**k)
        if n <= keep:
            table.append(np.concatenate(survivors).astype(np.int64, copy=False))
    return counts[first:]


def irreducible_indices(
    q: int, n_max: int, known: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Per-degree index arrays of the monic irreducibles of degree 1..n_max.

    Returns a list L with L[n] the sorted int64 index array for degree n
    (L[0] is empty); known, such a list from an earlier call, is extended
    instead of rebuilt.  Works by sieving (_sieve): for each degree n, every
    product of an irreducible of degree d <= n/2 with a monic cofactor is
    marked composite; the survivors are the irreducibles.
    """
    out = list(known) if known else [np.empty(0, dtype=np.int64)]
    _sieve(q, n_max, out, n_max, n_max + 1)
    return out


def irreducible_counts(
    q: int, n_max: int, known: list[np.ndarray] | None = None, first: int = 1
) -> tuple[list[np.ndarray], list[int]]:
    """The numbers of monic irreducibles of degree first..n_max, by the sieve
    of irreducible_indices, and the index arrays it sieves with: known (or a
    fresh list) extended to degree n_max // 2.  No index array of a higher
    degree is built, and a degree between the two is not sieved."""
    table = list(known) if known else [np.empty(0, dtype=np.int64)]
    return table, _sieve(q, n_max, table, n_max // 2, first)


def scale_mod_many(
    q: int, mod_digits: np.ndarray, rows: np.ndarray, c_index: int | np.ndarray
) -> np.ndarray:
    """Multiply each encoded residue by the residue c_index, mod Q.

    mod_digits holds the d+1 coefficients of the monic degree-d modulus.
    rows is an int64 array of residue indices (degree < d) and c_index one
    residue index or one per row; the result is the index array of
    (row * c) mod Q.
    """
    d = len(mod_digits) - 1
    rows = np.asarray(rows, dtype=np.int64)
    if d == 0:
        return np.zeros_like(rows)
    R = digit_rows(rows, q, d)
    C = digit_rows(np.broadcast_to(c_index, rows.shape), q, d)
    prod = np.zeros((2 * d - 1, len(rows)), dtype=np.int64)
    for i in range(d):
        prod[i : i + d] += C[i] * R
    low = (_product_rows(q, tuple(np.asarray(mod_digits).tolist())) @ prod) % q
    return q ** np.arange(d, dtype=np.int64) @ low


@functools.cache
def _product_rows(q: int, mod_digits: tuple[int, ...]) -> np.ndarray:
    """(d, 2d - 1) digits of T^k mod F, k <= 2d - 2, one column per k: the
    reduction of a product of two residues; read-only."""
    rows = reduction_rows(q, mod_digits, 2 * len(mod_digits) - 4).T
    rows.setflags(write=False)
    return rows
