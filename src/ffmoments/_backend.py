"""Bulk polynomial kernels in numpy, and the base-q digit encoding they share.

Encoding: a monic polynomial of degree n <-> integer in [0, q^n) whose
base-q digits are the n low-order coefficients, constant term least
significant.  Residues mod a degree-d modulus use the same digits over d
slots.  Reduction mod a monic F is linear in the digits: a polynomial with
digit column x (leading coefficient included) reduces to the digits
(reduction_rows(q, F, top)[:len(x)].T @ x) mod q.

irreducible_indices sieves the monic irreducibles of each degree, with one
array operation per chunk of primes; scale_mod_many multiplies a batch of
encoded residues by residues mod Q.
"""

from __future__ import annotations

import numpy as np

# products per sieve array operation; bounds the sieve's working memory
_SIEVE_CHUNK = 1 << 20


def digit_rows(indices, q: int, width: int, dtype=np.int64) -> np.ndarray:
    """(width, N) base-q digits of N indices: row k holds digit k."""
    rem = np.array(indices, dtype=np.int64)
    out = np.empty((width, len(rem)), dtype=dtype)
    for k in range(width):
        out[k] = rem % q
        rem //= q
    return out


def reduction_rows(q: int, mod_digits, top: int) -> np.ndarray:
    """(top + 1, d) digit rows of T^k mod F for k = 0..top, where mod_digits
    holds the d + 1 coefficients of the monic degree-d F, constant first."""
    low = np.asarray(mod_digits, dtype=np.int64)[:-1]
    d = len(low)
    rows = np.zeros((top + 1, d), dtype=np.int64)
    if d == 0:
        return rows
    cur = np.zeros(d, dtype=np.int64)
    cur[0] = 1
    for k in range(top + 1):
        rows[k] = cur
        lead = cur[-1]
        cur = np.concatenate(([0], cur[:-1]))
        cur = (cur - lead * low) % q  # T^d = -(low part of F) mod F
    return rows


def _mark_products_q2(mask: np.ndarray, primes: np.ndarray, n: int, d: int):
    """Mark P * G for every prime P of degree d and monic G of degree n - d,
    as carry-less products of bit-packed polynomials."""
    m = n - d
    cof = np.arange(1 << m, dtype=np.int64) | (1 << m)
    bits = primes | (1 << d)
    step = max(1, _SIEVE_CHUNK >> m)
    for s in range(0, len(bits), step):
        p = bits[s : s + step, None]
        prod = np.zeros((len(p), len(cof)), dtype=np.int64)
        for i in range(d + 1):
            prod ^= ((p >> i) & 1) * (cof << i)
        mask[prod & ((1 << n) - 1)] = False


def _mark_products(mask: np.ndarray, q: int, primes: np.ndarray, n: int, d: int):
    """Mark P * G for every prime P of degree d and monic G of degree n - d:
    digit t of the product is sum_i p_i g_(t-i) mod q, built one digit
    column at a time for a chunk of primes against all cofactors."""
    m = n - d
    ctype = np.int16 if (d + 1) * (q - 1) ** 2 < 2**15 else np.int64
    itype = np.int32 if q**n < 2**31 else np.int64
    # offsetting an index by q^k makes its digit k the leading 1
    cof = digit_rows(np.arange(q**m, 2 * q**m), q, m + 1, ctype)
    pdig = digit_rows(primes + q**d, q, d + 1, ctype)
    step = max(1, _SIEVE_CHUNK // q**m)
    for s in range(0, len(primes), step):
        p = pdig[:, s : s + step, None]
        index = np.zeros((p.shape[1], q**m), dtype=itype)
        for t in range(n):
            lo, hi = max(0, t - m), min(d, t)
            col = p[lo] * cof[t - lo]
            for i in range(lo + 1, hi + 1):
                col += p[i] * cof[t - i]
            index += (col % q).astype(itype) * q**t  # widen before scaling
        mask[index] = False


def irreducible_indices(
    q: int, n_max: int, known: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Per-degree index arrays of the monic irreducibles of degree 1..n_max.

    Returns a list L with L[n] the sorted int64 index array for degree n
    (L[0] is empty); known, such a list from an earlier call, is extended
    instead of rebuilt.  Works by sieving: for each degree n, every product
    of an irreducible of degree d <= n/2 with a monic cofactor is marked
    composite; the survivors are the irreducibles.
    """
    out = list(known) if known else [np.empty(0, dtype=np.int64)]
    for n in range(len(out), n_max + 1):
        mask = np.ones(q**n, dtype=bool)
        for d in range(1, n // 2 + 1):
            if q == 2:
                _mark_products_q2(mask, out[d], n, d)
            else:
                _mark_products(mask, q, out[d], n, d)
        out.append(np.flatnonzero(mask).astype(np.int64))
    return out


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
    low = (reduction_rows(q, mod_digits, 2 * d - 2).T @ prod) % q
    return q ** np.arange(d, dtype=np.int64) @ low
