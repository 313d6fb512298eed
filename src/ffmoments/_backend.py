"""Bulk polynomial kernels in numpy, and the base-q digit encoding they share.

Encoding: a monic polynomial of degree n <-> integer in [0, q^n) whose
base-q digits are the n low-order coefficients, constant term least
significant.  Residues mod a degree-d modulus use the same digits over d
slots.  Reduction mod a monic F is linear in the digits: a polynomial with
digit column x (leading coefficient included) reduces to the digits
(reduction_rows(q, F, top)[:len(x)].T @ x) mod q.

irreducible_indices sieves the monic irreducibles of each degree.  A monic
A = H T^d + R of degree n, deg R < d, is a multiple of the degree-d prime P
exactly when R = -H T^d mod P; then index(A) = index(H) q^d + index(R), and
R is linear in the digits of H, through the rows -T^k mod P, built once
per call to the deepest degree.  The multiples are built in steps of at most
_SIEVE_CHUNK products, so beyond the mask of degree n the working memory
does not grow with q^(n-d).  scale_mod_many multiplies a batch of
encoded residues by residues mod Q.
"""

from __future__ import annotations

import functools

import numpy as np

# products per sieve step; bounds the sieve's working memory
_SIEVE_CHUNK = 1 << 17


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
    the rows of each along a leading axis, shape (N, top + 1, d)."""
    low = np.asarray(mod_digits, dtype=np.int64)[..., :-1]
    d = low.shape[-1]
    rows = np.zeros(low.shape[:-1] + (top + 1, d), dtype=np.int64)
    if d == 0:
        return rows
    rows[..., 0, 0] = 1
    for k in range(top):
        cur, nxt = rows[..., k, :], rows[..., k + 1, :]
        nxt[..., 1:] = cur[..., :-1]
        nxt -= cur[..., -1:] * low  # T^d = -(low part of F) mod F
        nxt %= q
    return rows


def _add_digits(r: np.ndarray, rho: np.ndarray, q: int, steps: int) -> np.ndarray:
    """Outer sums r + h_k rho[k] mod q over the digits h_k = 0..q-1 of each
    row block rho[k], shape (d, R), in turn; each digit becomes the new most
    significant part of the last axis, (d, R, X) -> (d, R, q X).  Reduced mod
    q in place after every `steps` digits and after the last one."""
    hdig = np.arange(q, dtype=r.dtype)[:, None]
    for k, rho_k in enumerate(rho, 1):
        r = r[:, :, None] + hdig * rho_k[:, :, None, None]
        r = r.reshape(r.shape[0], r.shape[1], -1)
        if k % steps == 0 or k == len(rho):
            t = r // q  # numpy divides by a scalar far faster than %
            t *= q
            r -= t
    return r


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
    n - d + 1 of them serve every degree n <= top."""
    rho = -reduction_rows(q, digit_rows(primes + q**d, q, d + 1).T, top)[:, d:] % q
    return rho.transpose(1, 2, 0).astype(_digit_type(q)[0])


def _multiple_indices(q: int, rho: np.ndarray, n: int, d: int):
    """Yield the indices of the monic degree-n multiples of the degree-d
    primes whose rows rho_k = -T^(d+k) mod P, k <= n - d (at least), are
    rho, from _prime_rows, in arrays of at most _SIEVE_CHUNK products.  A
    multiple of P is A = H T^d + R, fixed by its monic top part H of degree
    m = n - d, with R = sum_k h_k rho_k over the digits of H (h_m = 1).  The
    low j digits of H, j <= m largest with q^j <= _SIEVE_CHUNK, vary along
    the last axis; a row is one (prime, top digits) pair, with base vector
    rho_m + sum_{k >= j} h_k rho_k.  Flattened in yield order, the arrays
    run over the primes and for each over index(H)."""
    m = n - d
    itype = np.int32 if q**n < 2**31 else np.int64
    steps = _digit_type(q)[1]
    j = 0
    while j < m and q ** (j + 1) <= _SIEVE_CHUNK:
        j += 1
    tops = q ** (m - j)  # rows per prime
    bases = _add_digits(rho[m][:, :, None], rho[j:m], q, steps).reshape(d, -1)
    low = np.arange(q**j, dtype=itype) * q**d
    step = _SIEVE_CHUNK // q**j  # rows per array, at least 1
    for s in range(0, bases.shape[1], step):
        rows = np.arange(s, min(s + step, bases.shape[1]))
        r = _add_digits(bases[:, rows, None], rho[:j, :, rows // tops], q, steps)
        index = r[d - 1].astype(itype)  # widen before scaling
        for i in range(d - 2, -1, -1):
            index *= q
            index += r[i]
        index += low
        index += (rows % tops * q ** (j + d)).astype(itype)[:, None]
        yield index


def irreducible_indices(
    q: int, n_max: int, known: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Per-degree index arrays of the monic irreducibles of degree 1..n_max.

    Returns a list L with L[n] the sorted int64 index array for degree n
    (L[0] is empty); known, such a list from an earlier call, is extended
    instead of rebuilt.  Works by sieving: for each degree n, every product
    of an irreducible of degree d <= n/2 with a monic cofactor is marked
    composite; the survivors are the irreducibles.  The rows of the
    degree-d primes are built once, to degree n_max, and sliced per n.
    """
    out = list(known) if known else [np.empty(0, dtype=np.int64)]
    rho: dict[int, np.ndarray] = {}
    for n in range(len(out), n_max + 1):
        mask = np.ones(q**n, dtype=bool)
        for d in range(1, n // 2 + 1):
            if d not in rho:
                rho[d] = _prime_rows(q, out[d], d, n_max)
            for index in _multiple_indices(q, rho[d], n, d):
                mask[index] = False
        out.append(np.flatnonzero(mask).astype(np.int64, copy=False))
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
    low = (_product_rows(q, tuple(np.asarray(mod_digits).tolist())) @ prod) % q
    return q ** np.arange(d, dtype=np.int64) @ low


@functools.cache
def _product_rows(q: int, mod_digits: tuple[int, ...]) -> np.ndarray:
    """(d, 2d - 1) digits of T^k mod F, k <= 2d - 2, one column per k: the
    reduction of a product of two residues; read-only."""
    rows = reduction_rows(q, mod_digits, 2 * len(mod_digits) - 4).T
    rows.setflags(write=False)
    return rows
