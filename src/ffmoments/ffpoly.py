"""Exact arithmetic in F_q[T] for prime q.

Polynomials are immutable and kept in canonical trimmed form: coefficients
are stored lowest degree first as a tuple of residues in [0, q), with no
trailing zeros (the zero polynomial is the empty tuple and has degree -1).

A monic polynomial of degree n is interchangeable with an integer index in
[0, q^n): its n low-order coefficients read as base-q digits, constant term
least significant.  Enumerating indices 0, 1, 2, ... therefore reproduces
the lexicographic coefficient order used everywhere in this package, e.g.
for q=2, n=2: T^2, T^2+1, T^2+T, T^2+T+1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ffmoments._backend import irreducible_indices


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def _prime_factors_int(n: int) -> tuple[int, ...]:
    """Distinct prime factors of a positive integer, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _mobius(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


@dataclass(frozen=True)
class FieldSpec:
    """The prime coefficient field F_q."""

    q: int

    def __post_init__(self):
        if not _is_prime_int(self.q):
            raise ValueError(f"field cardinality must be prime, got {self.q}")


class FqPoly:
    """Immutable dense polynomial over F_q, canonical trimmed form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()):
        q = field.q
        cs = [int(c) % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("FqPoly is immutable")

    def __reduce__(self):
        # rebuild through __init__: the default slot restore uses setattr
        return FqPoly, (self.field, self.coeffs)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "FqPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "FqPoly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: FieldSpec, c: int) -> "FqPoly":
        return cls(field, (c,))

    @classmethod
    def variable(cls, field: FieldSpec) -> "FqPoly":
        return cls(field, (0, 1))

    # -- structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial (distinguished sentinel)."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def norm(self) -> int:
        """q^degree for nonzero polynomials, 0 for the zero polynomial."""
        return 0 if self.is_zero else self.field.q ** self.degree

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def monic(self) -> "FqPoly":
        """The monic scalar multiple (nonzero input)."""
        if self.is_zero:
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = pow(lead, self.field.q - 2, self.field.q)
        return FqPoly(self.field, [c * inv for c in self.coeffs])

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    def _check_field(self, other: "FqPoly"):
        if not isinstance(other, FqPoly):
            raise TypeError(f"expected FqPoly, got {type(other).__name__}")
        if self.field != other.field:
            raise ValueError(
                f"field mismatch: F_{self.field.q} vs F_{other.field.q}"
            )

    def __add__(self, other):
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FqPoly(
            self.field, [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __neg__(self):
        return FqPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FqPoly(
            self.field, [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __mul__(self, other):
        return poly_mul(self, other)

    def __divmod__(self, other):
        return poly_divmod(self, other)

    def __floordiv__(self, other):
        return poly_divmod(self, other)[0]

    def __mod__(self, other):
        return poly_divmod(self, other)[1]

    def __repr__(self):
        return f"FqPoly(q={self.field.q}, {render_poly(self)!r})"

    def __str__(self):
        return render_poly(self)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------


def poly_mul(a: FqPoly, b: FqPoly) -> FqPoly:
    """Product in F_q[T]; degree adds for nonzero inputs."""
    a._check_field(b)
    if a.is_zero or b.is_zero:
        return FqPoly.zero(a.field)
    q = a.field.q
    out = [0] * (a.degree + b.degree + 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                out[i + j] = (out[i + j] + ai * bj) % q
    return FqPoly(a.field, out)


def poly_divmod(a: FqPoly, b: FqPoly) -> tuple[FqPoly, FqPoly]:
    """Long division a = b*quot + rem with deg(rem) < deg(b)."""
    a._check_field(b)
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    q = a.field.q
    if a.degree < b.degree:
        return FqPoly.zero(a.field), a
    inv_lead = pow(b.coeffs[-1], q - 2, q)
    rem = list(a.coeffs)
    db = b.degree
    quot = [0] * (a.degree - db + 1)
    for k in range(a.degree - db, -1, -1):
        c = rem[k + db] * inv_lead % q
        if c:
            quot[k] = c
            for j, bj in enumerate(b.coeffs):
                rem[k + j] = (rem[k + j] - c * bj) % q
    return FqPoly(a.field, quot), FqPoly(a.field, rem[:db])


def poly_gcd(a: FqPoly, b: FqPoly) -> FqPoly:
    """Monic greatest common divisor; inputs must not both be zero."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    a._check_field(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def pow_mod(base: FqPoly, exponent: int, modulus: FqPoly) -> FqPoly:
    """base**exponent reduced mod modulus, by square and multiply."""
    if exponent < 0:
        raise ValueError("negative exponent")
    result = FqPoly.one(base.field) % modulus
    acc = base % modulus
    e = exponent
    while e:
        if e & 1:
            result = (result * acc) % modulus
        acc = (acc * acc) % modulus
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# Irreducibility and enumeration
# ---------------------------------------------------------------------------


def is_irreducible(f: FqPoly) -> bool:
    """Irreducibility over F_q via the derived-power test.

    Checks T^(q^d) == T mod f together with gcd(T^(q^(d/l)) - T, f) = 1 for
    every prime l dividing d = deg(f).
    """
    if f.is_zero or f.degree < 1:
        raise ValueError("irreducibility is defined for degree >= 1 only")
    q = f.field.q
    n = f.degree
    T = FqPoly.variable(f.field)

    def frobenius_iterate(times: int) -> FqPoly:
        r = T % f
        for _ in range(times):
            r = pow_mod(r, q, f)
        return r

    if not ((frobenius_iterate(n) - T) % f).is_zero:
        return False
    for ell in _prime_factors_int(n):
        s = frobenius_iterate(n // ell)
        if poly_gcd((s - T) % f, f).degree != 0:
            return False
    return True


def monic_from_index(field: FieldSpec, n: int, index: int) -> FqPoly:
    """The monic degree-n polynomial whose low coefficients are the base-q
    digits of index (constant term least significant)."""
    q = field.q
    coeffs = []
    rem = index
    for _ in range(n):
        coeffs.append(rem % q)
        rem //= q
    if rem:
        raise ValueError(f"index {index} out of range for degree {n}")
    coeffs.append(1)
    return FqPoly(field, coeffs)


def monic_index(f: FqPoly) -> int:
    """Inverse of monic_from_index."""
    if not f.is_monic:
        raise ValueError("monic polynomial required")
    q = f.field.q
    idx = 0
    for c in reversed(f.coeffs[:-1]):
        idx = idx * q + c
    return idx


def residue_from_index(field: FieldSpec, width: int, index: int) -> FqPoly:
    """Polynomial of degree < width from its base-q digit encoding."""
    q = field.q
    coeffs = []
    rem = index
    for _ in range(width):
        coeffs.append(rem % q)
        rem //= q
    if rem:
        raise ValueError(f"index {index} out of range for width {width}")
    return FqPoly(field, coeffs)


def residue_index(f: FqPoly, width: int) -> int:
    """Base-q digit encoding of a polynomial of degree < width."""
    if f.degree >= width:
        raise ValueError("polynomial degree too large for residue width")
    q = f.field.q
    idx = 0
    for c in reversed(f.coeffs):
        idx = idx * q + c
    return idx


def enumerate_monic(field: FieldSpec, n: int) -> list[FqPoly]:
    """All q^n monic polynomials of degree n, lexicographic coefficient order."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return [monic_from_index(field, n, i) for i in range(field.q**n)]


_IRR_INDEX_CACHE: dict[int, list[np.ndarray]] = {}


def _irreducible_index_table(q: int, n: int) -> list[np.ndarray]:
    """Irreducible index arrays of degree 0..n at least; each degree is
    sieved once per process, a deeper request extending the table."""
    table = _IRR_INDEX_CACHE.get(q)
    if table is None or len(table) <= n:
        table = _IRR_INDEX_CACHE[q] = irreducible_indices(q, n, table)
    return table


def enumerate_irreducible(field: FieldSpec, n: int) -> list[FqPoly]:
    """All monic irreducibles of degree n, lexicographic coefficient order."""
    if n < 1:
        raise ValueError("irreducible enumeration needs degree >= 1")
    table = _irreducible_index_table(field.q, n)
    return [monic_from_index(field, n, int(i)) for i in table[n]]


def irreducible_count_enumerated(field: FieldSpec, n: int) -> int:
    """Count of degree-n irreducibles by exhaustive sieve over all monics."""
    if n < 1:
        raise ValueError("irreducible enumeration needs degree >= 1")
    return int(len(_irreducible_index_table(field.q, n)[n]))


def prime_count_exact(field: FieldSpec, n: int) -> int:
    """Exact number of monic irreducibles of degree n:
    (1/n) * sum over d|n of mu(d) q^(n/d)."""
    if n < 1:
        raise ValueError("prime counting needs degree >= 1")
    q = field.q
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * q ** (n // d)
    assert total % n == 0
    return total // n


# ---------------------------------------------------------------------------
# Text rendering and parsing
# ---------------------------------------------------------------------------


def degree_cutoff(q: int, x) -> int:
    """h >= 0 with x = q^h; raises unless x is such a power of q."""
    h = round(math.log(float(x)) / math.log(q))
    if h < 0 or q**h != round(float(x)):
        raise ValueError(f"{x} is not a power of q={q}")
    return h


def render_poly(f: FqPoly) -> str:
    """Render as "c_k*T^k + ... + c_0" with coefficients in [0, q)."""
    if f.is_zero:
        return "0"
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("T" if c == 1 else f"{c}*T")
        else:
            parts.append(f"T^{k}" if c == 1 else f"{c}*T^{k}")
    return " + ".join(parts)


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?:(?P<var>T)(?:\^(?P<exp>\d+))?)?\s*$"
)


def parse_poly(field: FieldSpec, text: str) -> FqPoly:
    """Parse the render_poly grammar (plus bare "T" / "T^k" shorthands).

    Raises PolyParseError with the offending position on malformed input.
    """
    if not text.strip():
        raise PolyParseError("empty polynomial text", 0)
    coeffs: dict[int, int] = {}
    pos = 0
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        bad = m is None or (m.group("coeff") is None and m.group("var") is None)
        if bad:
            offset = pos + (len(chunk) - len(chunk.lstrip()))
            raise PolyParseError(f"malformed term {chunk.strip()!r}", offset)
        c = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var"):
            k = int(m.group("exp")) if m.group("exp") else 1
        else:
            k = 0
        coeffs[k] = coeffs.get(k, 0) + c
        pos += len(chunk) + 1
    width = max(coeffs) + 1
    return FqPoly(field, [coeffs.get(k, 0) for k in range(width)])
