"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are stored as coefficient vectors of length N, i.e. as classes of
rational polynomials modulo x^N - 1.  Ring operations are plain cyclic
convolutions; only the zero test pays the reduction modulo the N-th
cyclotomic polynomial Phi_N, which is the correct criterion for being zero
in Q(zeta_N) (the quotient modulo x^N - 1 maps onto the field with a
nontrivial kernel).  Representation equality is NOT field equality;
``==`` on CycNum tests field equality.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rat = Fraction
Scalar = Union[int, Fraction]


class LevelMismatchError(ValueError):
    """Raised when combining cyclotomic numbers of different levels."""


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    m = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            m = -m
        p += 1
    if n > 1:
        m = -m
    return m


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """The monic N-th cyclotomic polynomial Phi_N, integer coefficients.

    Built as prod_{d|N} (x^{N/d} - 1)^{mu(d)} in integers: first every
    mu = +1 factor is multiplied in by shift-and-subtract, then the product
    is divided exactly by each mu = -1 factor x^m - 1 through the recurrence
    q[i] = q[i-m] - p[i].  Degree is the Euler totient of N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    p = [1]
    for d in divisors:
        if _mobius(d) == 1:
            m = N // d
            p = [a - b for a, b in zip([0] * m + p, p + [0] * m)]
    for d in divisors:
        if _mobius(d) == -1:
            m = N // d
            q: list = []
            for i, c in enumerate(p):
                q.append((q[i - m] if i >= m else 0) - c)
            # the last m terms of the recurrence are the remainder
            assert not any(q[-m:]), "cyclotomic polynomial division must be exact"
            p = q[:-m]
    return tuple(p)


def totient(N: int) -> int:
    return len(cyclotomic_polynomial(N)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(N: int) -> tuple[tuple[int, ...], ...]:
    """Rows x^j mod Phi_N for phi <= j < N, as integer coefficient tuples.

    Used by the zero test: reduction modulo Phi_N becomes a handful of
    integer multiply-adds instead of a polynomial division.
    """
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    rows = []
    # x^deg mod Phi = -(low part of Phi), since Phi is monic
    cur = [-c for c in phi[:deg]]
    for _ in range(deg, N):
        rows.append(tuple(cur))
        # multiply by x, then reduce the overflowing top coefficient
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(deg):
                cur[i] -= top * phi[i]
    return tuple(rows)


@lru_cache(maxsize=None)
def reduction_norm(N: int) -> int:
    """1 + max_i sum_j |(x^j mod Phi_N)_i|: reducing a length-N vector with
    entries at most M in size gives entries at most M times this."""
    rows = _reduction_rows(N)
    return 1 + max((sum(abs(r[i]) for r in rows) for i in range(totient(N))), default=0)


def reduce_mod_cyclotomic(level: int, coeffs: Sequence) -> list:
    """Remainder of sum_j coeffs[j] x^j modulo Phi_level.

    Works for integer or Fraction coefficient vectors of any length up to
    level; the result has length phi(level).
    """
    deg = totient(level)
    res = list(coeffs[:deg])
    res += [0] * (deg - len(res))
    for c, row in zip(coeffs[deg:level], _reduction_rows(level)):
        if c:
            for i, r in enumerate(row):
                if r:
                    res[i] = res[i] + c * r
    return res


# ---------------------------------------------------------------------------
# Field elements.
# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_N), stored modulo x^N - 1."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Iterable[Scalar]):
        if level < 1:
            raise ValueError("level must be >= 1")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != level:
            raise ValueError(f"expected {level} coefficients, got {len(coeffs)}")
        self.level = level
        self.coeffs = coeffs

    @classmethod
    def from_rat(cls, level: int, value: Scalar) -> "CycNum":
        return cls(level, (value,) + (0,) * (level - 1))

    @classmethod
    def zero(cls, level: int) -> "CycNum":
        return cls(level, (0,) * level)

    def _check(self, other: "CycNum") -> None:
        if self.level != other.level:
            raise LevelMismatchError(f"levels differ: {self.level} vs {other.level}")

    def __add__(self, other):
        if isinstance(other, CycNum):
            self._check(other)
            return CycNum(self.level, (a + b for a, b in zip(self.coeffs, other.coeffs)))
        if isinstance(other, (int, Fraction)):
            return self + CycNum.from_rat(self.level, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.level, (-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, CycNum):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum(self.level, (a * other for a in self.coeffs))
        if isinstance(other, CycNum):
            self._check(other)
            N = self.level
            out = [Fraction(0)] * N
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            k = i + j
                            if k >= N:
                                k -= N
                            out[k] += a * b
            return CycNum(N, out)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """True iff this element is zero in the field Q(zeta_N)."""
        if not any(self.coeffs):
            return True
        return not any(reduce_mod_cyclotomic(self.level, self.coeffs))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rat(self.level, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.level != other.level:
            return False
        return (self - other).is_zero()

    __hash__ = None  # field equality is not hashable-friendly

    def embed(self) -> complex:
        """Numerical evaluation at zeta_N = exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.level)
        acc = 0j
        pw = 1 + 0j
        for c in self.coeffs:
            if c:
                acc += float(c) * pw
            pw *= z
        return acc

    def __repr__(self):
        return f"CycNum({self.level}, {list(self.coeffs)})"

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sgn = "-" if c < 0 else ("+" if terms else "")
                pw = "z" if j == 1 else f"z^{j}"
                terms.append(f"{sgn}{mag}{pw}" if not terms else f" {sgn} {mag}{pw}")
        return "".join(terms) if terms else "0"


def zeta_pow(N: int, j: int) -> CycNum:
    """zeta_N^j as a CycNum (exponent reduced mod N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    coeffs = [0] * N
    coeffs[j % N] = 1
    return CycNum(N, coeffs)
