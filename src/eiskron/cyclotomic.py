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
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Sequence, Union

Rat = Fraction
Scalar = Union[int, Fraction]


class LevelMismatchError(ValueError):
    """Raised when combining cyclotomic numbers of different levels."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """The monic N-th cyclotomic polynomial Phi_N, integer coefficients.

    From its definition x^N - 1 = prod_{d|N} Phi_d: x^N - 1 divided by
    Phi_d for each proper divisor d of N, each a monic long division in
    integers.  Degree is the Euler totient of N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    p = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            phi = cyclotomic_polynomial(d)
            m = len(phi) - 1
            q = [0] * (len(p) - m)
            for i in reversed(range(len(q))):
                c = q[i] = p[i + m]
                if c:
                    for e, a in enumerate(phi):
                        p[i + e] -= c * a
            # p is now the remainder; an explicit raise, not an assert:
            # python -O must not drop it
            if any(p):
                raise ArithmeticError("cyclotomic polynomial division must be exact")
            p = q
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


def reduce_columns(level: int, cols: Sequence[Sequence[int]]) -> list:
    """reduce_mod_cyclotomic on many vectors at once, held as columns: cols[c]
    lists entry c of every vector (between 1 and level columns, all of one
    length).  Returns the phi(level) columns of the remainders: the row
    x^c mod Phi_level, phi <= c < level, adds r times column c to column i
    for each entry r of the row, one map over the whole column."""
    deg = totient(level)
    res = list(cols[:deg])
    res += [(0,) * len(cols[0])] * (deg - len(res))
    for col, row in zip(cols[deg:level], _reduction_rows(level)):
        for i, r in enumerate(row):
            if r == 1:
                res[i] = list(map(add, res[i], col))
            elif r == -1:
                res[i] = list(map(sub, res[i], col))
            elif r:
                res[i] = list(map(add, res[i], map(mul, col, repeat(r))))
    return res


# ---------------------------------------------------------------------------
# Records and field elements.
# ---------------------------------------------------------------------------

class Record(tuple):
    """A named tuple whose fields are fixed once built.  A subclass lists
    Record before its namedtuple base and checks its fields in __new__,
    save PackedSeries and Plan, which check none: only PackedSeries.pack,
    the product kernel, linear_combination and _build_plan build them.
    Equality is type-strict (a record never equals the plain tuple of its
    fields) and the hash is the tuple's; no field can be set or deleted;
    the tuple's + and * are off; and _make calls the constructor, so
    _replace, copy and pickle check the fields again.  A subclass without
    __slots__ keeps an instance dict for memos (PackedSeries.at).
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other  # through a subclass's own __eq__

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__
    # a tuple would concatenate or repeat, and the result skip the checks
    __add__ = __radd__ = __mul__ = __rmul__ = lambda self, other: NotImplemented

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __reduce__(self):
        return type(self)._make, (tuple(self),)


class CycNum(Record, namedtuple("CycNum", "level coeffs")):
    """An element of Q(zeta_N), stored modulo x^N - 1: a Record, so it
    cannot be changed, whose ``==`` is field equality, so it has no hash."""

    __slots__ = ()

    def __new__(cls, level: int, coeffs: Iterable[Scalar]):
        if level < 1:
            raise ValueError("level must be >= 1")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != level:
            raise ValueError(f"expected {level} coefficients, got {len(coeffs)}")
        return tuple.__new__(cls, (level, coeffs))

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
        # False, not NotImplemented, which would let the tuple's reflected ==
        # make a CycNum equal to the plain tuple of its fields
        if not isinstance(other, CycNum) or self.level != other.level:
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
