"""Truncated series in q^{1/N} with coefficients in Q(zeta_N).

A QExpansion of level N and order T knows every coefficient of q^{n/N}
for 0 <= n < T (absent keys are zero).  All exponents are nonnegative,
so products of two series of orders T1, T2 are fully correct up to
order min(T1, T2).

Multiplication is the performance core of the whole engine.  It runs on
an integer representation (one common denominator per series) and packs
each operand into a single big integer, two-dimensionally: the zeta
exponent occupies a limb within a block of at most 2N - 1 limbs, the q
exponent selects the block.  One big-integer multiply then performs the
entire 2-D convolution at C speed; limb width is chosen from a coefficient
bound so that no carries cross limb boundaries.  Limbs are signed: two's
complement bytes offset by a per-limb bias, so one multiply serves
operands of either sign.

The relation residuals run on a second packing of the same kind
(PackedSeries): each series is reduced mod Phi_N, which makes it
canonical, and its phi(N) limbs per q exponent are packed into one big
int.  A linear combination of such series is then a few big-int
multiply-adds, and it is zero in Q(zeta_N) iff the packed sum is 0.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Sequence, Tuple, Union

from .cyclotomic import (CycNum, LevelMismatchError, Scalar, reduce_mod_cyclotomic,
                         totient, zeta_pow)

# integer form of a series: common denominator + integer coefficient vectors
IntCoeffs = Dict[int, Tuple[int, ...]]


class QExpansion:
    """Sparse truncated series sum_n c_n q^{n/N}, c_n in Q(zeta_N)."""

    __slots__ = ("level", "order", "coeffs")

    def __init__(self, level: int, order: int, coeffs: Mapping[int, CycNum]):
        if level < 1 or order < 1:
            raise ValueError("level and order must be positive")
        clean: Dict[int, CycNum] = {}
        for n, c in coeffs.items():
            if not 0 <= n < order:
                raise ValueError(f"exponent numerator {n} outside [0, {order})")
            if c.level != level:
                raise LevelMismatchError("coefficient level differs from series level")
            if any(c.coeffs):
                clean[n] = c
        self.level = level
        self.order = order
        self.coeffs = MappingProxyType(clean)  # read-only: caches share expansions

    def __reduce__(self):
        return QExpansion, (self.level, self.order, dict(self.coeffs))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, level: int, order: int) -> "QExpansion":
        return cls(level, order, {})

    @classmethod
    def constant(cls, level: int, order: int, value: Scalar) -> "QExpansion":
        return cls(level, order, {0: CycNum.from_rat(level, value)})

    def _check(self, other: "QExpansion") -> None:
        if self.level != other.level:
            raise LevelMismatchError(f"levels differ: {self.level} vs {other.level}")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        self._check(other)
        T = min(self.order, other.order)
        out: Dict[int, CycNum] = {}
        for n, c in self.coeffs.items():
            if n < T:
                out[n] = c
        for n, c in other.coeffs.items():
            if n < T:
                out[n] = out[n] + c if n in out else c
        return QExpansion(self.level, T, out)

    def __neg__(self):
        return QExpansion(self.level, self.order, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        self._check(other)
        T = min(self.order, other.order)
        da, A = to_int_form(self, T)
        db, B = to_int_form(other, T)
        C = convolve_int(self.level, T, A, B)
        return from_int_form(self.level, T, da * db, C)

    def scale(self, c: Union[Scalar, CycNum]) -> "QExpansion":
        return QExpansion(self.level, self.order, {n: v * c for n, v in self.coeffs.items()})

    def rescale_exponents(self, M: int) -> "QExpansion":
        """Substitute tau -> M*tau, i.e. q^{n/N} -> q^{nM/N}."""
        if M < 1:
            raise ValueError("M must be >= 1")
        return QExpansion(self.level, self.order * M, {n * M: c for n, c in self.coeffs.items()})

    def twist(self, j: int) -> "QExpansion":
        """Substitute tau -> tau + j: coefficient at q^{n/N} picks up zeta_N^{nj}."""
        return QExpansion(
            self.level, self.order,
            {n: c * zeta_pow(self.level, n * j) for n, c in self.coeffs.items()},
        )

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff every coefficient is zero in the field Q(zeta_N)."""
        return all(c.is_zero() for c in self.coeffs.values())

    def field_equals(self, other: "QExpansion") -> bool:
        return (self - other).is_zero()

    def first_nonzero_exponent(self) -> Union[int, None]:
        """Smallest n with a field-nonzero coefficient, or None."""
        for n in sorted(self.coeffs):
            if not self.coeffs[n].is_zero():
                return n
        return None

    # -- evaluation and serialization ----------------------------------------

    def eval_numeric(self, tau: complex) -> complex:
        if tau.imag <= 0:
            raise ValueError("tau must lie in the upper half-plane")
        acc = 0j
        for n, c in self.coeffs.items():
            acc += c.embed() * cmath.exp(2j * math.pi * tau * n / self.level)
        return acc

    def to_json_dict(self) -> dict:
        def enc(v: Fraction):
            num, den = v.numerator, v.denominator
            return [num if -2**63 <= num < 2**63 else str(num),
                    den if den < 2**63 else str(den)]

        return {
            "level": self.level,
            "order": self.order,
            "coeffs": [
                {"n": n, "c": [enc(v) for v in self.coeffs[n].coeffs]}
                for n in sorted(self.coeffs)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QExpansion":
        level = data["level"]
        coeffs = {}
        for entry in data["coeffs"]:
            vec = [Fraction(int(num) if isinstance(num, str) else num,
                            int(den) if isinstance(den, str) else den)
                   for num, den in entry["c"]]
            coeffs[entry["n"]] = CycNum(level, vec)
        return cls(level, data["order"], coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "QExpansion":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self):
        return f"QExpansion(level={self.level}, order={self.order}, terms={len(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return f"O(q^{{{self.order}/{self.level}}})"
        parts = []
        for n in sorted(self.coeffs):
            c = self.coeffs[n]
            if n == 0:
                parts.append(f"({c})")
            elif n % self.level == 0:
                e = n // self.level
                parts.append(f"({c})*q" + (f"^{e}" if e != 1 else ""))
            else:
                parts.append(f"({c})*q^({n}/{self.level})")
        return " + ".join(parts) + f" + O(q^{{{self.order}/{self.level}}})"


# ---------------------------------------------------------------------------
# Integer form and packed convolution.
# ---------------------------------------------------------------------------

def to_int_form(f: QExpansion, order: Union[int, None] = None) -> Tuple[int, IntCoeffs]:
    """(den, {n: integer vector}) with f's coefficients equal to vector/den."""
    T = f.order if order is None else order
    den = 1
    for n, c in f.coeffs.items():
        if n >= T:
            continue
        for v in c.coeffs:
            den = den * v.denominator // math.gcd(den, v.denominator)
    data: IntCoeffs = {}
    for n, c in f.coeffs.items():
        if n >= T:
            continue
        data[n] = tuple(int(v * den) for v in c.coeffs)
    return den, data


def from_int_form(level: int, order: int, den: int, data: IntCoeffs) -> QExpansion:
    coeffs = {
        n: CycNum(level, [Fraction(v, den) for v in vec])
        for n, vec in data.items()
        if any(vec)
    }
    return QExpansion(level, order, coeffs)


def convolve_int(level: int, order: int, A: IntCoeffs, B: IntCoeffs) -> IntCoeffs:
    """Exact 2-D convolution of integer series, cyclic in the zeta index.

    Keys >= order are dropped from inputs and output.
    """
    A = {n: v for n, v in A.items() if n < order and any(v)}
    B = {n: v for n, v in B.items() if n < order and any(v)}
    if not A or not B:
        return {}
    N = level
    maxa = max(abs(x) for v in A.values() for x in v)
    maxb = max(abs(x) for v in B.values() for x in v)
    # Product limb (n, j) sums at most order*N terms a*b, |a| <= maxa and
    # |b| <= maxb, and a signed limb of w bytes holds |v| < 2^(8w-1).  The
    # operands fit too; to_bytes(signed=True) raises OverflowError if not.
    bound = order * N * maxa * maxb
    width = bound.bit_length() // 8 + 1
    assert bound < 1 << (8 * width - 1), "limb width too small for exact sums"
    return _packed_conv(N, order, A, B, width)


def _bias(positions: int, width: int) -> int:
    """H = sum_i 2^(8*width-1) * 2^(8*width*i): the top bit of every limb."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * positions, "little")


def _pack(data: IntCoeffs, positions: int, width: int, stride: int) -> int:
    """sum of data[n][j] * 2^(8*width*(n*stride + j)), as one signed int."""
    buf = bytearray(positions * width)
    for n, vec in data.items():
        off = n * stride * width
        for v in vec:
            buf[off:off + width] = v.to_bytes(width, "little", signed=True)
            off += width
    H = _bias(positions, width)
    # flipping each limb's sign bit reads two's complement v as v + 2^(8w-1)
    return (int.from_bytes(buf, "little") ^ H) - H


def _packed_conv(N: int, order: int, A: IntCoeffs, B: IntCoeffs,
                 width: int) -> IntCoeffs:
    # the zeta part of a product of vectors of lengths la, lb spans
    # la + lb - 1 <= 2N - 1 limbs (2 phi - 1 for reduced operands): one block
    span = max(map(len, A.values())) + max(map(len, B.values())) - 1
    positions = order * span
    prod = _pack(A, positions, width, span) * _pack(B, positions, width, span)
    # each limb plus 2^(8w-1) lies in [0, 2^(8w)): no carry crosses a limb
    H = _bias(2 * positions, width)
    buf = ((prod + H) ^ H).to_bytes(2 * positions * width, "little")
    out: IntCoeffs = {}
    for n in range(order):
        vec = [0] * N
        off = n * span * width
        for j in range(span):
            v = int.from_bytes(buf[off:off + width], "little", signed=True)
            if v:
                vec[j - N if j >= N else j] += v
            off += width
        if any(vec):
            out[n] = tuple(vec)
    return out


def convolve_naive(level: int, order: int, A: IntCoeffs, B: IntCoeffs) -> IntCoeffs:
    """Schoolbook reference convolution; oracle for convolve_int in tests."""
    out: Dict[int, list] = {}
    for n1, v1 in A.items():
        if n1 >= order:
            continue
        for n2, v2 in B.items():
            n = n1 + n2
            if n2 >= order or n >= order:
                continue
            vec = out.setdefault(n, [0] * level)
            for i, a in enumerate(v1):
                if a:
                    for j, b in enumerate(v2):
                        if b:
                            k = i + j
                            if k >= level:
                                k -= level
                            vec[k] += a * b
    return {n: tuple(v) for n, v in out.items() if any(v)}


# ---------------------------------------------------------------------------
# Phi_N-reduced series packed as one signed int: the residual path.
# ---------------------------------------------------------------------------

def reduce_int_form(level: int, data: IntCoeffs) -> IntCoeffs:
    """Each vector reduced mod Phi_level: phi(level) coefficients in the
    canonical basis 1, zeta, ..., zeta^(phi-1); zero vectors are dropped."""
    out: IntCoeffs = {}
    for n, vec in data.items():
        red = tuple(reduce_mod_cyclotomic(level, vec))
        if any(red):
            out[n] = red
    return out


def _limb_width(bound: int) -> int:
    """Bytes per signed limb holding |v| <= bound: the smallest multiple of
    8 with bound < 2^(8w-1), so that series of similar height share widths."""
    return 8 * (bound.bit_length() // 64 + 1)


class PackedSeries(NamedTuple):
    """A Phi_N-reduced integer series packed into one signed big int.

    Limb n*phi + j (phi = totient(level), n < order) holds den times the
    coefficient of zeta^j q^{n/N} in the reduced basis; every limb has
    |v| <= height.  Reduced forms are canonical, so the series is zero in
    Q(zeta_N) iff every limb is zero.  A tuple, so a cached series cannot be
    changed; ``at(width)`` re-packs it at a wider limb.
    """

    level: int
    order: int
    den: int
    height: int
    width: int
    value: int

    @classmethod
    def pack(cls, level: int, order: int, den: int, data: IntCoeffs) -> "PackedSeries":
        """Pack reduced vectors (as from reduce_int_form) with keys < order."""
        phi = totient(level)
        height = max((abs(x) for vec in data.values() for x in vec), default=0)
        width = _limb_width(height)
        return cls(level, order, den, height, width,
                   _pack(data, order * phi, width, phi))

    def at(self, width: int) -> int:
        """The packed int at limb width >= self.width."""
        if width == self.width:
            return self.value
        assert width > self.width, "a packed series only widens"
        phi = totient(self.level)
        data = {n: vec[:phi] for n, vec in self.unpack()[1].items()}
        return _pack(data, self.order * phi, width, phi)

    def is_zero(self) -> bool:
        return self.value == 0

    def unpack(self) -> Tuple[int, IntCoeffs]:
        """(den, {n: length-level vector}): reduced basis, zero-padded."""
        phi, w = totient(self.level), self.width
        positions = self.order * phi
        H = _bias(positions, w)
        buf = ((self.value + H) ^ H).to_bytes(positions * w, "little")
        pad = (0,) * (self.level - phi)
        out: IntCoeffs = {}
        for n in range(self.order):
            base = n * phi * w
            vec = tuple(int.from_bytes(buf[off:off + w], "little", signed=True)
                        for off in range(base, base + phi * w, w))
            if any(vec):
                out[n] = vec + pad
        return self.den, out


def linear_combination(level: int, order: int,
                       terms: Sequence[Tuple[Scalar, PackedSeries]]) -> PackedSeries:
    """sum_i c_i * x_i over a common denominator, as one packed series.

    With D = lcm(den_i * denom(c_i)) and integer multipliers
    m_i = D / (den_i * denom(c_i)) * numer(c_i), limb l of the sum is
    s_l = sum_i m_i * v_{i,l}, so |s_l| <= B = sum_i |m_i| * height_i.  At a
    width w with B < 2^(8w-1) every s_l is a balanced base-2^(8w) digit and
    no carry crosses a limb: the packed sum is sum_l s_l 2^(8wl) exactly,
    and it is 0 iff every s_l is 0.
    """
    terms = [(c if isinstance(c, Fraction) else Fraction(c), x) for c, x in terms]
    D = math.lcm(*(x.den * c.denominator for c, x in terms))
    scaled = [(D // (x.den * c.denominator) * c.numerator, x) for c, x in terms if c]
    for _, x in scaled:
        assert (x.level, x.order) == (level, order), "terms differ in level or order"
    bound = sum(abs(m) * x.height for m, x in scaled)
    width = _limb_width(bound)  # >= every term's width: |m_i| >= 1
    assert bound < 1 << (8 * width - 1), "limb width too small for the residual"
    value = sum(m * x.at(width) for m, x in scaled)
    return PackedSeries(level, order, D, bound, width, value)


def int_form_is_zero(level: int, data: IntCoeffs) -> Union[int, None]:
    """First key whose vector is nonzero in Q(zeta_N), or None if all vanish."""
    for n in sorted(data):
        if any(reduce_mod_cyclotomic(level, data[n])):
            return n
    return None
