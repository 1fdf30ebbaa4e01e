"""Truncated series in q^{1/N} with coefficients in Q(zeta_N).

A QExpansion of level N and order T knows every coefficient of q^{n/N}
for 0 <= n < T (``coeffs`` omits the zero ones).  All exponents are nonnegative,
so products of two series of orders T1, T2 are fully correct up to
order min(T1, T2).

Every series here is held in one integer form: a common denominator den
and one row-major tuple or list of order*N integers, entry n*N + i being
den times the coefficient of zeta^i q^{n/N}, unreduced (modulo x^N - 1).
The builder returns it, QExpansion holds it, and PackedSeries.pack takes
and unpack returns it.  QExpansion's ring operations run on these
integers, and a product is the schoolbook convolve_naive, which shares no
code with the packed kernel below and so is its oracle.  The CycNum view
(``coeffs``) is built only for printing, JSON and tests.

The exact scan runs on PackedSeries: each series is reduced mod Phi_N,
which makes it canonical, and packed into one signed big integer,
two-dimensionally: the zeta exponent selects a limb within a block of
2*phi - 1 limbs, the q exponent selects the block, so that a product of
two packed series fits the same layout.  On the scan's path act_int_form
applies the group B to the builder's list by whole slices, and
PackedSeries.pack, the one way in, reads its columns as slices, reduces
them mod Phi_N and writes them as limbs.  A product (convolve_int) is one
big-integer multiply (Kronecker substitution), a truncation mask, column
masks and the rows x^c mod Phi_N applied to whole columns; a linear
combination is a few big-int multiply-adds, and it is zero in Q(zeta_N)
iff its value is 0.  Limbs are signed (two's complement bytes offset by a
per-limb bias), and each value sits at the least byte width its height
bound, measured or derived, needs, checked at run time.  A product's
bound covers its operands' and a residual's its terms', so a value only
widens, and it keeps each wider copy it makes for as long as it lives
(PackedSeries.at).  Two steps still touch limbs one at a time in Python:
pack writes each limb with one to_bytes call (one comprehension per
column), and unpack reads each limb back, which the scan does only for a
failed instance.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import neg
from types import MappingProxyType
from typing import Iterator, List, Mapping, Sequence, Tuple, Union

from .cyclotomic import (CycNum, LevelMismatchError, Record, Scalar, reduce_columns,
                         reduce_mod_cyclotomic, reduction_norm, totient)


def check_tau(tau: complex) -> None:
    # a NaN imaginary part passes `<= 0`, and an infinite tau gives NaN sums
    if not cmath.isfinite(tau) or tau.imag <= 0:
        raise ValueError("tau must be a finite point of the upper half-plane")


class QExpansion(Record, namedtuple("QExpansion", "level order den data")):
    """Truncated series sum_n c_n q^{n/N}, c_n in Q(zeta_N), held as
    c_n = data[n*N:(n+1)*N] / den for one row-major tuple data: a Record,
    so ``==`` compares that integer form, which implies field equality but
    is not implied by it (``field_equals`` is the field test).  It is built
    from CycNum coefficients, or by from_int_form, as _make and pickle do."""

    __slots__ = ()

    def __new__(cls, level: int, order: int, coeffs: Mapping[int, CycNum]):
        # the one place where Fractions become integers
        if any(c.level != level for c in coeffs.values()):
            raise LevelMismatchError("coefficient level differs from series level")
        den = math.lcm(*(v.denominator for c in coeffs.values() for v in c.coeffs))
        data = [0] * (order * level)
        for n, c in coeffs.items():
            if not 0 <= n < order:
                raise ValueError(f"exponent numerator {n} outside [0, {order})")
            data[n * level:(n + 1) * level] = [v.numerator * (den // v.denominator)
                                               for v in c.coeffs]
        return from_int_form(level, order, den, data)

    @classmethod
    def _make(cls, fields):
        return from_int_form(*fields)

    @property
    def coeffs(self) -> Mapping[int, CycNum]:
        """{n: c_n} for the nonzero rows, as CycNums, built on each access."""
        den = self.den
        return MappingProxyType({n: CycNum(self.level, [Fraction(v, den) for v in vec])
                                 for n, vec in _rows(self.level, self.data)})

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, level: int, order: int) -> "QExpansion":
        return from_int_form(level, order, 1, [0] * (order * level))

    @classmethod
    def constant(cls, level: int, order: int, value: Scalar) -> "QExpansion":
        _check_scalar(value, "constant takes an int or a Fraction")
        return from_int_form(level, order, value.denominator,
                             [value.numerator] + [0] * (order * level - 1))

    def _check(self, other: "QExpansion") -> None:
        if self.level != other.level:
            raise LevelMismatchError(f"levels differ: {self.level} vs {other.level}")

    # -- ring operations -----------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign*other over the lcm of the denominators."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        self._check(other)
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        # zip stops at the shorter tuple: min(order) * N entries
        return from_int_form(self.level, min(self.order, other.order), den,
                             [ma * x + mb * y for x, y in zip(self.data, other.data)])

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return from_int_form(self.level, self.order, self.den, [-x for x in self.data])

    def __mul__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        self._check(other)
        T = min(self.order, other.order)
        return from_int_form(self.level, T, self.den * other.den,
                             convolve_naive(self.level, T, self.data, other.data))

    def scale(self, c: Union[Scalar, CycNum]) -> "QExpansion":
        if isinstance(c, CycNum):
            return self * QExpansion(self.level, self.order, {0: c})
        _check_scalar(c, "scale takes an int, a Fraction or a CycNum")
        num = c.numerator
        return from_int_form(self.level, self.order, self.den * c.denominator,
                             [num * x for x in self.data])

    def rescale_exponents(self, M: int) -> "QExpansion":
        """Substitute tau -> M*tau, i.e. q^{n/N} -> q^{nM/N}."""
        if M < 1:
            raise ValueError("M must be >= 1")
        N = self.level
        out = [0] * (self.order * M * N)
        for n, vec in _rows(N, self.data):
            out[n * M * N:(n * M + 1) * N] = vec
        return from_int_form(N, self.order * M, self.den, out)

    def twist(self, j: int) -> "QExpansion":
        """Substitute tau -> tau + j: coefficient at q^{n/N} picks up zeta_N^{nj},
        the action of (1, j, 1) of the group B (see act_int_form), written
        apart from it: each row rotates by n j places."""
        N, out = self.level, list(self.data)
        for n, vec in _rows(N, self.data):
            r = n * j % N
            if r:
                out[n * N:(n + 1) * N] = vec[-r:] + vec[:-r]
        return from_int_form(N, self.order, self.den, out)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        """True iff every coefficient is zero in the field Q(zeta_N)."""
        return int_form_is_zero(self.level, self.data) is None

    def field_equals(self, other: "QExpansion") -> bool:
        return (self - other).is_zero()

    def first_nonzero_exponent(self) -> Union[int, None]:
        """Smallest n with a field-nonzero coefficient, or None."""
        return int_form_is_zero(self.level, self.data)

    # -- evaluation and serialization ----------------------------------------

    def eval_numeric(self, tau: complex) -> complex:
        check_tau(tau)
        N, den = self.level, self.den
        z = cmath.exp(2j * cmath.pi / N)
        acc = 0j
        for n, vec in _rows(N, self.data):
            # c_n at zeta_N, summed as CycNum.embed sums it: int true division
            # is correctly rounded, as float(Fraction(v, den)) is
            c, pw = 0j, 1 + 0j
            for v in vec:
                if v:
                    c += v / den * pw
                pw *= z
            acc += c * cmath.exp(2j * math.pi * tau * n / N)
        return acc

    def to_json_dict(self) -> dict:
        def enc(v: Fraction):
            num, den = v.numerator, v.denominator
            return [num if -2**63 <= num < 2**63 else str(num),
                    den if den < 2**63 else str(den)]

        coeffs = self.coeffs
        return {
            "level": self.level,
            "order": self.order,
            "coeffs": [
                {"n": n, "c": [enc(v) for v in coeffs[n].coeffs]}
                for n in sorted(coeffs)
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
        terms = sum(1 for _ in _rows(self.level, self.data))
        return f"QExpansion(level={self.level}, order={self.order}, terms={terms})"

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return f"O(q^{{{self.order}/{self.level}}})"
        parts = []
        for n in sorted(coeffs):
            c = coeffs[n]
            if n == 0:
                parts.append(f"({c})")
            elif n % self.level == 0:
                e = n // self.level
                parts.append(f"({c})*q" + (f"^{e}" if e != 1 else ""))
            else:
                parts.append(f"({c})*q^({n}/{self.level})")
        return " + ".join(parts) + f" + O(q^{{{self.order}/{self.level}}})"


def _check_scalar(c, accepted: str) -> None:
    # a float has no .numerator: fail with the accepted types, not an AttributeError
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"{accepted}, not {type(c).__name__}")


# ---------------------------------------------------------------------------
# Integer form and the schoolbook product.
# ---------------------------------------------------------------------------

def _rows(level: int, data: Sequence[int]) -> Iterator[Tuple[int, Sequence[int]]]:
    """(n, data[n*N:(n+1)*N]) for each row of a row-major list that is not
    all zero, in increasing n."""
    for n, i in enumerate(range(0, len(data), level)):
        row = data[i:i + level]
        if any(row):
            yield n, row


def to_int_form(f: QExpansion) -> Tuple[int, Tuple[int, ...]]:
    """(den, data): f's denominator and its row-major integer tuple, as
    from_int_form takes them."""
    return f.den, f.data


def from_int_form(level: int, order: int, den: int, data: Sequence[int]) -> QExpansion:
    """The series with coefficient data[n*N + i] / den at zeta^i q^{n/N},
    for a row-major list of order*level integers (else ValueError); builds
    no Fraction.  The one checked integer constructor of QExpansion."""
    if level < 1 or order < 1 or den < 1:
        raise ValueError("level, order and denominator must be positive")
    _check_length(level, order, data)
    # a tuple, read-only: caches share expansions
    return tuple.__new__(QExpansion, (level, order, den, tuple(data)))


def _check_length(level: int, order: int, data: Sequence[int]) -> None:
    if len(data) != order * level:
        raise ValueError(f"expected order * level = {order * level} entries, got {len(data)}")


def act_int_form(level: int, g: Tuple[int, int, int], k: int,
                 flat: Sequence[int]) -> List[int]:
    """g = (s, j, t) of the group B (see relations) applied to the weight-k
    series held as the builder's flat list, flat[n*N + i] the coefficient
    of zeta^i q^{n/N} modulo x^N - 1: s^k tau_j sigma_t, which sends
    zeta^i q^{n/N} to s^k zeta^{t i + n j} q^{n/N}.  n j mod N has period
    P = N / gcd(j, N) in n, so entry (n, i) moves to (n, t i + rho j mod N)
    for rho = n mod P, and the rows n = rho mod P move together: P*N
    extended-slice copies of stride P*N (N^2 at most), and one negation
    when s^k = -1.  A signed permutation of each row."""
    s, j, t = g
    N = level
    if len(flat) % N:
        raise ValueError(f"act_int_form takes whole rows of {N} entries")
    out = [0] * len(flat)
    P = N // math.gcd(j, N)
    step = P * N
    for rho in range(P):
        row = rho * N
        for i in range(N):
            out[row + (t * i + rho * j) % N::step] = flat[row + i::step]
    return list(map(neg, out)) if s < 0 and k % 2 else out


def convolve_naive(level: int, order: int, A: Sequence[int],
                   B: Sequence[int]) -> List[int]:
    """Schoolbook 2-D convolution of two row-major lists, cyclic in the zeta
    index (zeta^N = 1, not reduced mod Phi_N), truncated at q^order to
    order*level entries: QExpansion's product, and the oracle for
    convolve_int in tests."""
    end = order * level
    out = [0] * end
    B_rows = list(_rows(level, B[:end]))
    for n1, v1 in _rows(level, A[:end]):
        for n2, v2 in B_rows:
            base = (n1 + n2) * level
            if base >= end:
                break
            for i, a in enumerate(v1):
                if a:
                    for j, b in enumerate(v2):
                        if b:
                            k = i + j
                            if k >= level:
                                k -= level
                            out[base + k] += a * b
    return out


# ---------------------------------------------------------------------------
# Phi_N-reduced series packed as one signed int: the residual path.
# ---------------------------------------------------------------------------

def _byte_width(bound: int) -> int:
    """Bytes per signed limb holding |v| <= bound: the smallest w with
    bound < 2^(8w-1), the one limb width of every packed value."""
    return bound.bit_length() // 8 + 1


def _check_width(bound: int, width: int, what: str) -> None:
    # an explicit raise, not an assert: python -O must not drop exactness;
    # a width below one byte holds no signed limb
    if width < 1 or bound >= 1 << (8 * width - 1):
        raise ArithmeticError(f"limb width {width} too small for the {what}")


def _stride(level: int) -> int:
    """Limbs per q exponent in a PackedSeries: 2 phi - 1, the zeta span of
    a product of two reduced vectors."""
    return 2 * totient(level) - 1


def _bias(positions: int, width: int, spacing: int = 0) -> int:
    """H = sum_i 2^(8*width-1) * 2^(8*spacing*i), spacing defaulting to the
    width: the top bit of every width-byte limb, limbs spacing bytes apart."""
    pad = bytes((spacing or width) - width)
    return int.from_bytes((bytes(width - 1) + b"\x80" + pad) * positions, "little")


def _pack(cols: Sequence[Sequence[int]], positions: int, width: int,
          stride: int) -> int:
    """sum of cols[j][n] * 2^(8*width*(n*stride + j)) as one signed int: each
    column of positions / stride limbs written by one to_bytes pass into
    every stride-th place of the layout, and the layout joined once."""
    zero = bytes(width)
    limbs = [zero] * positions
    for j, col in enumerate(cols):
        limbs[j::stride] = [v.to_bytes(width, "little", signed=True)
                            for v in col]
    H = _bias(positions, width)
    # flipping each limb's sign bit reads two's complement v as v + 2^(8w-1)
    return (int.from_bytes(b"".join(limbs), "little") ^ H) - H


# a level's nonzero products use a few widths (6 in criterion 1) at one order, its
# proof order or the run's, and at both only once a proof fails: 8 order-sized entries
@lru_cache(maxsize=8)
def _product_masks(order: int, stride: int, width: int) -> Tuple[int, int, int, int]:
    """(bias, truncation mask, column mask, column bias) of the product
    kernel: the bias sets the top bit of each of the order*stride limbs,
    the truncation mask keeps those limbs, and the column mask and bias
    are the all-ones limb and the top bit at the first limb of each block."""
    positions = order * stride
    column = int.from_bytes((b"\xff" * width + bytes(width * (stride - 1))) * order,
                            "little")
    return (_bias(positions, width), (1 << 8 * width * positions) - 1, column,
            _bias(order, width, width * stride))


class PackedSeries(Record, namedtuple("PackedSeries", "level order den height value")):
    """A Phi_N-reduced integer series packed into one signed big int.

    Limb n*s + j (s = 2*phi - 1, phi = totient(level), n < order) holds den
    times the coefficient of zeta^j q^{n/N} in the reduced basis for j < phi;
    columns j >= phi are zero, so that a product of two packed series fits
    in the same layout.  Every limb has |v| <= height: measured for a packed
    series, a derived bound for a product or a linear combination.  Reduced
    forms are canonical, so the series is zero in Q(zeta_N) iff every limb
    is zero.  Limbs are width = _byte_width(height) bytes, the least that
    hold the height.  A Record of those five fields, so a series cannot be
    changed; ``at(width)`` gives the value at any wider limb width.
    """

    @property
    def width(self) -> int:
        return _byte_width(self.height)

    @classmethod
    def pack(cls, level: int, order: int, den: int, flat: Sequence[int]) -> "PackedSeries":
        """The one way into a PackedSeries: the builder's flat list, with
        flat[n*N + i] den times the coefficient of zeta^i q^{n/N} (n < order)
        modulo x^N - 1, read as columns flat[i::N], reduced mod Phi_N by
        reduce_columns, its height measured and its limbs written."""
        _check_length(level, order, flat)
        cols = reduce_columns(level, [flat[i::level] for i in range(level)])
        height = max(map(abs, chain.from_iterable(cols)), default=0)
        width = _byte_width(height)
        _check_width(height, width, "packed series")
        s = _stride(level)
        return cls(level, order, den, height, _pack(cols, order * s, width, s))

    def at(self, width: int) -> int:
        """The packed int at limb width `width`, which must hold the height,
        so width >= self.width: a value only widens.

        The value plus the bias is every limb v + 2^(8w-1) as w unsigned
        bytes; byte b < w of limb l moves to byte b of the wider limb l, and
        subtracting the same bias spaced width bytes apart (the width-byte
        bias shifted down by 8(width - w) bits) gives v back.  Byte-lane
        slices do the copy at C speed, with no per-limb Python loop.  A
        series enters many products or residuals at one width, so each
        width is converted once and kept in the instance dict, keyed by the
        int width: no field, comparison, hash or attribute name reaches it.
        """
        memo = self.__dict__
        if width in memo:
            return memo[width]
        _check_width(self.height, width, "packed series")
        w = self.width
        if width == w:
            return self.value
        positions = self.order * _stride(self.level)
        raw = (self.value + _bias(positions, w)).to_bytes(positions * w, "little")
        out = bytearray(positions * width)
        for b in range(w):
            out[b::width] = raw[b::w]
        spaced = _bias(positions, width) >> 8 * (width - w)
        memo[width] = int.from_bytes(out, "little") - spaced
        return memo[width]

    def is_zero(self) -> bool:
        return self.value == 0

    def unpack(self) -> Tuple[int, Tuple[int, ...]]:
        """(den, data): the row-major tuple that pack takes, each row in the
        reduced basis and zero-padded to level entries, read by columns."""
        N, phi, s, w = self.level, totient(self.level), _stride(self.level), self.width
        positions = self.order * s
        H = _bias(positions, w)
        buf = ((self.value + H) ^ H).to_bytes(positions * w, "little")
        out = [0] * (self.order * N)
        for j in range(phi):
            out[j::N] = [int.from_bytes(buf[off:off + w], "little", signed=True)
                         for off in range(j * w, positions * w, s * w)]
        return self.den, tuple(out)

    def items(self):
        """unpack()'s nonzero (n, row) pairs, so that code reading a series
        by rows (bench/tracing.py counts convolve_int's operand bits) reads
        a packed series too."""
        return _rows(self.level, self.unpack()[1])


def convolve_int(N: int, T: int, f: PackedSeries, g: PackedSeries) -> PackedSeries:
    """The product of packed series f and g (level N, order T) reduced mod
    Phi_N, in the PackedSeries layout: the scan's product kernel.

    One multiply of the operands at a common width Wm does the whole 2-D
    convolution: operand limbs (n1, i1) and (n2, i2), i1, i2 < phi, land
    at limb (n1 + n2)*s + i1 + i2 and i1 + i2 < s, so no two (n, c) share
    a limb.  Adding the bias and masking to order*s limbs keeps exponents
    n < order exactly.  Column c is then shifted down, masked to the first
    limb of every block and unbiased; columns c >= N fold onto c - N
    (zeta^N = 1), and reduce_mod_cyclotomic adds the rest into the first
    phi columns with the rows x^c mod Phi_N, phi <= c < N, as it reduces
    any vector.  Every step acts on whole big ints, and each operand is
    widened to Wm once for all its products (PackedSeries.at).  The product
    is stored at Wm, its own byte width.
    """
    if not all(isinstance(z, PackedSeries) and (z.level, z.order) == (N, T)
               for z in (f, g)):
        raise ValueError(f"operands must be packed series of level {N}, order {T}")
    phi, s = totient(N), _stride(N)
    # Limb (n, c) of the unreduced product sums the pairs n1 + n2 = n
    # (at most T of them) and i1 + i2 = c (at most phi), so it is at most
    # h0 = T*phi*hf*hg; folding c onto c - N keeps that, since for each
    # i1 one i2 < N has i1 + i2 = c mod N.  Reducing a length-N vector with
    # entries <= h0 mod Phi_N gives entries <= h0*reduction_norm(N) = h.
    # Each limb, raw or reduced, is then a balanced base-2^(8Wm) digit
    # when h < 2^(8Wm-1): no carry crosses a limb.  The multiply runs at the
    # byte width Wm that h needs, the product's own width; a nonzero h is
    # >= each operand height, so each operand only widens to Wm.
    h = T * phi * f.height * g.height * reduction_norm(N)
    Wm = _byte_width(h)
    _check_width(h, Wm, "product")
    den = f.den * g.den
    if not h:  # an operand is zero
        return PackedSeries(N, T, den, 0, 0)
    bias, trunc, column, column_bias = _product_masks(T, s, Wm)
    bits = 8 * Wm
    t = (f.at(Wm) * g.at(Wm) + bias) & trunc
    cols = [((t >> bits * c) & column) - column_bias for c in range(s)]
    for c in range(N, s):
        cols[c - N] += cols[c]
    out = reduce_mod_cyclotomic(N, cols[:N])
    return PackedSeries(N, T, den, h, sum(out[j] << bits * j for j in range(phi)))


def linear_combination(level: int, order: int,
                       terms: Sequence[Tuple[Scalar, PackedSeries]]) -> PackedSeries:
    """sum_i c_i * x_i over a common denominator, as one packed series.

    With D = lcm(den_i * denom(c_i)) and integer multipliers
    m_i = D / (den_i * denom(c_i)) * numer(c_i), limb l of the sum is
    s_l = sum_i m_i * v_{i,l}, so |s_l| <= B = sum_i |m_i| * height_i.  At a
    width w with B < 2^(8w-1) every s_l is a balanced base-2^(8w) digit and
    no carry crosses a limb: the packed sum is sum_l s_l 2^(8wl) exactly,
    and it is 0 iff every s_l is 0.  The least such w holds every term
    (B >= height_i, as |m_i| >= 1): each term only widens to it
    (PackedSeries.at).
    """
    # int and Fraction both have numerator and denominator: no Fraction is built
    D = math.lcm(*[x.den * c.denominator for c, x in terms])
    scaled, bound = [], 0
    for c, x in terms:
        if c:
            if x.level != level or x.order != order:
                raise ValueError("terms differ in level or order")
            m = D // (x.den * c.denominator) * c.numerator
            scaled.append((m, x))
            bound += abs(m) * x.height
    width = _byte_width(bound)
    _check_width(bound, width, "residual")
    return PackedSeries(level, order, D, bound, sum(m * x.at(width) for m, x in scaled))


def int_form_is_zero(level: int, data: Sequence[int]) -> Union[int, None]:
    """First n whose row of the row-major list data is nonzero in
    Q(zeta_N), or None if all vanish."""
    for n, vec in _rows(level, data):
        if any(reduce_mod_cyclotomic(level, vec)):
            return n
    return None
