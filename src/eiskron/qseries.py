"""Truncated series in q^{1/N} with coefficients in Q(zeta_N).

A QExpansion of level N and order T knows every coefficient of q^{n/N}
for 0 <= n < T (absent keys are zero).  All exponents are nonnegative,
so products of two series of orders T1, T2 are fully correct up to
order min(T1, T2).

A QExpansion holds its integer form: one common denominator and, per
exponent, a length-N integer vector of coefficients of 1, zeta, ...,
zeta^(N-1), unreduced (modulo x^N - 1).  Its ring operations run on these
integers, and a product is the schoolbook convolve_naive, which shares no
code with the packed kernel below and so is its oracle.  The CycNum view
(``coeffs``) is built only for printing, JSON and tests.

The exact scan runs on PackedSeries: each series is reduced mod Phi_N,
which makes it canonical, and packed into one signed big integer,
two-dimensionally: the zeta exponent selects a limb within a block of
2*phi - 1 limbs, the q exponent selects the block, so that a product of
two packed series fits the same layout.  PackedSeries.pack is the one way
in: it transposes the builder's unreduced vectors once into columns,
reduces the columns mod Phi_N and writes them as limbs.  A
product (convolve_int) is one big-integer multiply (Kronecker
substitution), a truncation mask, column masks and the rows x^c mod Phi_N
applied to whole columns; a linear combination is a few big-int
multiply-adds, and it is zero in Q(zeta_N) iff its value is 0.  Limbs are
signed (two's complement bytes offset by a per-limb bias), and every limb
width comes from a derived height bound that is checked at run time:
series, products and residuals are stored at a multiple of 8 bytes, and
a product's one multiply runs at the byte width its bound needs.  Two
steps still touch limbs one at a time in Python: pack writes each limb
with one to_bytes call (one comprehension per column), and unpack reads
each limb back, which the scan does only for a failed instance.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat, zip_longest
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Mapping, NamedTuple, Sequence, Tuple, Union

from .cyclotomic import (CycNum, LevelMismatchError, Scalar, reduce_columns,
                         reduce_mod_cyclotomic, reduction_norm, totient)

# integer form of a series: common denominator + integer coefficient vectors
IntCoeffs = Dict[int, Tuple[int, ...]]


def check_tau(tau: complex) -> None:
    # a NaN imaginary part passes `<= 0`, and an infinite tau gives NaN sums
    if not cmath.isfinite(tau) or tau.imag <= 0:
        raise ValueError("tau must be a finite point of the upper half-plane")


class QExpansion:
    """Sparse truncated series sum_n c_n q^{n/N}, c_n in Q(zeta_N), held as
    c_n = data[n] / den with length-N integer vectors data[n]."""

    __slots__ = ("level", "order", "den", "data")

    def __init__(self, level: int, order: int, coeffs: Mapping[int, CycNum]):
        # the one place where Fractions become integers
        for c in coeffs.values():
            if c.level != level:
                raise LevelMismatchError("coefficient level differs from series level")
        den = math.lcm(*(v.denominator for c in coeffs.values() for v in c.coeffs))
        self._set(level, order, den, {
            n: tuple(v.numerator * (den // v.denominator) for v in c.coeffs)
            for n, c in coeffs.items()})

    def _set(self, level: int, order: int, den: int, data: Mapping) -> None:
        if level < 1 or order < 1 or den < 1:
            raise ValueError("level, order and denominator must be positive")
        clean: IntCoeffs = {}
        for n, vec in data.items():
            if not 0 <= n < order:
                raise ValueError(f"exponent numerator {n} outside [0, {order})")
            if len(vec) != level:
                raise ValueError(f"expected vectors of {level} entries, got {len(vec)}")
            if any(vec):
                clean[n] = tuple(vec)
        # read-only, attributes and data alike: caches share expansions
        for name, value in (("level", level), ("order", order), ("den", den),
                            ("data", MappingProxyType(clean))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"QExpansion is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QExpansion is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return from_int_form, (self.level, self.order, self.den, dict(self.data))

    @property
    def coeffs(self) -> Mapping[int, CycNum]:
        """{n: c_n} as CycNums, built on each access."""
        den = self.den
        return MappingProxyType({n: CycNum(self.level, [Fraction(v, den) for v in vec])
                                 for n, vec in self.data.items()})

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, level: int, order: int) -> "QExpansion":
        return from_int_form(level, order, 1, {})

    @classmethod
    def constant(cls, level: int, order: int, value: Scalar) -> "QExpansion":
        _check_scalar(value, "constant takes an int or a Fraction")
        return from_int_form(level, order, value.denominator,
                             {0: (value.numerator,) + (0,) * (level - 1)})

    def _check(self, other: "QExpansion") -> None:
        if self.level != other.level:
            raise LevelMismatchError(f"levels differ: {self.level} vs {other.level}")

    # -- ring operations -----------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign*other over the lcm of the denominators."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        self._check(other)
        T = min(self.order, other.order)
        den = math.lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        out = {n: tuple(ma * x for x in v) for n, v in self.data.items() if n < T}
        for n, v in other.data.items():
            if n < T:
                w = out.get(n)
                out[n] = (tuple(mb * y for y in v) if w is None
                          else tuple(x + mb * y for x, y in zip(w, v)))
        return from_int_form(self.level, T, den, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return from_int_form(self.level, self.order, self.den,
                             {n: tuple(-x for x in v) for n, v in self.data.items()})

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
                             {n: tuple(num * x for x in v) for n, v in self.data.items()})

    def rescale_exponents(self, M: int) -> "QExpansion":
        """Substitute tau -> M*tau, i.e. q^{n/N} -> q^{nM/N}."""
        if M < 1:
            raise ValueError("M must be >= 1")
        return from_int_form(self.level, self.order * M, self.den,
                             {n * M: v for n, v in self.data.items()})

    def twist(self, j: int) -> "QExpansion":
        """Substitute tau -> tau + j: coefficient at q^{n/N} picks up zeta_N^{nj},
        the action of (1, j, 1) (see act_int_form)."""
        return from_int_form(self.level, self.order, self.den,
                             act_int_form(self.level, (1, j, 1), 0, self.data))

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
        for n, vec in self.data.items():
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
        return f"QExpansion(level={self.level}, order={self.order}, terms={len(self.data)})"

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

def to_int_form(f: QExpansion, order: Union[int, None] = None) -> Tuple[int, IntCoeffs]:
    """(den, {n: integer vector}) with f's coefficients equal to vector/den,
    keys below order (default f.order)."""
    T = f.order if order is None else order
    return f.den, {n: v for n, v in f.data.items() if n < T}


def from_int_form(level: int, order: int, den: int, data: IntCoeffs) -> QExpansion:
    """The series with coefficients data[n] / den, for length-level integer
    vectors data[n] (all-zero vectors are dropped); builds no Fraction."""
    f = QExpansion.__new__(QExpansion)
    f._set(level, order, den, data)
    return f


def act_int_form(level: int, g: Tuple[int, int, int], k: int,
                 data: IntCoeffs) -> IntCoeffs:
    """g = (s, j, t) of the group B (see relations) applied to the weight-k
    series with length-level vectors data[n], modulo x^N - 1: s^k tau_j
    sigma_t, which sends zeta^i q^{n/N} to s^k zeta^{t i + n j} q^{n/N}, so
    entry m of the image at q^{n/N} is s^k data[n][t^-1 (m - n j)].  A
    signed permutation of each vector, so no vector becomes zero."""
    s, j, t = g
    N = level
    sigma = None
    if (t - 1) % N:
        # sigma_t: entry m is entry t^-1 m, one permutation for every
        # vector; a unit t != 1 needs N >= 3, so the getter gives a tuple
        t_inv = pow(t, -1, N)
        sigma = itemgetter(*[t_inv * m % N for m in range(N)])
    negate = s < 0 and k % 2
    out = {}
    for n, v in data.items():
        if sigma:
            v = sigma(v)
        r = n * j % N
        if r:  # tau_j: the vector at q^{n/N} rotates by n j places
            v = v[-r:] + v[:-r]
        out[n] = tuple([-x for x in v]) if negate else v
    return out


def convolve_naive(level: int, order: int, A: IntCoeffs, B: IntCoeffs) -> IntCoeffs:
    """Schoolbook 2-D convolution, cyclic in the zeta index (zeta^N = 1, not
    reduced mod Phi_N), truncated at q^order: QExpansion's product, and the
    oracle for convolve_int in tests."""
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
    return {n: tuple(v) for n, v in sorted(out.items()) if any(v)}


# ---------------------------------------------------------------------------
# Phi_N-reduced series packed as one signed int: the residual path.
# ---------------------------------------------------------------------------

def _byte_width(bound: int) -> int:
    """Bytes per signed limb holding |v| <= bound: the smallest w with
    bound < 2^(8w-1).  The product kernel multiplies at this width."""
    return bound.bit_length() // 8 + 1


def _limb_width(bound: int) -> int:
    """The storage width for |v| <= bound: the smallest multiple of 8 bytes
    with bound < 2^(8w-1), so that series, products and residuals of
    similar height share widths and a linear combination seldom widens."""
    return 8 * (bound.bit_length() // 64 + 1)


def _check_width(bound: int, width: int, what: str) -> None:
    # an explicit raise, not an assert: python -O must not drop exactness;
    # a width below one byte holds no signed limb
    if width < 1 or bound >= 1 << (8 * width - 1):
        raise ArithmeticError(f"limb width {width} too small for the {what}")


def _stride(level: int) -> int:
    """Limbs per q exponent in a PackedSeries: 2 phi - 1, the zeta span of
    a product of two reduced vectors."""
    return 2 * totient(level) - 1


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=256)
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


class PackedSeries(NamedTuple):
    """A Phi_N-reduced integer series packed into one signed big int.

    Limb n*s + j (s = 2*phi - 1, phi = totient(level), n < order) holds den
    times the coefficient of zeta^j q^{n/N} in the reduced basis for j < phi;
    columns j >= phi are zero, so that a product of two packed series fits
    in the same layout.  Every limb has |v| <= height: measured for a packed
    series, a derived bound for a product or a linear combination.  Reduced
    forms are canonical, so the series is zero in Q(zeta_N) iff every limb
    is zero.  A tuple, so a cached series cannot be changed; ``at(width)``
    gives the value at any limb width that holds the height, wider or
    narrower.
    """

    level: int
    order: int
    den: int
    height: int
    width: int
    value: int

    @classmethod
    def pack(cls, level: int, order: int, den: int, data: IntCoeffs) -> "PackedSeries":
        """The series data[n] / den reduced mod Phi_N and packed, for vectors
        modulo x^N - 1 (length <= level, as the builder gives them) at keys
        0 <= n < order: the one way into a PackedSeries.  One transpose into
        dense columns over n < order, reduce_columns, then the height is
        measured on the reduced limbs and the limbs are written."""
        if data and (max(map(len, data.values())) > level or min(data) < 0
                     or max(data) >= order):
            raise ValueError(f"pack takes vectors of at most {level} entries "
                             f"at keys 0 <= n < {order}")
        rows = map(data.get, range(order), repeat(()))
        cols = reduce_columns(level, list(zip_longest(*rows, fillvalue=0))
                              or [(0,) * order])
        height = max(map(abs, chain.from_iterable(cols)), default=0)
        width = _limb_width(height)
        s = _stride(level)
        return cls(level, order, den, height, width, _pack(cols, order * s, width, s))

    def at(self, width: int) -> int:
        """The packed int at limb width `width`, which must hold the height.

        The value plus the bias is every limb v + 2^(8w-1) as w unsigned
        bytes; byte b < min(w, width) of limb l moves to byte b of the new
        limb l.  Widening subtracts a bias spaced at the new width again.
        Narrowing keeps the low bytes, v mod 2^(8*width) since
        8w - 1 >= 8*width: the two's complement limb that pack writes and
        unpack reads.  Byte-lane slices do the copy at C speed, with no
        per-limb Python loop.
        """
        w = self.width
        if width == w:
            return self.value
        _check_width(self.height, width, "packed series")
        positions = self.order * _stride(self.level)
        raw = (self.value + _bias(positions, w)).to_bytes(positions * w, "little")
        out = bytearray(positions * width)
        for b in range(min(w, width)):
            out[b::width] = raw[b::w]
        if width > w:
            return int.from_bytes(out, "little") - _bias(positions, w, width)
        H = _bias(positions, width)
        return (int.from_bytes(out, "little") ^ H) - H

    def _no_arithmetic(self, other):
        return NotImplemented

    # a tuple would repeat or concatenate; products go through convolve_int
    __add__ = __radd__ = __mul__ = __rmul__ = _no_arithmetic

    def is_zero(self) -> bool:
        return self.value == 0

    def unpack(self) -> Tuple[int, IntCoeffs]:
        """(den, {n: length-level vector}): reduced basis, zero-padded."""
        phi, s, w = totient(self.level), _stride(self.level), self.width
        positions = self.order * s
        H = _bias(positions, w)
        buf = ((self.value + H) ^ H).to_bytes(positions * w, "little")
        pad = (0,) * (self.level - phi)
        out: IntCoeffs = {}
        for n in range(self.order):
            base = n * s * w
            vec = tuple(int.from_bytes(buf[off:off + w], "little", signed=True)
                        for off in range(base, base + phi * w, w))
            if any(vec):
                out[n] = vec + pad
        return self.den, out

    def items(self):
        """unpack()'s (n, vector) pairs, so that code reading an IntCoeffs
        operand (bench/tracing.py counts convolve_int's operand bits) reads a
        packed series too."""
        return self.unpack()[1].items()


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
    any vector.  Every step acts on whole big ints, and the finished
    product is widened once to its storage width.
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
    # byte width Wm that h needs; h >= each operand height, so Wm holds the
    # operands too.  The product is stored at W, a multiple of 8 bytes.
    h = T * phi * f.height * g.height * reduction_norm(N)
    Wm, W = _byte_width(h), _limb_width(h)
    _check_width(h, Wm, "product")
    _check_width(h, W, "product")
    den = f.den * g.den
    if not h:  # an operand is zero
        return PackedSeries(N, T, den, 0, W, 0)
    bias, trunc, column, column_bias = _product_masks(T, s, Wm)
    bits = 8 * Wm
    t = (f.at(Wm) * g.at(Wm) + bias) & trunc
    cols = [((t >> bits * c) & column) - column_bias for c in range(s)]
    for c in range(N, s):
        cols[c - N] += cols[c]
    out = reduce_mod_cyclotomic(N, cols[:N])
    value = out[0]
    for j in range(1, phi):
        value += out[j] << bits * j
    product = PackedSeries(N, T, den, h, Wm, value)
    return product._replace(width=W, value=product.at(W))


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
    width = _limb_width(bound)  # >= every term's width: |m_i| >= 1
    _check_width(bound, width, "residual")
    value = 0
    for m, x in scaled:
        value += m * (x.value if x.width == width else x.at(width))
    return PackedSeries(level, order, D, bound, width, value)


def int_form_is_zero(level: int, data: IntCoeffs) -> Union[int, None]:
    """First key whose vector is nonzero in Q(zeta_N), or None if all vanish."""
    for n in sorted(data):
        if any(reduce_mod_cyclotomic(level, data[n])):
            return n
    return None
