"""Exact q-expansions of the level-N Eisenstein series of weight k.

The expansion of the series attached to a torsion parameter (a1, a2)
mod N has constant term B_k(a1/N)/k, save at weight 1 with a1 = 0, where
it is -(1/2)(1 + w)/(1 - w) for w = zeta_N^{a2} (0 at a2 = 0), and, for
each pair (mu, nu) with mu >= 1, nu in +-a1/N + Z, nu > 0, a term

    -+ zeta_N^{+-mu*a2} * nu^{k-1} * q^{mu*nu},

the mirrored branch carrying an extra sign (-1)^{k+1}.  All exponents
are multiples of 1/N, all coefficients live in Q(zeta_N).  The builder
gives one flat integer list: the scan checks and packs it, QExpansion holds it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import List, Tuple

from .cyclotomic import CycNum, Rat
from .qseries import QExpansion, from_int_form


class InvalidIndexError(ValueError):
    """Weight-2 series with zero parameter: modular but not holomorphic."""


class EisensteinIndex:
    """Identifies one series: weight k, level N, parameter (a1, a2) mod N."""

    __slots__ = ("k", "N", "a1", "a2")

    def __init__(self, k: int, N: int, a1: int, a2: int):
        if k < 1:
            raise ValueError("weight must be >= 1")
        if N < 1:
            raise ValueError("level must be >= 1")
        a1 %= N
        a2 %= N
        if k == 2 and a1 == 0 and a2 == 0:
            raise InvalidIndexError(
                "non-holomorphic series E^(2)_{(0,0)} excluded")
        self.k = k
        self.N = N
        self.a1 = a1
        self.a2 = a2

    def __eq__(self, other):
        return (isinstance(other, EisensteinIndex)
                and (self.k, self.N, self.a1, self.a2) == (other.k, other.N, other.a1, other.a2))

    def __hash__(self):
        return hash((self.k, self.N, self.a1, self.a2))

    def __repr__(self):
        return f"EisensteinIndex(k={self.k}, N={self.N}, a=({self.a1},{self.a2}))"


# B_0, B_1, ..., extended in place as far as any caller has asked; private,
# so that no caller can change an entry
_BERNOULLI: List[Fraction] = [Fraction(1)]


def _bernoulli_upto(m: int) -> List[Fraction]:
    # sum_{j=0}^{n} C(n+1, j) B_j = 0, B_0 = 1 (first convention, B_1 = -1/2):
    # each new B_n costs n terms, so B_0..B_m cost O(m^2) in all
    B = _BERNOULLI
    for n in range(len(B), m + 1):
        B.append(-sum(comb(n + 1, j) * B[j] for j in range(n)) / (n + 1))
    return B


def bernoulli_number(m: int) -> Rat:
    """Exact Bernoulli number B_m, convention B_1 = -1/2."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _bernoulli_upto(m)[m]


def bernoulli_poly_eval(m: int, t: Rat) -> Rat:
    """Exact value of the Bernoulli polynomial B_m(t)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    B = _bernoulli_upto(m)
    t = Fraction(t)
    acc = Fraction(0)
    pw = Fraction(1)
    for j in range(m, -1, -1):
        acc += comb(m, j) * B[j] * pw
        pw *= t
    return acc


@lru_cache(maxsize=None)
def _bernoulli_constant(k: int, N: int, a1: int) -> Tuple[int, Tuple[int, ...]]:
    """(den, vector) of the constant term B_k(a1/N)/k, which is every
    weight's but weight 1's at a1 = 0.  A B-orbit maps a1 only to +-a1, so
    an orbit's series evaluate the Fraction polynomial at most twice;
    tuples, so no caller can change it."""
    c = bernoulli_poly_eval(k, Fraction(a1, N)) / k
    return c.denominator, (c.numerator,) + (0,) * (N - 1)


def _constant_int(idx: EisensteinIndex) -> Tuple[int, Tuple[int, ...]]:
    """(den, vector): the coefficient of q^0 as a length-N integer vector
    over den, exact and unreduced, so that B acts on it as on the series.

    Weight 1 at a1 = 0 is -(1/2)(1 + w)/(1 - w) for w = zeta^{a2} of exact
    order d = N/gcd(N, a2).  For d > 1, sum_{j<d} w^j = 0, so
    (1 - w) sum_{j<d} j w^j = sum_{0<j<d} w^j - (d - 1) w^d = -d, and

        sum_{0<j<d} B_1(j/d) w^j = -1/(1 - w) + 1/2 = -(1/2)(1 + w)/(1 - w):

    the vector with 2j - d at index j a2 mod N, over 2d; at a2 = 0 (d = 1)
    the sum is empty and the term 0.  sigma_t permutes it, and parity
    (j -> d - j) negates it, so it vanishes at the 2-torsion point d = 2."""
    N, k, a1, a2 = idx.N, idx.k, idx.a1, idx.a2
    if k >= 2 or a1:
        return _bernoulli_constant(k, N, a1)
    d = N // gcd(N, a2)
    vec = [0] * N
    for j in range(1, d):
        vec[j * a2 % N] = 2 * j - d
    return 2 * d, tuple(vec)


def constant_term(idx: EisensteinIndex) -> CycNum:
    """Coefficient of q^0: B_k(a1/N)/k, or at weight 1 with a1 = 0 the
    closed form derived in _constant_int."""
    den, vec = _constant_int(idx)
    return CycNum(idx.N, [Fraction(x, den) for x in vec])


def eisenstein_int_form(idx: EisensteinIndex, order: int) -> Tuple[int, List[int]]:
    """(den, flat): the series at idx, all exponents n/N with n < order, over
    the least common denominator den, as one row-major list of order*N
    integers: flat[n*N + i] is den times the coefficient of zeta^i q^{n/N},
    exact and unreduced (modulo x^N - 1).  Not cached: callers cache what
    they derive from it."""
    if order < 1:
        raise ValueError("order must be >= 1")
    k, N, a1, a2 = idx.k, idx.N, idx.a1, idx.a2
    c_den, c0 = _constant_int(idx)
    # (m/N)^{k-1} and the constant term are integers over D; den = D / gcd
    D = lcm(N ** (k - 1), c_den)
    unit = D // N ** (k - 1)
    # entry i of the vector at q^{n/N} is flat[n*N + i]
    flat = [x * (D // c_den) for x in c0] + [0] * ((order - 1) * N)
    end = order * N

    # branch over nu in a1/N + Z (sign -1) and nu in -a1/N + Z (sign (-1)^{k+1});
    # the term at mu sits at q^{mu m/N}, zeta index mu*step mod N
    for start, step, sign in (
        (a1 if a1 else N, a2, -1),
        ((N - a1) if a1 else N, -a2 % N, (-1) ** (k + 1)),
    ):
        for m in range(start, order, N):
            val = sign * m ** (k - 1) * unit
            i = 0
            for pos in range(m * N, end, m * N):
                i += step
                if i >= N:
                    i -= N
                flat[pos + i] += val

    g = gcd(D, *flat)
    if g > 1:
        flat = [x // g for x in flat]
    return D // g, flat


@lru_cache(maxsize=None)
def _qexp_cached(k: int, N: int, a1: int, a2: int, order: int) -> QExpansion:
    idx = EisensteinIndex(k, N, a1, a2)
    return from_int_form(N, order, *eisenstein_int_form(idx, order))


def eisenstein_qexp(idx: EisensteinIndex, order: int) -> QExpansion:
    """Exact expansion of the series at idx, all exponents n/N with n < order."""
    return _qexp_cached(idx.k, idx.N, idx.a1, idx.a2, order)


def bg_tilde_s(k: int, N: int, a: int, order: int) -> QExpansion:
    """The Gamma_1(N) variant: -N^{k-1} times the (a,0)-series at N*tau.

    The rescaling tau -> N*tau turns every exponent into an integer power
    of q; the result has order N*order.
    """
    idx = EisensteinIndex(k, N, a, 0)
    f = eisenstein_qexp(idx, order)
    return f.rescale_exponents(N).scale(-N ** (k - 1))
