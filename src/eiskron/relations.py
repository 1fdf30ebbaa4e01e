"""The bracket calculus and exact verification of the 3-term relations.

A weight-k instance combines three pairwise products of Eisenstein
series (weighted by the polynomials P, Q, R) against a linear
combination of single series (weighted by alpha, beta, gamma).  The
residual is a q-expansion that must be zero in Q(zeta_N) at every
truncation order.

The exact path has one of everything: one pair-major generator
enumerates a level's instances, for ``enumerate_instances`` and the scan
workers alike, and one residual function serves ``relation_residual`` and
``verify_instance``.  It works on series reduced mod Phi_N and packed
into one signed big int each (see qseries.PackedSeries).  The relation is
written once, as BRACKET_SLOTS and the one plan builder _plan, and
numeric.check_relation_numeric sums the same plan in floats.

Orbit transport.  Let B be the maps g = (s, j, t): x -> s*(x1, j*x1 + t*x2)
on (Z/N)^2, with s = +-1, j in Z/N and t a unit mod N.  They form a group,
(s, j, t)(s', j', t') = (ss', j + tj', tt'), and g acts on a weight-k
series as s^k tau_j sigma_t: sigma_t is the Galois map zeta -> zeta^t on
every coefficient, and tau_j the twist tau -> tau + j, which multiplies
the coefficient of q^{n/N} by zeta^{nj}.  That is an action, since
sigma_t tau_j' = tau_{tj'} sigma_t, and tau_j sigma_t is a ring
automorphism of the truncated series that fixes Q and every exponent.
qseries.act_int_form applies g to the builder's flat integer list, by
whole slices; QExpansion.twist(j), the case (1, j, 1) on a QExpansion,
rotates each vector on its own, so the check below shares no code with
the twist identities that test it.  The series have
E^{(k)}_{g x} = g E^{(k)}_x: the builder's coefficients are
zeta^{+-mu a2} and Bernoulli constants, so sigma_t moves (a1, a2) to
(a1, t a2); the twist moves it to (a1, a2 + j a1) (acceptance criterion
3); and E^{(k)}_{-x} = (-1)^k E^{(k)}_x.

Granted that, transport is exact.  g is linear and invertible, so it
sends the instance (k; k1, k2; a, b, c) to the instance (k; k1, k2; ga,
gb, gc) of the same split.  Every term of a residual has weight k (a
product E^{(i)} E^{(j)} has i + j = k) and a rational weight, which g
fixes, so residual(g inst) = s^k tau_j sigma_t residual(inst).  And
tau_j sigma_t keeps every exponent and sends a coefficient to zero only if
it is zero: g inst passes exactly when inst does, with the same first
nonzero exponent.  So the scan verifies one ordered pair (a, b) per
B-orbit and derives the reports of the rest of the orbit from it.

The equivariance is checked, not assumed, once per orbit and weight: a
series is built only together with its whole B-orbit, by _orbit_series,
and handed out only once every series of that orbit passed.  Each point
x has the least point r of its orbit and one g_x in B with g_x r = x.
At x != r the series must equal g_x E_r; at r it must equal h E_r for
every h in the stabilizer of r; a mismatch raises ArithmeticError.
Together these give E_{g y} = g E_y for every y and g in B:
g g_y r = g y = g_{gy} r, so h = g_{gy}^{-1} g g_y fixes r, and
E_{gy} = g_{gy} E_r = g_{gy} h E_r = g g_y E_r = g E_y.  The stabilizer
half is needed: the checks at x != r alone hold for E_r + d and
E_x + g_x d with any d, which need not be equivariant.  At a 2-torsion
point x = -x, for one, parity is in the stabilizer, and the check asks
that E^{(k)}_x = 0 for odd k.  A covered instance g inst reads the
g-images of the series inst reads, at the same weights, so every one of
them lies in an orbit that was built, and checked, when inst read it.

The instance at (a, b, c), a + b + c = 0, uses only the products over
the pairs inside its triple {a, b, c}, and the pair {x, y} fixes the
triple {x, y, -x-y}.  A product key is canonical under the swap of its
factors only, and no triple-orbit group of the scan (see _orbits) needs
both a product and its negative: a group's representatives lie in one
triple T, and -T is in the orbit of T (parity is in B), so it is no other
triple of the group.  Where -T = T, every point is 2-torsion and each key
is its own negative.

A scan task is one level.  It builds and checks each series of the
level once and keeps it for the rest of the task.  It walks the level's
triple-orbit groups, the representatives of the orbits of the ordered
pairs of one triple, which share their products: each product is built
once, within its group, and dropped when the group ends.  So checking an
instance costs a few big-int multiply-adds and a comparison with 0.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, gcd
from types import MappingProxyType
from typing import (Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

from .cyclotomic import Rat, Scalar
from .eisenstein import EisensteinIndex, eisenstein_int_form
from .qseries import (PackedSeries, QExpansion, act_int_form, convolve_int,
                      from_int_form, linear_combination, widen)

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# Homogeneous bivariate polynomials over Q.
# ---------------------------------------------------------------------------

class HomPoly:
    """Homogeneous polynomial sum_i coeffs[i] X^i Y^{degree-i} over Q."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Sequence[Rat]):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("need degree+1 coefficients")
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def zero(cls, degree: int) -> "HomPoly":
        return cls(degree, (Fraction(0),) * (degree + 1))

    @classmethod
    def monomial(cls, k1: int, k2: int) -> "HomPoly":
        c = [Fraction(0)] * (k1 + k2 + 1)
        c[k1] = Fraction(1)
        return cls(k1 + k2, c)

    def eval(self, x: Rat, y: Rat) -> Rat:
        x, y = Fraction(x), Fraction(y)
        acc = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                acc += c * x ** i * y ** (self.degree - i)
        return acc

    def deriv_x(self) -> "HomPoly":
        if self.degree == 0:
            return HomPoly.zero(0)
        return HomPoly(self.degree - 1,
                       [i * self.coeffs[i] for i in range(1, self.degree + 1)])

    def deriv_y(self) -> "HomPoly":
        if self.degree == 0:
            return HomPoly.zero(0)
        return HomPoly(self.degree - 1,
                       [(self.degree - i) * self.coeffs[i] for i in range(self.degree)])

    def scale(self, c: Rat) -> "HomPoly":
        return HomPoly(self.degree, [v * c for v in self.coeffs])

    def __add__(self, other: "HomPoly") -> "HomPoly":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HomPoly(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + other.scale(Fraction(-1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree == other.degree:
            return self.coeffs == other.coeffs
        # zero polynomials of different degrees are still equal
        return self.is_zero() and other.is_zero()

    def __hash__(self):
        # zero polynomials of every degree are equal, so they hash alike
        return hash((self.degree, self.coeffs)) if any(self.coeffs) else hash(0)

    def __repr__(self):
        return f"HomPoly({self.degree}, {list(self.coeffs)})"


def poly_P(k1: int, k2: int) -> HomPoly:
    """X^{k1} Y^{k2}."""
    _check_split(k1, k2)
    return HomPoly.monomial(k1, k2)


def poly_Q(k1: int, k2: int) -> HomPoly:
    """(-X-Y)^{k1} X^{k2}, expanded."""
    _check_split(k1, k2)
    coeffs = [Fraction(0)] * (k1 + k2 + 1)
    sign = (-1) ** k1
    for t in range(k1 + 1):
        coeffs[t + k2] += sign * comb(k1, t)
    return HomPoly(k1 + k2, coeffs)


def poly_R(k1: int, k2: int) -> HomPoly:
    """Y^{k1} (-X-Y)^{k2}: poly_Q(k2, k1) with X and Y swapped."""
    return HomPoly(k1 + k2, poly_Q(k2, k1).coeffs[::-1])


def _check_split(k1: int, k2: int) -> None:
    if k1 < 0 or k2 < 0:
        raise ValueError("indices must be >= 0")


def coeff_alpha(k1: int, k2: int) -> Rat:
    """(-1)^{k2+1}/(k2+1); zero if an index is -1."""
    if k1 < 0 or k2 < 0:
        return Fraction(0)
    return Fraction((-1) ** (k2 + 1), k2 + 1)


def coeff_beta(k1: int, k2: int) -> Rat:
    """(-1)^{k1+1}/(k1+1); zero if an index is -1."""
    return coeff_alpha(k2, k1)


def coeff_gamma(k1: int, k2: int) -> Rat:
    """(-1)^{k1+k2+1} k1! k2! / (k1+k2+1)!; zero if an index is -1."""
    if k1 < 0 or k2 < 0:
        return Fraction(0)
    return Fraction((-1) ** (k1 + k2 + 1) * factorial(k1) * factorial(k2),
                    factorial(k1 + k2 + 1))


# ---------------------------------------------------------------------------
# Relation instances.
# ---------------------------------------------------------------------------

class InvalidInstanceError(ValueError):
    """Instance violates the hypotheses (zero parameter or bad split)."""


class RelationInstance:
    """One instantiation (N; k; k1,k2; a, b, c) with a+b+c = 0, all nonzero."""

    __slots__ = ("N", "k", "k1", "k2", "a", "b", "c")

    def __init__(self, N: int, k: int, k1: int, k2: int, a: Pair, b: Pair,
                 c: Optional[Pair] = None):
        if N < 1:
            raise ValueError("level must be >= 1")
        if k < 2 or k1 < 0 or k2 < 0 or k1 + k2 != k - 2:
            raise InvalidInstanceError(f"bad split ({k1},{k2}) for weight {k}")
        a = (a[0] % N, a[1] % N)
        b = (b[0] % N, b[1] % N)
        c_expected = ((-a[0] - b[0]) % N, (-a[1] - b[1]) % N)
        if c is None:
            c = c_expected
        else:
            c = (c[0] % N, c[1] % N)
            if c != c_expected:
                raise InvalidInstanceError("a + b + c != 0")
        for name, v in (("a", a), ("b", b), ("c", c)):
            if v == (0, 0):
                raise InvalidInstanceError(f"parameter {name} is zero")
        self.N, self.k, self.k1, self.k2 = N, k, k1, k2
        self.a, self.b, self.c = a, b, c

    def as_dict(self) -> dict:
        return {"level": self.N, "weight": self.k, "split": [self.k1, self.k2],
                "a": list(self.a), "b": list(self.b), "c": list(self.c)}

    def __repr__(self):
        return (f"RelationInstance(N={self.N}, k={self.k}, split=({self.k1},{self.k2}), "
                f"a={self.a}, b={self.b}, c={self.c})")

    def __eq__(self, other):
        return (isinstance(other, RelationInstance)
                and (self.N, self.k, self.k1, self.k2, self.a, self.b, self.c)
                == (other.N, other.k, other.k1, other.k2, other.a, other.b, other.c))

    def __hash__(self):
        return hash((self.N, self.k, self.k1, self.k2, self.a, self.b, self.c))


def _pairs(N: int) -> Iterator[Tuple[Pair, Pair]]:
    """Ordered nonzero pairs (a, b) mod N with a + b != 0."""
    nonzero = [(i, j) for i in range(N) for j in range(N) if (i, j) != (0, 0)]
    for a in nonzero:
        for b in nonzero:
            if ((a[0] + b[0]) % N, (a[1] + b[1]) % N) != (0, 0):
                yield a, b


def _instances(N: int, k_max: int, pairs: Iterable) -> Iterator[RelationInstance]:
    """Pair-major: every weight 2 <= k <= k_max and split for each pair."""
    for a, b in pairs:
        for k in range(2, k_max + 1):
            for k1 in range(k - 1):
                yield RelationInstance(N, k, k1, k - 2 - k1, a, b)


def enumerate_instances(N: int, k_max: int) -> Iterator[RelationInstance]:
    """All (k, split, ordered nonzero triple) instances for 2 <= k <= k_max."""
    return _instances(N, k_max, _pairs(N))


# ---------------------------------------------------------------------------
# Phi_N-reduced packed caches for the hot path.
# ---------------------------------------------------------------------------

Symmetry = Tuple[int, int, int]


@lru_cache(maxsize=None)
def _symmetries(N: int) -> Tuple[Symmetry, ...]:
    """The group B at level N: each (s, j, t), x -> s*(x1, j*x1 + t*x2) with
    s = +-1, j mod N and t a unit mod N; the identity (1, 0, 1) first."""
    return tuple((s, j, t) for s in (1, -1) for j in range(N)
                 for t in range(1, N + 1) if gcd(t, N) == 1)


def _act(g: Symmetry, x: Pair, N: int) -> Pair:
    s, j, t = g
    return (s * x[0] % N, s * (j * x[0] + t * x[1]) % N)


@lru_cache(maxsize=None)
def _orbit_map(N: int) -> Mapping[Pair, Tuple[Pair, Tuple[Symmetry, ...]]]:
    """x -> (r, gs) for every point x mod N: r is the least point of the
    B-orbit of x; gs is (g_x,), the first g in _symmetries(N) with
    g r = x, if x != r, and the stabilizer of r but the identity if x == r.
    _orbit_series checks E_x = g E_r for each g in gs."""
    out: dict = {}
    for r in sorted((a1, a2) for a1 in range(N) for a2 in range(N)):
        if r not in out:
            stabilizer = []
            for g in _symmetries(N)[1:]:
                x = _act(g, r, N)
                if x == r:
                    stabilizer.append(g)
                elif x not in out:
                    out[x] = (r, (g,))
            out[r] = (r, tuple(stabilizer))
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def _orbit_series(k: int, N: int, r: Pair, order: int) -> Mapping[Pair, PackedSeries]:
    """{x: E^{(k)}_x reduced mod Phi_N and packed} over the B-orbit of its
    least point r, read-only, built only whole and only once every series
    in it passed the equivariance check (see the module docstring): with
    (r, gs) = _orbit_map(N)[x], E_x must have the den of E_r and equal
    g E_r for each g in gs, else ArithmeticError.  A series stays the
    builder's flat list from build to pack: exact and unreduced, and B acts
    on it by a signed permutation of each row, so each check is one
    comparison of lists; equal lists are equal series in Q(zeta_N).  r and
    its stabilizer are checked first, and each series is packed once its
    checks pass.  This is the one cache of the series.
    """
    points = _orbit_map(N)
    r_den, r_flat = eisenstein_int_form(EisensteinIndex(k, N, *r), order)
    out = {}
    for x in [r] + [x for x, (y, _) in points.items() if y == r and x != r]:
        den, flat = ((r_den, r_flat) if x == r else
                     eisenstein_int_form(EisensteinIndex(k, N, *x), order))
        for g in points[x][1]:
            image = act_int_form(N, g, k, r_flat)
            # an explicit raise, not an assert: python -O must not drop exactness
            if den != r_den or image != flat:
                what = (f"g = (s, j, t) = {g} times E^({k})_{r}" if x != r else
                        f"fixed by g = (s, j, t) = {g} in its stabilizer")
                raise ArithmeticError(f"E^({k})_{x} at level {N} is not {what}: "
                                      "orbit transport would not be exact")
        out[x] = PackedSeries.pack(N, order, den, flat)
    return MappingProxyType(out)


def _series(k: int, N: int, a1: int, a2: int, order: int) -> PackedSeries:
    """E^{(k)}_{(a1,a2)} reduced mod Phi_N and packed: a lookup into its
    checked orbit, which _orbit_series caches."""
    return _orbit_series(k, N, _orbit_map(N)[(a1, a2)][0], order)[(a1, a2)]


@lru_cache(maxsize=None)
def _product(i: int, a: Pair, j: int, b: Pair, N: int, order: int) -> PackedSeries:
    """E^{(i)}_a E^{(j)}_b reduced and packed, with its derived height bound
    (see qseries.convolve_int).  Callers go through _ordered_product."""
    return convolve_int(N, order, _series(i, N, a[0], a[1], order),
                        _series(j, N, b[0], b[1], order))


def _ordered_product(i: int, a: Pair, j: int, b: Pair, N: int, order: int) -> PackedSeries:
    """_product with its key canonical under the swap of the (commutative)
    factors, so a product and its swap share one entry."""
    return (_product(i, a, j, b, N, order) if (i, a) <= (j, b)
            else _product(j, b, i, a, N, order))


def _canonical(k1: int, k2: int) -> dict:
    """The closed-form weights of split (k1, k2), keyed as _plan's overrides."""
    return dict(alpha=coeff_alpha(k1, k2), beta=coeff_beta(k1, k2),
                gamma=coeff_gamma(k1, k2), P=poly_P(k1, k2), Q=poly_Q(k1, k2),
                R=poly_R(k1, k2))


Monomials = Tuple[Tuple[int, int, Scalar], ...]

# P[a, b] + Q[b, c] + R[c, a] = alpha E_a + beta E_b + gamma E_c, written once:
# the slots in (a, b, c) of the points of P, Q and R, read with a _plan
BRACKET_SLOTS = ((0, 1), (1, 2), (2, 0))


class Plan(NamedTuple):
    """A split's weights as the residual reads them: per bracket P, Q, R the
    (i, j, coef) of each product E^{(i)} E^{(j)} with a nonzero coefficient
    (an int where it is one), and the negated weights of E_a, E_b, E_c.
    A tuple, so a cached plan cannot be changed."""

    P: Monomials
    Q: Monomials
    R: Monomials
    negated: Tuple[Scalar, Scalar, Scalar]


def _integral(c: Rat) -> Scalar:
    # linear_combination reads an int's numerator faster than a Fraction's
    return c.numerator if c.denominator == 1 else c


def _monomials(P: HomPoly) -> Monomials:
    """(i + 1, degree - i + 1, coef) of each nonzero monomial coef
    X^i Y^(degree-i)."""
    return tuple((i + 1, P.degree - i + 1, _integral(c))
                 for i, c in enumerate(P.coeffs) if c)


@lru_cache(maxsize=None)
def _plan(k1: int, k2: int, **overrides) -> Plan:
    """The plan of split (k1, k2): its closed-form weights, with any
    overrides (alpha, beta, gamma, P, Q, R) in their place.  An unknown
    name, or a P, Q or R that is not a HomPoly, raises TypeError."""
    w = {**_canonical(k1, k2), **overrides}
    if len(w) != 6 or not all(isinstance(w[name], HomPoly) for name in "PQR"):
        raise TypeError("overrides are alpha, beta, gamma and HomPoly P, Q, R, "
                        f"not {overrides}")
    return Plan(*(_monomials(w[name]) for name in "PQR"),
                tuple(_integral(-Fraction(w[name])) for name in ("alpha", "beta", "gamma")))


def _residual(inst: RelationInstance, order: int, plan: Plan) -> PackedSeries:
    """P[a,b] + Q[b,c] + R[c,a] - alpha E_a - beta E_b - gamma E_c, reduced
    mod Phi_N and packed: zero in Q(zeta_N) iff its packed value is 0."""
    N, k, points = inst.N, inst.k, (inst.a, inst.b, inst.c)
    terms = [(coef, _ordered_product(i, points[s], j, points[t], N, order))
             for monomials, (s, t) in zip(plan[:3], BRACKET_SLOTS)
             for i, j, coef in monomials]
    terms += [(coef, _series(k, N, x[0], x[1], order))
              for coef, x in zip(plan.negated, points)]
    return linear_combination(N, order, terms)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def bracket(P: HomPoly, a: Pair, b: Pair, N: int, order: int) -> QExpansion:
    """Linear extension of X^{k1}Y^{k2}[a, b] = E^{(k1+1)}_a E^{(k2+1)}_b.

    Coefficients are in the Phi_N-reduced basis (see qseries.PackedSeries).
    """
    if N < 1:
        raise ValueError("level must be >= 1")
    a, b = (a[0] % N, a[1] % N), (b[0] % N, b[1] % N)
    terms = [(coef, _ordered_product(i, a, j, b, N, order))
             for i, j, coef in _monomials(P)]
    return from_int_form(N, order, *linear_combination(N, order, terms).unpack())


def relation_residual(inst: RelationInstance, order: int, **overrides) -> QExpansion:
    """LHS minus RHS of the 3-term relation, as an exact q-expansion with
    coefficients in the Phi_N-reduced basis.

    Keyword overrides (alpha, beta, gamma, P, Q, R; any other raises
    TypeError) replace the canonical weights, for mutation testing.
    """
    res = _residual(inst, order, _plan(inst.k1, inst.k2, **overrides))
    return from_int_form(inst.N, order, *res.unpack())


def verify_instance(inst: RelationInstance, order: int, **overrides) -> dict:
    """Check one instance (overrides as in relation_residual); report in
    the scan's JSON schema."""
    res = _residual(inst, order, _plan(inst.k1, inst.k2, **overrides))
    # unpack only a failure: its rows are reduced, so the first nonzero
    # entry lies in the first field-nonzero row
    first = None if res.is_zero() else next(
        i for i, v in enumerate(res.unpack()[1]) if v) // inst.N
    return {
        "instance": inst.as_dict(),
        "order": order,
        "residual_zero": first is None,
        "first_nonzero_exponent": first,
    }


# ---------------------------------------------------------------------------
# Recurrence system for the closed-form P, Q, R, alpha, beta, gamma.
# ---------------------------------------------------------------------------

def _poly_or_zero(maker, k1: int, k2: int, degree: int) -> HomPoly:
    if k1 < 0 or k2 < 0:
        return HomPoly.zero(max(degree, 0))
    return maker(k1, k2)


def recurrence_check(k_max: int) -> dict:
    """Verify the derivative/boundary conditions for all k1+k2 <= k_max-2.

    Pure rational algebra, zero tolerance.  Returns a report with one
    entry per identity per index pair.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    checks = []
    for ell in range(k_max - 1):
        for k1 in range(ell + 1):
            k2 = ell - k1
            k = ell + 2
            P, Q, R = poly_P(k1, k2), poly_Q(k1, k2), poly_R(k1, k2)
            al, be, ga = coeff_alpha(k1, k2), coeff_beta(k1, k2), coeff_gamma(k1, k2)
            dm = ell - 1
            items = [
                ("dQ_dY", Q.deriv_y().scale(Fraction(-1))
                 == _poly_or_zero(poly_Q, k1 - 1, k2, dm).scale(Fraction(k1))),
                ("dR_mixed", R.deriv_y() - R.deriv_x()
                 == _poly_or_zero(poly_R, k1 - 1, k2, dm).scale(Fraction(k1))),
                ("alpha_u", (k - 1) * al + R.eval(0, 1) == k1 * coeff_alpha(k1 - 1, k2)),
                ("beta_u", Q.eval(1, 0) - P.eval(0, 1) == k1 * coeff_beta(k1 - 1, k2)),
                ("gamma_u", -(k - 1) * ga - R.eval(1, 0) == k1 * coeff_gamma(k1 - 1, k2)),
                ("dQ_mixed", Q.deriv_x() - Q.deriv_y()
                 == _poly_or_zero(poly_Q, k1, k2 - 1, dm).scale(Fraction(k2))),
                ("dR_dX", R.deriv_x().scale(Fraction(-1))
                 == _poly_or_zero(poly_R, k1, k2 - 1, dm).scale(Fraction(k2))),
                ("alpha_v", R.eval(0, 1) - P.eval(1, 0) == k2 * coeff_alpha(k1, k2 - 1)),
                ("beta_v", (k - 1) * be + Q.eval(1, 0) == k2 * coeff_beta(k1, k2 - 1)),
                ("gamma_v", -(k - 1) * ga - Q.eval(0, 1) == k2 * coeff_gamma(k1, k2 - 1)),
            ]
            for name, ok in items:
                checks.append({"k1": k1, "k2": k2, "identity": name, "pass": bool(ok)})
    return {"k_max": k_max, "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


# ---------------------------------------------------------------------------
# Scan driver (parallel-capable, deterministic output).
# ---------------------------------------------------------------------------

Orbit = Tuple[Pair, Tuple[Tuple[Pair, Pair], ...]]  # (representative, its orbit)


def _orbits(N: int) -> Iterator[List[Orbit]]:
    """The B-orbits of the ordered pairs at level N, one list per orbit of
    zero-sum triples: the orbits of the ordered pairs of the first triple
    {a, b, -a-b} of that orbit in _pairs order, each orbit with the first
    of those pairs in it as its representative.  Every pair of _pairs(N)
    is in exactly one orbit.

    g sends the pair (x, y) of a triple to the pair (gx, gy) of the triple
    g {a, b, c}, so the pairs of every triple in the orbit of {a, b, c}
    are images of its own: a triple met later has all of its pairs in
    earlier orbits or none."""
    B, seen = _symmetries(N), set()
    for a, b in _pairs(N):
        c = ((-a[0] - b[0]) % N, (-a[1] - b[1]) % N)
        if (a, b) not in seen:
            group = []
            for x, y, _ in permutations((a, b, c)):
                if (x, y) not in seen:
                    orbit = sorted({(_act(g, x, N), _act(g, y, N)) for g in B})
                    seen.update(orbit)
                    group.append(((x, y), tuple(orbit)))
            yield group


def _scan_level(args) -> Tuple[int, List[dict]]:
    """(instances covered, failure reports) at level N: each representative
    instance is verified, and its report stands for the instance at every
    pair of its orbit, whose series the representative's reads built and
    checked (see _orbit_series)."""
    N, k_max, order = args
    # Caches are per process.  No series is used at another level, and a
    # product key fixes its triple's orbit, so no product is used outside
    # its triple-orbit group (see _orbits): each is built once and dropped
    # with its group, and so is every widened value (qseries.widen).
    _orbit_series.cache_clear()
    covered, failures = 0, []
    for group in _orbits(N):
        _product.cache_clear()
        widen.cache_clear()
        for rep, orbit in group:
            for inst in _instances(N, k_max, [rep]):
                report = verify_instance(inst, order)
                covered += len(orbit)
                if not report["residual_zero"]:
                    failures += [dict(report, instance=RelationInstance(
                        N, inst.k, inst.k1, inst.k2, a, b).as_dict()) for a, b in orbit]
    return covered, failures


def _fork_scan(tasks: List[tuple], share: range) -> Tuple[int, int]:
    """Fork a child that scans tasks[i] for each i in share, in order, and
    pickles its list of _scan_level results into a pipe, the list ending at
    the exception it caught, if any.  The pid and the pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)  # so that a write fails, not blocks, once the caller is gone
        levels: list = []
        try:
            for i in share:
                levels.append(_scan_level(tasks[i]))
        except Exception as exc:
            levels.append(exc)
        with open(write, "wb") as pipe:
            pickle.dump(levels, pipe)
        status = 0
    finally:
        os._exit(status)


def _scan_forked(tasks: List[tuple], n: int) -> List[Tuple[int, List[dict]]]:
    """[_scan_level(t) for t in tasks], by the caller and n - 1 forked
    children: the caller scans tasks[0], the largest level, and child c
    scans tasks[1 + c :: n - 1].  The first exception in task order is
    raised, as a serial scan raises it.  No child outlives the call: on
    any error of the caller's own, each is killed and reaped."""
    shares = [range(1 + c, len(tasks), n - 1) for c in range(n - 1)]
    pids: List[int] = []
    pipes: list = []
    statuses: List[int] = []
    try:
        for share in shares:
            pid, read = _fork_scan(tasks, share)
            pids.append(pid)
            pipes.append(open(read, "rb"))
        results = {0: _scan_level(tasks[0])}
        outputs = [pipe.read() for pipe in pipes]
        while len(statuses) < len(pids):
            statuses.append(os.waitpid(pids[len(statuses)], 0)[1])
    except BaseException:
        for pid in pids[len(statuses):]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
    for share, output, status in zip(shares, outputs, statuses):
        # a child exits 0 only once its whole list is in the pipe
        if status:
            raise RuntimeError(
                f"the scan of levels {[tasks[i][0] for i in share]} exited with "
                f"status {os.waitstatus_to_exitcode(status)} and no complete result")
        results.update(zip(share, pickle.loads(output)))
    for i in range(len(tasks)):
        if isinstance(results[i], Exception):
            raise results[i]
    return [results[i] for i in range(len(tasks))]


def run_scan(level_max: int, weight_max: int, order: int, workers: int = 1) -> dict:
    """Verify every enumerated instance with N <= level_max, k <= weight_max.

    One ordered pair per B-orbit is verified directly, through
    verify_instance, and every other instance of the orbit is covered by
    orbit transport (see the module docstring); ``instances`` and
    ``passed`` count covered instances.  A level is one task, so that
    each series is built and checked once, by the one process that scans
    its level.  The tasks run largest level first.  With workers > 1 the
    scan runs in min(workers, levels) processes in all: the caller scans
    the largest level, the bulk of a scan, while forked children scan the
    others (see _scan_forked).  A scan of one level forks nothing, and
    where the OS has no fork the scan runs serially.  The summary is
    independent of the worker count (failure reports are sorted before
    emission).
    """
    tasks = [(N, weight_max, order) for N in range(level_max, 1, -1)]
    n = min(workers, len(tasks)) if hasattr(os, "fork") else 1
    if n > 1:
        levels = _scan_forked(tasks, n)
    else:
        levels = [_scan_level(t) for t in tasks]
    n_instances = sum(count for count, _ in levels)
    failures = sorted((f for _, level in levels for f in level),
                      key=lambda r: json.dumps(r, sort_keys=True))
    return {
        "level_max": level_max, "weight_max": weight_max, "order": order,
        "instances": n_instances,
        "passed": n_instances - len(failures),
        "failed": len(failures),
        "failures": failures,
    }
