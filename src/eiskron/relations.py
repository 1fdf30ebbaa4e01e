"""The bracket calculus and exact verification of the 3-term relations.

A weight-k instance combines three pairwise products of Eisenstein
series (weighted by the polynomials P, Q, R) against a linear
combination of single series (weighted by alpha, beta, gamma).  The
residual is a q-expansion that must be zero in Q(zeta_N) at every
truncation order.

The exact path has one of everything: one pair-major generator
enumerates a level's instances, for ``enumerate_instances`` and the scan
workers alike, and one verification context, _Level, computes the
residual for ``relation_residual``, ``verify_instance`` and the scan, on
series reduced mod Phi_N and packed into one signed big int each (see
qseries.PackedSeries).  The relation is written once, as BRACKET_SLOTS
and the plan builder _build_plan, which numeric.check_relation_numeric
sums in floats.

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
series is built only together with its whole B-orbit, by _Level.series_at,
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

Proof transport.  A residual is a weight-k modular form for Gamma(N): its
terms are E^{(k)}_x and products E^{(i)}_x E^{(j)}_y with i + j = k, at
nonzero points.  So a residual that vanishes to order sturm_order(N, k)
is zero as a form (Sturm's bound; see sturm_order), and zero to every
order.  A level whose every weight k <= k_max has order >=
sturm_order(N, k) is proved in a proof context of its own, at the order
P = sturm_order(N, k_max) <= order (sturm_order grows with k, so P passes
the bound of every weight), and builds and multiplies series only as far
as the proof needs.  A level with a weight below the bound runs B at the
run's order, which builds every series of the level there, so it proves
its other weights at the run's order, in the same context: a proof
context would build each series twice, for products at most about
1/(k_max + 1) shorter.  GL2(Z/N) acts on these forms beyond B: gamma
in SL2(Z) by the slash action, E^{(k)}_x |_k gamma = E^{(k)}_{x gamma}
(Diamond and Shurman, A First Course in Modular Forms, section 4.2), and
diag(1, t) by sigma_t, as in B; they generate GL2(Z/N), and g inst has
the residual of inst moved by g.  A zero form stays zero, so one
representative per GL2(Z/N) orbit of ordered pairs proves every instance
of its orbit at that weight and split.  Only a proof moves.  Below the
bound a truncated zero proves nothing, and GL2 does not keep exponents
(at level 3, E^{(3)}_{(0,1)} has no q^0 term and its S-image E^{(3)}_{(1,0)}
has one), so a nonzero residual says nothing about the rest of its GL2
orbit.  A representative that fails hands its GL2 orbit back to B
transport, one representative per B-orbit at the run's order, and a
weight below the bound has B transport alone; every failure report comes
from B.  A residual nonzero below P is nonzero below the run's order too,
so the reports are those of a scan that proves at the run's order.  The
series a GL2 representative reads are built and checked with their
B-orbits, at P, as B's are at the run's order; the slash equivariance is
the theorem cited, not a run-time check, and TestOrbitTransport compares
the scan with a direct walk of all 56,392 instances of acceptance
criterion 1.

A scan task is one level, with one _Level at the run's order and, for a
level whose every weight is proved below it, the proof context at P;
each builds and checks a series of the level once, at its order, and
keeps it for the task.  A level whose every weight is proved builds no
series at the run's order unless a proof fails.  The task walks the level's
GL2 x S3 triple-orbit groups and, where a weight is below the bound or a
proof failed, the B groups inside each; a group's representatives are
the representatives of the orbits of the ordered pairs of one triple,
which share their products: each product is built once, within its
group, and dropped when the group ends.  So checking an instance costs a
few big-int multiply-adds and a comparison with 0.
One driver, _scan_forked, runs a scan's tasks, in one process or more.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, gcd
from types import MappingProxyType
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .cyclotomic import Rat, Record, Scalar
from .eisenstein import EisensteinIndex, eisenstein_int_form
from .qseries import (PackedSeries, QExpansion, act_int_form, convolve_int,
                      from_int_form, int_form_is_zero, linear_combination)

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# Homogeneous bivariate polynomials over Q.
# ---------------------------------------------------------------------------

class HomPoly(Record, namedtuple("HomPoly", "degree coeffs")):
    """Homogeneous polynomial sum_i coeffs[i] X^i Y^{degree-i} over Q."""

    __slots__ = ()

    def __new__(cls, degree: int, coeffs: Sequence[Rat]):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("need degree+1 coefficients")
        return tuple.__new__(cls, (degree, coeffs))

    @classmethod
    def zero(cls, degree: int) -> "HomPoly":
        return cls(degree, (Fraction(0),) * (degree + 1))

    @classmethod
    def monomial(cls, k1: int, k2: int) -> "HomPoly":
        """X^{k1} Y^{k2}; a negative index raises ValueError."""
        _check_split(k1, k2)
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
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HomPoly(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + other.scale(-1) if isinstance(other, HomPoly) else NotImplemented

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        # zero polynomials of different degrees are still equal
        return Record.__eq__(self, other) or (
            type(other) is HomPoly and self.is_zero() and other.is_zero())

    def __hash__(self):
        # zero polynomials of every degree are equal, so they hash alike
        return tuple.__hash__(self) if any(self.coeffs) else hash(0)


def poly_P(k1: int, k2: int) -> HomPoly:
    """X^{k1} Y^{k2}."""
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


class RelationInstance(Record, namedtuple("RelationInstance", "N k k1 k2 a b c")):
    """One instantiation (N; k; k1,k2; a, b, c) with a+b+c = 0, all nonzero."""

    __slots__ = ()

    def __new__(cls, N: int, k: int, k1: int, k2: int, a: Pair, b: Pair,
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
        return tuple.__new__(cls, (N, k, k1, k2, a, b, c))

    def as_dict(self) -> dict:
        return {"level": self.N, "weight": self.k, "split": [self.k1, self.k2],
                "a": list(self.a), "b": list(self.b), "c": list(self.c)}


def _pairs(N: int) -> Iterator[Tuple[Pair, Pair]]:
    """Ordered nonzero pairs (a, b) mod N with a + b != 0."""
    nonzero = [(i, j) for i in range(N) for j in range(N) if (i, j) != (0, 0)]
    for a in nonzero:
        for b in nonzero:
            if ((a[0] + b[0]) % N, (a[1] + b[1]) % N) != (0, 0):
                yield a, b


def _instances(N: int, weights: Iterable[int], pairs: Iterable) -> Iterator[RelationInstance]:
    """Pair-major: every weight k in weights and split for each pair."""
    for a, b in pairs:
        for k in weights:
            for k1 in range(k - 1):
                yield RelationInstance(N, k, k1, k - 2 - k1, a, b)


def enumerate_instances(N: int, k_max: int) -> Iterator[RelationInstance]:
    """All (k, split, ordered nonzero triple) instances for 2 <= k <= k_max;
    none at level 1, and a level below 1 raises ValueError."""
    if N < 1:
        raise ValueError("level must be >= 1")
    return _instances(N, range(2, k_max + 1), _pairs(N))


# ---------------------------------------------------------------------------
# B-orbits, the relation's plan and the verification context.
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
    _Level.series_at checks E_x = g E_r for each g in gs."""
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


def _canonical(k1: int, k2: int) -> dict:
    """The closed-form weights of split (k1, k2), keyed as _plan's overrides."""
    return dict(alpha=coeff_alpha(k1, k2), beta=coeff_beta(k1, k2),
                gamma=coeff_gamma(k1, k2), P=poly_P(k1, k2), Q=poly_Q(k1, k2),
                R=poly_R(k1, k2))


Monomials = Tuple[Tuple[int, int, Scalar], ...]

# P[a, b] + Q[b, c] + R[c, a] = alpha E_a + beta E_b + gamma E_c, written once:
# the slots in (a, b, c) of the points of P, Q and R, read with a _plan
BRACKET_SLOTS = ((0, 1), (1, 2), (2, 0))


class Plan(Record, namedtuple("Plan", "P Q R negated")):
    """A split's weights as the residual reads them: per bracket P, Q, R the
    Monomials (i, j, coef) of each product E^{(i)} E^{(j)} with a nonzero
    coefficient (an int where it is one), and the three negated weights of
    E_a, E_b, E_c.  A Record, so a cached plan cannot be changed."""

    __slots__ = ()


def _integral(c: Rat) -> Scalar:
    # linear_combination reads an int's numerator faster than a Fraction's
    return c.numerator if c.denominator == 1 else c


def _monomials(P: HomPoly) -> Monomials:
    """(i + 1, degree - i + 1, coef) of each nonzero monomial coef
    X^i Y^(degree-i)."""
    return tuple((i + 1, P.degree - i + 1, _integral(c))
                 for i, c in enumerate(P.coeffs) if c)


@lru_cache(maxsize=None)
def _plan(k1: int, k2: int) -> Plan:
    """The plan of split (k1, k2), with its closed-form weights, cached."""
    return _build_plan(k1, k2)


def _build_plan(k1: int, k2: int, **overrides) -> Plan:
    """The plan of split (k1, k2) with overrides (alpha, beta, gamma, P, Q,
    R) in place of its closed-form weights, built per call, so no mutation
    is cached; an unknown name, or a non-HomPoly P, Q or R, raises TypeError."""
    w = {**_canonical(k1, k2), **overrides}
    if len(w) != 6 or not all(isinstance(w[name], HomPoly) for name in "PQR"):
        raise TypeError("overrides are alpha, beta, gamma and HomPoly P, Q, R, "
                        f"not {overrides}")
    return Plan(*(_monomials(w[name]) for name in "PQR"),
                tuple(_integral(-Fraction(w[name])) for name in ("alpha", "beta", "gamma")))


class _Level:
    """The verification context of one (level, order): its checked series,
    and a product dict, which the scan replaces at each triple-orbit group.
    A scan makes one or two per level (see _scan_level), a direct call its
    own: nothing outlives it."""

    def __init__(self, N: int, order: int):
        self.N, self.order = N, order
        self.series: dict = {}    # (k, x) -> E^{(k)}_x
        self.products: dict = {}  # (i, a, j, b), (i, a) <= (j, b) -> E^{(i)}_a E^{(j)}_b

    def series_at(self, k: int, x: Pair) -> PackedSeries:
        """E^{(k)}_x reduced mod Phi_N and packed, built on first use with
        its whole B-orbit, which enters self.series only once every series
        in it passed the equivariance check (see the module docstring): with
        (r, gs) = _orbit_map(N)[y], E_y must have the den of E_r and equal
        g E_r for each g in gs, else ArithmeticError.  The checks compare
        the builder's exact flat lists, on which B acts by a signed
        permutation of each row; each series is packed once they pass."""
        if (k, x) in self.series:
            return self.series[(k, x)]
        N, order, points = self.N, self.order, _orbit_map(self.N)
        r = points[x][0]
        r_den, r_flat = eisenstein_int_form(EisensteinIndex(k, N, *r), order)
        orbit = {}
        for y in [r] + [y for y, (z, _) in points.items() if z == r and y != r]:
            den, flat = ((r_den, r_flat) if y == r else
                         eisenstein_int_form(EisensteinIndex(k, N, *y), order))
            for g in points[y][1]:
                image = act_int_form(N, g, k, r_flat)
                # an explicit raise, not an assert: python -O must not drop exactness
                if den != r_den or image != flat:
                    what = (f"g = (s, j, t) = {g} times E^({k})_{r}" if y != r else
                            f"fixed by g = (s, j, t) = {g} in its stabilizer")
                    raise ArithmeticError(f"E^({k})_{y} at level {N} is not {what}: "
                                          "orbit transport would not be exact")
            orbit[(k, y)] = PackedSeries.pack(N, order, den, flat)
        self.series.update(orbit)
        return orbit[(k, x)]

    def product(self, i: int, a: Pair, j: int, b: Pair) -> PackedSeries:
        """E^{(i)}_a E^{(j)}_b reduced and packed (see qseries.convolve_int),
        keyed canonically under the swap of the factors: both share one entry."""
        key = (i, a, j, b) if (i, a) <= (j, b) else (j, b, i, a)
        found = self.products.get(key)
        if found is None:
            found = self.products[key] = convolve_int(
                self.N, self.order, self.series_at(*key[:2]), self.series_at(*key[2:]))
        return found

    def residual(self, inst: RelationInstance, plan: Plan) -> PackedSeries:
        """P[a,b] + Q[b,c] + R[c,a] - alpha E_a - beta E_b - gamma E_c weighted by
        plan, reduced mod Phi_N and packed: zero in Q(zeta_N) iff its value is 0."""
        points = (inst.a, inst.b, inst.c)
        terms = [(coef, self.product(i, points[s], j, points[t]))
                 for monomials, (s, t) in zip(plan[:3], BRACKET_SLOTS)
                 for i, j, coef in monomials]
        terms += [(coef, self.series_at(inst.k, x))
                  for coef, x in zip(plan.negated, points)]
        return linear_combination(self.N, self.order, terms)


def _report(inst: RelationInstance, order: int, first: Optional[int]) -> dict:
    """inst's report in the scan's JSON schema; first, its residual's first
    nonzero exponent, is None for a zero residual."""
    return {"instance": inst.as_dict(), "order": order,
            "residual_zero": first is None, "first_nonzero_exponent": first}


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def bracket(P: HomPoly, a: Pair, b: Pair, N: int, order: int) -> QExpansion:
    """Linear extension of X^{k1}Y^{k2}[a, b] = E^{(k1+1)}_a E^{(k2+1)}_b.

    Coefficients are in the Phi_N-reduced basis (see qseries.PackedSeries).
    """
    if N < 1:
        raise ValueError("level must be >= 1")
    a, b, level = (a[0] % N, a[1] % N), (b[0] % N, b[1] % N), _Level(N, order)
    terms = [(coef, level.product(i, a, j, b)) for i, j, coef in _monomials(P)]
    return from_int_form(N, order, *linear_combination(N, order, terms).unpack())


def _resolve(inst: RelationInstance, overrides: dict) -> Plan:
    """inst's plan: built with overrides (see _build_plan), or with none _plan's, read per call."""
    return _build_plan(inst.k1, inst.k2, **overrides) if overrides else _plan(inst.k1, inst.k2)


def relation_residual(inst: RelationInstance, order: int, **overrides) -> QExpansion:
    """LHS minus RHS of the 3-term relation, as an exact q-expansion with
    coefficients in the Phi_N-reduced basis.

    Keyword overrides (alpha, beta, gamma, P, Q, R; any other raises
    TypeError) replace the canonical weights, for mutation testing.
    """
    res = _Level(inst.N, order).residual(inst, _resolve(inst, overrides))
    return from_int_form(inst.N, order, *res.unpack())


def verify_instance(inst: RelationInstance, order: int, **overrides) -> dict:
    """inst's report in the scan's JSON schema (overrides as in relation_residual)."""
    res = _Level(inst.N, order).residual(inst, _resolve(inst, overrides))
    return _report(inst, order, None if res.is_zero() else int_form_is_zero(inst.N, res.unpack()[1]))


def sturm_order(N: int, k: int) -> int:
    """Sturm's bound T(N, k) = floor(k mu(N) / 12) + 1: a weight-k modular
    form for Gamma(N) whose coefficients of q^{n/N}, n < T(N, k), all vanish
    is zero, so a scan at order >= T(N, k) proves its weight-k residuals.

    mu(N) is the index of the image of Gamma(N) in PSL2(Z), |SL2(Z/N)|
    over |{+-I}|: |SL2(Z/N)| = N^3 prod_{p | N} (1 - p^-2), by the Chinese
    remainder theorem and |SL2(Z/p^e)| = p^{3e} (1 - p^-2); and -I = I mod
    N only for N <= 2, so mu(1) = 1, mu(2) = 6 and mu(N) = N^3/2 prod_{p | N}
    (1 - p^-2) for N >= 3.  Gamma(N) has width N at infinity, so q^{1/N}
    is its local parameter there, and ord f counts in powers of q^{1/N}.

    The bound (Sturm, LNM 1240, 1987): by the valence formula the orders
    of a nonzero f in M_k(Gamma(N)), k even, at the points and cusps of
    X(N) are >= 0 and sum to k mu / 12, so ord_infinity f <= k mu / 12.
    Coefficients zero below T give ord_infinity f >= T > k mu / 12, so
    f = 0.  For odd k, f^2 is in M_{2k}(Gamma(N)) and ord f^2 = 2 ord f >
    2k mu / 12, so f^2 = 0 and f = 0 (at N <= 2, -I is in Gamma(N) and no
    odd weight has a nonzero form at all).  A residual lies in
    M_k(Gamma(N)): every point of an instance is nonzero, and E^{(k)}_x and
    E^{(i)}_x E^{(j)}_y with i + j = k are weight-k forms for Gamma(N)."""
    if N < 1 or k < 0:
        raise ValueError("need a level >= 1 and a weight >= 0")
    mu, n, p = N ** 3, N, 2
    while n > 1:
        if n % p == 0:
            mu = mu // (p * p) * (p * p - 1)  # p^2 still divides mu: N^3 has p^3
            while n % p == 0:
                n //= p
        p += 1
    return k * (mu // 2 if N > 2 else mu) // 12 + 1


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


def _b_orbit(N: int, x: Pair, y: Pair) -> Tuple[Tuple[Pair, Pair], ...]:
    """The B-orbit of the pair (x, y), sorted."""
    return tuple(sorted({(_act(g, x, N), _act(g, y, N)) for g in _symmetries(N)}))


def _gl2_orbit(N: int, x: Pair, y: Pair) -> Tuple[Tuple[Pair, Pair], ...]:
    """The GL2(Z/N) orbit of the pair (x, y), sorted, found by a breadth-first
    walk over S, T and each diag(1, t), acting on row vectors from the
    right: S and T generate SL2(Z), which maps onto SL2(Z/N), and diag(1, t)
    reaches each determinant t, so they generate GL2(Z/N), and in a finite
    group the walk needs no inverses.  It visits the orbit, not the group."""
    units = [t for t in range(2, N) if gcd(t, N) == 1]
    step = {(u, v): ((v, -u % N), (u, (u + v) % N), *((u, t * v % N) for t in units))
            for u in range(N) for v in range(N)}
    orbit, queue = {(x, y)}, [(x, y)]
    for u, v in queue:  # the loop reads what it appends
        for pair in zip(step[u], step[v]):
            if pair not in orbit:
                orbit.add(pair)
                queue.append(pair)
    return tuple(sorted(orbit))


def _orbits(N: int, orbit_of=_b_orbit, pairs: Optional[Iterable] = None
            ) -> Iterator[List[Orbit]]:
    """The orbits of the ordered pairs at level N, the B-orbits unless
    orbit_of is _gl2_orbit, one list per orbit of zero-sum triples: the
    orbits of the ordered pairs of the first triple {a, b, -a-b} of that
    orbit in _pairs order, each orbit with the first of those pairs in it
    as its representative.  Every pair of _pairs(N) is in exactly one
    orbit.  pairs, a union of triple orbits in _pairs order, limits the walk
    to them: the B groups inside one GL2 x S3 group, say, the first of
    which has the GL2 group's triple, as B lies in GL2(Z/N).  So a GL2
    representative is the B representative of its own B-orbit.

    g sends the pair (x, y) of a triple to the pair (gx, gy) of the triple
    g {a, b, c}, so the pairs of every triple in the orbit of {a, b, c}
    are images of its own: a triple met later has all of its pairs in
    earlier orbits or none."""
    seen: set = set()
    for a, b in _pairs(N) if pairs is None else pairs:
        c = ((-a[0] - b[0]) % N, (-a[1] - b[1]) % N)
        if (a, b) not in seen:
            group = []
            for x, y, _ in permutations((a, b, c)):
                if (x, y) not in seen:
                    orbit = orbit_of(N, x, y)
                    seen.update(orbit)
                    group.append(((x, y), orbit))
            yield group


def _scan_level(N: int, k_max: int, order: int) -> Tuple[int, List[dict]]:
    """(instances covered, failure reports) at level N, one GL2 x S3 group
    of _orbits at a time.  At each weight k with order >= sturm_order(N, k)
    the group's GL2 representatives are verified: at sturm_order(N, k_max),
    in a proof context of its own, where that is <= order, so that every
    weight is proved, and at the run's order otherwise (see the module
    docstring).  A zero residual, zero as a modular form, stands for the
    instance at every pair of its GL2 orbit (proof transport).  The
    instances left, at the lower weights and at each (k, split) whose GL2
    representative failed, go to the B groups inside the GL2 group and are
    verified by B transport at the run's order, one representative per
    B-orbit, which writes every failure report.  Either way the outcome of
    a representative stands for its orbit, whose series its reads built
    and checked (see _Level.series_at).  Products live for the GL2
    representatives of one GL2 group, all in its first triple, or for one
    B group."""
    level, covered, failures = _Level(N, order), 0, []
    weights = range(2, k_max + 1)
    proved = [k for k in weights if order >= sturm_order(N, k)]
    # a weight below the bound needs every series of the level at the run's
    # order, for B: the proofs share that context and its series
    P = min(order, sturm_order(N, k_max))
    proof = level if P == order else _Level(N, P)
    for head in _orbits(N, _gl2_orbit):
        proof.products = {}  # no product is used outside its group (see _orbits)
        failed = set()  # (k, k1, pair) of each instance a failed proof leaves to B
        for rep, orbit in head:
            for inst in _instances(N, proved, [rep]):
                if proof.residual(inst, _plan(inst.k1, inst.k2)).is_zero():
                    covered += len(orbit)
                else:
                    failed.update((inst.k, inst.k1, pair) for pair in orbit)
        if not failed and len(proved) == len(weights):
            continue
        pairs = sorted(pair for _, orbit in head for pair in orbit)
        for group in _orbits(N, _b_orbit, pairs):
            level.products = {}
            for rep, orbit in group:
                for inst in _instances(N, weights, [rep]):
                    if inst.k in proved and (inst.k, inst.k1, rep) not in failed:
                        continue  # proved zero by its GL2 representative
                    res = level.residual(inst, _plan(inst.k1, inst.k2))
                    covered += len(orbit)
                    if not res.is_zero():
                        first = int_form_is_zero(N, res.unpack()[1])
                        failures += [_report(RelationInstance(N, inst.k, inst.k1, inst.k2, a, b),
                                             order, first) for a, b in orbit]
    return covered, failures


def _scan_forked(tasks: List[tuple], n: int) -> List[Tuple[int, List[dict]]]:
    """[_scan_level(*t) for t in tasks], by the caller and n - 1 forked
    children: child c scans tasks[1 + c :: n - 1] and pickles its list of
    results into a pipe, the list ending at the exception it caught, if
    any; the caller scans tasks[0], the largest level, or every task if
    n = 1.  The caller's share comes first and raises at once, so the first
    exception in task order is raised.  No child outlives the call: on any
    error of the caller's own, each is killed and reaped."""
    shares = [range(1 + c, len(tasks), n - 1) for c in range(n - 1)]
    pids: List[int] = []
    pipes: list = []
    statuses: List[int] = []
    try:
        for share in shares:
            read, write = os.pipe()
            pid = os.fork()
            if not pid:
                status = 1
                try:
                    os.close(read)  # so a write fails, not blocks, if the caller is gone
                    levels: list = []
                    try:
                        for i in share:
                            levels.append(_scan_level(*tasks[i]))
                    except Exception as exc:
                        levels.append(exc)
                    with open(write, "wb") as pipe:
                        pickle.dump(levels, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            pids.append(pid)
            pipes.append(open(read, "rb"))
        results = {i: _scan_level(*tasks[i]) for i in range(len(tasks) if n == 1 else 1)}
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


def _check_bounds(level_max: int, weight_max: int) -> None:
    if level_max < 2 or weight_max < 2:
        raise ValueError("nothing to verify: need --level-max, --weight-max >= 2")


def scan_sturm_order(level_max: int, weight_max: int) -> int:
    """The least order at which run_scan(level_max, weight_max, order)
    proves every weight of every level: the largest sturm_order(N,
    weight_max) over 2 <= N <= level_max, the largest and not the last, as
    mu(N) does not grow with N (sturm_order(11, 6) = 331 > sturm_order(12,
    6) = 289).  Bounds with nothing to verify raise ValueError, as in
    run_scan."""
    _check_bounds(level_max, weight_max)
    return max(sturm_order(N, weight_max) for N in range(2, level_max + 1))


def run_scan(level_max: int, weight_max: int, order: int, workers: int = 1) -> dict:
    """Verify every enumerated instance with N <= level_max, k <= weight_max.

    At each weight with order >= sturm_order(N, k), one ordered pair per
    GL2(Z/N) orbit is verified, at its level's Sturm order where every
    weight of the level is proved, and a zero residual proves its whole
    orbit (proof transport); every other instance
    is covered by B transport at the run's order, one ordered pair per
    B-orbit (see the module docstring and _scan_level).  ``instances`` and
    ``passed`` count covered instances; ``order`` is the run's order.  A
    level is one task, so that each series is built and checked once per
    order, by the one process that scans its level.  The
    tasks run largest level first, in min(workers, levels) processes, or
    one where the OS has no fork (see _scan_forked): the caller scans the
    largest level, the bulk of a scan, and forked children the others, and
    one process scans every level and forks nothing.  The summary is
    independent of the worker count (failure reports are sorted before
    emission).  Nothing to verify (level_max or weight_max below 2) and
    workers < 1 raise ValueError: no scan passes vacuously.
    """
    _check_bounds(level_max, weight_max)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = [(N, weight_max, order) for N in range(level_max, 1, -1)]
    n = min(workers, len(tasks)) if hasattr(os, "fork") else 1
    levels = _scan_forked(tasks, n)
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
