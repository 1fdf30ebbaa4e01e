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
into one signed big int each (see qseries.PackedSeries).  Every single
series and every product is built once per level and order (a scan
keeps one level's), so checking an instance costs a few big-int
multiply-adds and a comparison with 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, factorial
from types import MappingProxyType
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .cyclotomic import Rat
from .eisenstein import EisensteinIndex, eisenstein_int_form
from .qseries import (PackedSeries, QExpansion, convolve_int, from_int_form,
                      int_form_is_zero, linear_combination, reduce_int_form)

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

@lru_cache(maxsize=None)
def _series(k: int, N: int, a1: int, a2: int, order: int) -> PackedSeries:
    """E^{(k)}_{(a1,a2)} reduced mod Phi_N and packed."""
    den, data = eisenstein_int_form(EisensteinIndex(k, N, a1, a2), order)
    return PackedSeries.pack(N, order, den, reduce_int_form(N, data))


@lru_cache(maxsize=None)
def _product(i: int, a: Pair, j: int, b: Pair, N: int, order: int) -> PackedSeries:
    """E^{(i)}_a E^{(j)}_b reduced and packed, with its derived height bound
    (see qseries._packed_product).  Callers pass the key in canonical order,
    (i, a) <= (j, b), so a product and its swap share one entry."""
    return convolve_int(N, order, _series(i, N, a[0], a[1], order),
                        _series(j, N, b[0], b[1], order))


@lru_cache(maxsize=None)
def _canonical(k1: int, k2: int) -> Mapping[str, object]:
    """The closed-form weights of split (k1, k2), keyed as _residual's."""
    return MappingProxyType(dict(
        alpha=coeff_alpha(k1, k2), beta=coeff_beta(k1, k2), gamma=coeff_gamma(k1, k2),
        P=poly_P(k1, k2), Q=poly_Q(k1, k2), R=poly_R(k1, k2)))


def _product_terms(P: HomPoly, a: Pair, b: Pair, N: int, order: int) -> List[tuple]:
    """Terms (coef, packed product) of P[a, b], one cached product per monomial."""
    ell = P.degree
    terms = []
    for i, coef in enumerate(P.coeffs):
        if coef:
            # the product is commutative: canonicalize the key before the lookup
            key = min((i + 1, a, ell - i + 1, b), (ell - i + 1, b, i + 1, a))
            terms.append((coef, _product(*key, N, order)))
    return terms


def _residual(inst: RelationInstance, order: int, *, alpha: Rat, beta: Rat,
              gamma: Rat, P: HomPoly, Q: HomPoly, R: HomPoly) -> PackedSeries:
    """P[a,b] + Q[b,c] + R[c,a] - alpha E_a - beta E_b - gamma E_c, reduced
    mod Phi_N and packed: zero in Q(zeta_N) iff its packed value is 0."""
    N = inst.N
    terms = (_product_terms(P, inst.a, inst.b, N, order)
             + _product_terms(Q, inst.b, inst.c, N, order)
             + _product_terms(R, inst.c, inst.a, N, order))
    for coef, point in ((alpha, inst.a), (beta, inst.b), (gamma, inst.c)):
        terms.append((-coef, _series(inst.k, N, point[0], point[1], order)))
    return linear_combination(N, order, terms)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def bracket(P: HomPoly, a: Pair, b: Pair, N: int, order: int) -> QExpansion:
    """Linear extension of X^{k1}Y^{k2}[a, b] = E^{(k1+1)}_a E^{(k2+1)}_b.

    Coefficients are in the Phi_N-reduced basis (see qseries.PackedSeries).
    """
    terms = _product_terms(P, (a[0] % N, a[1] % N), (b[0] % N, b[1] % N), N, order)
    return from_int_form(N, order, *linear_combination(N, order, terms).unpack())


def relation_residual(inst: RelationInstance, order: int, **overrides) -> QExpansion:
    """LHS minus RHS of the 3-term relation, as an exact q-expansion with
    coefficients in the Phi_N-reduced basis.

    Keyword overrides (alpha, beta, gamma, P, Q, R; any other raises
    TypeError) replace the canonical weights, for mutation testing.
    """
    res = _residual(inst, order, **{**_canonical(inst.k1, inst.k2), **overrides})
    return from_int_form(inst.N, order, *res.unpack())


def verify_instance(inst: RelationInstance, order: int, **overrides) -> dict:
    """Check one instance (overrides as in relation_residual); report in
    the scan's JSON schema."""
    res = _residual(inst, order, **{**_canonical(inst.k1, inst.k2), **overrides})
    # unpack only a failure, to report its first nonzero exponent
    first = None if res.is_zero() else int_form_is_zero(inst.N, res.unpack()[1])
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

SCAN_CHUNK_PAIRS = 8  # (a, b) pairs per scan task


def _scan_tasks(level_max: int, weight_max: int, order: int) -> Iterator[tuple]:
    """(N, pair chunk, weight_max, order) tasks, built lazily per level."""
    for N in range(2, level_max + 1):
        pairs = _pairs(N)
        while chunk := list(islice(pairs, SCAN_CHUNK_PAIRS)):
            yield N, chunk, weight_max, order


_cached_at: Optional[Tuple[int, int]] = None  # (level, order) of the cached entries


def _scan_chunk(args) -> Tuple[int, List[dict]]:
    """(instances verified, failure reports) for a chunk of pairs at one level."""
    global _cached_at
    N, pairs, k_max, order = args
    if _cached_at != (N, order):  # no entry is used at another level or order
        _series.cache_clear()  # per process: a pool worker clears its own
        _product.cache_clear()
        _cached_at = (N, order)
    reports = [verify_instance(inst, order) for inst in _instances(N, k_max, pairs)]
    return len(reports), [r for r in reports if not r["residual_zero"]]


def run_scan(level_max: int, weight_max: int, order: int, workers: int = 1) -> dict:
    """Verify every enumerated instance with N <= level_max, k <= weight_max.

    Instances are grouped by parameter pair so that product caches are
    reused across weights and splits.  The summary is independent of the
    worker count (failure reports are sorted before emission).
    """
    tasks = _scan_tasks(level_max, weight_max, order)
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_chunk, tasks))
    else:
        chunks = [_scan_chunk(t) for t in tasks]
    n_instances = sum(count for count, _ in chunks)
    failures = sorted((f for _, chunk in chunks for f in chunk),
                      key=lambda r: json.dumps(r, sort_keys=True))
    return {
        "level_max": level_max, "weight_max": weight_max, "order": order,
        "instances": n_instances,
        "passed": n_instances - len(failures),
        "failed": len(failures),
        "failures": failures,
    }
