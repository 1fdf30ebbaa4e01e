"""Floating-point evaluation of the continuous-parameter Eisenstein series.

Two independent evaluators:

* ``eval_E_fourier_upto`` sums the Fourier expansion with real (not
  necessarily rational) torus coordinates, truncated at a cutoff on the
  exponent mu*nu, for every weight 1..k at once: each nu's mu-series is
  one geometric series, summed in closed form.  ``eval_E_fourier`` is its
  weight-k entry.  Valid for every weight k >= 1.
* ``eval_E_lattice`` sums the defining lattice double series (k >= 3,
  where it converges absolutely).  The raw rectangular truncation
  converges too slowly for tight cross-checks, so terms near the
  boundary are weighted by a smooth radial window; this stays a direct
  lattice summation with no knowledge of the Fourier expansion.  The
  weights W_k over the lattice are built once per (k, cutoff, tau), on
  the half m >= 0 and mirrored, and each point contracts them with one
  BLAS matrix-vector product.

On top of these sit numerical checks of the 3-term relation at generic
complex parameters, the antiholomorphic derivative relations, modularity
under SL2(Z), and the z -> 0 asymptotics.  The relation check sums the
exact check's ``relations._plan``: the relation is stated only there.
Both derivative checks go through one central-difference stencil for
-(tau - taubar) d/dzbar (``_dbar``), and each evaluates the Fourier grid
of each of its points once, not once per stencil point.  Each check's
bound is named once, beside the function that writes its reports.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from collections import namedtuple
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import Record
from .eisenstein import bernoulli_number
from .qseries import check_tau
from .relations import BRACKET_SLOTS, HomPoly, Monomials, _monomials, _plan, poly_P

TWO_PI_I = 2j * math.pi
_INT_TOL = 1e-9


def _e(x) -> complex:
    return cmath.exp(TWO_PI_I * x)


def _is_int(t: float) -> bool:
    return abs(t - round(t)) < _INT_TOL


def _frac(t: float) -> float:
    if _is_int(t):
        return 0.0
    return t - math.floor(t)


class TorusPoint(Record, namedtuple("TorusPoint", "x1 x2")):
    """Real coordinates (x1, x2) of z = x1*tau + x2 on the torus."""

    __slots__ = ()

    def __new__(cls, x1: float, x2: float):
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise ValueError("torus coordinates must be finite")
        return tuple.__new__(cls, (x1, x2))

    def to_z(self, tau: complex) -> complex:
        return self.x1 * tau + self.x2

    @staticmethod
    def from_z(z: complex, tau: complex) -> "TorusPoint":
        x1 = z.imag / tau.imag
        return TorusPoint(x1, z.real - x1 * tau.real)

    def is_lattice(self) -> bool:
        return _is_int(self.x1) and _is_int(self.x2)

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(-self.x1, -self.x2)

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return TorusPoint(self.x1 + other.x1, self.x2 + other.x2)


class NumericConfig(Record, namedtuple("NumericConfig", "tau fourier_terms lattice_cutoff")):
    __slots__ = ()

    def __new__(cls, tau: complex, fourier_terms: int = 80, lattice_cutoff: int = 200):
        tau = complex(tau)  # so that every reader gets a Python complex
        check_tau(tau)
        if fourier_terms < 1 or lattice_cutoff < 1:
            raise ValueError("cutoffs must be >= 1")
        # every phase eval_E_fourier_upto forms is 2 pi i (s x2r + tau nu),
        # or m times it, with |x2r| <= 1/2, nu < M + 1 and m nu <= M: its
        # tau part is at most 2 pi |tau| (M + 1), so while that is finite
        # every exp and expm1 argument, and e(tau) here, is finite too
        if not math.isfinite(2 * math.pi * abs(tau) * (fourier_terms + 1)):
            raise _range_error(f"tau {tau}", f"fourier_terms = {fourier_terms}")
        if not abs(_e(tau)) < 1.0:  # Im tau below about 8.8e-18
            raise ValueError(f"tau {tau} is too close to the real axis: |q| is 1.0")
        return tuple.__new__(cls, (tau, fourier_terms, lattice_cutoff))


# ---------------------------------------------------------------------------
# Evaluators.
# ---------------------------------------------------------------------------

def eval_E_fourier_upto(k_max: int, p: TorusPoint,
                        cfg: NumericConfig) -> Tuple[Optional[complex], ...]:
    """(E^(1)_p, ..., E^(k_max)_p) from one Fourier grid at z = x1*tau + x2.

    The nonconstant terms sit at nu in x1 + Z and in -x1 + Z, nu > 0, and
    mu = 1 .. m with m = floor(M/nu), M = ``cfg.fourier_terms``: the cutoff
    is on mu*nu.  At one nu they form a geometric series in
    r = e(+-x2 + tau*nu), summed in closed form,

        g_nu = sum_{mu=1}^{m} r^mu = r (r^m - 1) / (r - 1),

    through exp and expm1, so that r near 1 (x1 and x2 both near integers)
    costs no digits.  Only the factor nu^(k-1) depends on the weight, and
    (-1)^(k+1) nu^(k-1) = (-nu)^(k-1), so with t = (nu+, -nu-) and
    G = (-g+, g-) over both grids,

        E^(k) = a0(k) + sum_t t^(k-1) G_t.

    A point costs O(M) array work for every weight at once, and nothing
    grows as x1 nears an integer.  The weight-2 entry is None at a lattice
    point, where that series is undefined.  A weight whose M^(k-1) leaves
    the float range is bad input (ValueError), found before any array
    arithmetic could turn it into inf or nan.
    """
    if k_max < 1:
        raise ValueError("weight must be >= 1")
    M = cfg.fourier_terms
    try:  # Python floats raise OverflowError where numpy returns inf
        float(M) ** (k_max - 1)
        bern = [float(bernoulli_number(j)) for j in range(k_max + 1)]
    except OverflowError:
        raise _range_error(f"weight {k_max}", f"fourier_terms = {M}") from None
    tau = cfg.tau
    x1, x2 = p
    frac1 = _frac(x1)
    x2r = x2 - round(x2)  # exact, and small when x2 is near an integer
    ts, gs = [], []
    for nu0, s in ((frac1, 1), (_frac(-x1), -1)):
        nu = (nu0 if nu0 > 0 else 1.0) + np.arange(M)  # the M values <= M
        m = (M / nu).astype(np.int64)
        a = TWO_PI_I * (s * x2r + tau * nu)  # r = exp(a)
        ts.append(s * nu)
        gs.append(-s * np.exp(a) * np.expm1(m * a) / np.expm1(a))
    t = np.concatenate(ts).astype(complex)
    G = np.concatenate(gs)

    # constant term of E^(1)
    if not _is_int(x1):
        a0 = complex(frac1 - 0.5)
    elif _is_int(x2):
        a0 = 0j
    else:
        a0 = -0.5 * (1 + _e(x2)) / (1 - _e(x2))
    values: List[Optional[complex]] = [a0 + complex(G.sum())]
    pw = t
    for k in range(2, k_max + 1):
        if k == 2 and p.is_lattice():
            values.append(None)
        else:
            values.append(complex(_bern_poly_float(k, frac1, bern) / k)
                          + complex(pw.dot(G)))
        pw = pw * t
    return tuple(values)


def eval_E_fourier(k: int, p: TorusPoint, cfg: NumericConfig) -> complex:
    """Fourier-expansion value E^(k)_p: entry k of ``eval_E_fourier_upto``."""
    return _entry(eval_E_fourier_upto(k, p, cfg), k)


def _entry(values: Sequence[Optional[complex]], k: int) -> complex:
    """The weight-k value of an ``eval_E_fourier_upto`` result."""
    if values[k - 1] is None:
        raise ValueError("weight-2 series undefined at lattice points")
    return values[k - 1]


def _bern_poly_float(k: int, t: float, bern: Sequence[float]) -> float:
    """B_k(t), from the floats bern[j] = B_j."""
    return sum(math.comb(k, j) * bern[j] * t ** (k - j) for j in range(k + 1))


def eval_E_lattice(k: int, z: complex, tau: complex, cfg: NumericConfig) -> complex:
    """Direct lattice sum over |m|, |n| <= cutoff with a smooth radial window.

    Independent oracle for eval_E_fourier; absolutely convergent for k >= 3.
    The character e(m*x2 - n*x1) is the outer product A[m] * B[n], so the
    sum is A . W_k . B with W_k from ``_lattice_weights``: one complex
    matrix-vector product and one dot product per point, with no temporary
    the size of W_k.  ``tau`` must be ``cfg.tau``: a sum at another tau
    raises ValueError.
    """
    if k < 3:
        raise ValueError("lattice sum requires weight >= 3")
    if tau != cfg.tau:  # cfg.tau has passed NumericConfig's checks
        raise ValueError(f"tau {tau} differs from the configuration's {cfg.tau}")
    L = cfg.lattice_cutoff
    p = TorusPoint.from_z(z, tau)  # ValueError for a non-finite z
    idx = np.arange(-L, L + 1)
    A = np.exp(TWO_PI_I * p.x2 * idx)
    B = np.exp(-TWO_PI_I * p.x1 * idx)
    # W @ B is one BLAS gemv.  300 calls at L = 200 (numpy 2.4.6, OpenBLAS
    # 0.3.31, 2-core x86-64): median 0.03 ms, 10 ms in all; with the second
    # core kept busy by a spin loop, median 0.04 ms, worst 12-17 ms, 100 ms
    # in all.  The elementwise (W * B).sum(axis=1) took 0.45 ms (median),
    # 140 ms in all (210 ms with the busy core), and a 2.6 MB temporary.
    with _float_range(k, f"tau {tau} in the lattice sum"):
        W = _lattice_weights(k, L, tau)
        return complex(-math.factorial(k - 1) / (-TWO_PI_I) ** k * A.dot(W @ B))


@functools.lru_cache(maxsize=2)
def _lattice_weights(k: int, L: int, tau: complex) -> np.ndarray:
    """W_k[m + L, n + L] = window(|lam|) / lam**k at lam = m*tau + n, zero at
    lam = 0.  Read-only, since every caller with this (k, L, tau) shares it.

    Only the rows m >= 0 are computed; the rows m < 0 are their mirror
    image, W_k[-m, -n] = (-1)^k W_k[m, n], and that holds bit for bit
    save the sign of a zero:

    * (-m)*tau + (-n) = -(m*tau + n) exactly, since IEEE rounding is
      symmetric under negation, so the mirrored lam is the negated one
      (a part that is exactly zero may differ in the sign of that zero,
      which compares equal and adds nothing to a sum);
    * |-lam| = |lam|, so the window, a function of |lam| alone, is equal;
    * numpy raises a complex array to an integer power by complex
      multiplications, each of which negates exactly with one factor, so
      (-lam)**k = (-1)^k lam**k, and so does the quotient window / lam**k.

    The window t*t*t*((10 - 15 t) + 6 t*t) is evaluated in place, in the
    order numpy evaluates that expression, and the quotient is written
    straight into the output, so no full-grid temporary is allocated.

    Two entries: the callers loop over points inside a loop over k, and at
    L = 200 each grid holds 401**2 complex128 values (2.6 MB).
    """
    idx = np.arange(-L, L + 1)
    W = np.empty((2 * L + 1, 2 * L + 1), dtype=complex)
    lam = W[L:]  # rows m = 0 .. L, built in place
    np.multiply(idx[L:, None], tau, out=lam)
    lam += idx
    lam[0, L] = 1.0  # lam = 0 is excluded from the sum; W is zeroed there
    R = lattice_window_radius(L, tau)
    t = np.abs(lam)
    np.subtract(R, t, out=t)
    t /= R - 0.5 * R
    np.clip(t, 0.0, 1.0, out=t)
    # C^2 smoothstep window t*t*t*((10 - 15 t) + 6 t*t)
    w = np.multiply(15.0, t)
    np.subtract(10.0, w, out=w)
    u = np.multiply(6.0, t)
    u *= t
    w += u
    np.multiply(t, t, out=u)
    u *= t
    w *= u  # (10 - 15 t + 6 t t) * t t t: multiplication commutes
    lam[w == 0] = 1.0  # a dead term's lam**k may leave the float range; w / 1 is 0
    np.power(lam, k, out=lam)
    np.divide(w, lam, out=lam)
    lam[0, L] = 0.0
    W[:L] = lam[:0:-1, ::-1]  # rows m < 0: W[-m, -n] = (-1)^k W[m, n]
    if k % 2:
        np.negative(W[:L], out=W[:L])
    W.flags.writeable = False
    return W


def lattice_window_radius(L: int, tau: complex) -> float:
    """Radius of the largest disk (in |m*tau+n|) inside the index square."""
    return L * tau.imag / max(1.0, abs(tau))


# ---------------------------------------------------------------------------
# Truncation-error estimates ("tail-bound discipline").
# ---------------------------------------------------------------------------

def fourier_tail_estimate(k: int, cfg: NumericConfig) -> float:
    """Crude bound on the omitted Fourier tail: C * |q|^cutoff."""
    q = abs(_e(cfg.tau))  # < 1: NumericConfig checks it
    M = cfg.fourier_terms
    with _float_range(k, f"fourier_terms = {M}"):
        return 2.0 * (M + 1.0) ** k * q ** M / (1.0 - q)


def _range_error(what: str, where: str) -> ValueError:
    """Bad input whose floats would overflow: what leaves the float range at where."""
    return ValueError(f"{what} leaves the float range at {where}")


@contextlib.contextmanager
def _float_range(k: int, where: str):
    """Bad input: a Python or numpy overflow inside raises _range_error(f"weight {k}", where)."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError):
        raise _range_error(f"weight {k}", where) from None


# ---------------------------------------------------------------------------
# Numeric bracket and relation check.
# ---------------------------------------------------------------------------

def _bracket(monomials: Monomials, Eu: Sequence[Optional[complex]],
             Ev: Sequence[Optional[complex]]) -> complex:
    """A bracket at [u, v] from the ``eval_E_fourier_upto`` values at u and v:
    each of its ``relations._monomials`` (i, j, c) adds c E^(i)_u E^(j)_v."""
    acc = 0j
    for i, j, c in monomials:
        acc += float(c) * (_entry(Eu, i) * _entry(Ev, j))
    return acc


def check_relation_numeric(k1: int, k2: int, u: TorusPoint, v: TorusPoint,
                           cfg: NumericConfig) -> float:
    """|LHS - RHS| of the weight k1+k2+2 relation at generic points: the
    exact check's plan summed at (a, b, c) = (u, v, -(u+v)), each point
    evaluated once, for every weight."""
    if k1 < 0 or k2 < 0:
        raise ValueError("indices must be >= 0")
    return _relation_residual(k1, k2, _relation_grids(k1 + k2 + 2, u, v, cfg))


def _relation_grids(k: int, u: TorusPoint, v: TorusPoint,
                    cfg: NumericConfig) -> List[Tuple[Optional[complex], ...]]:
    """The ``eval_E_fourier_upto`` values up to weight k at u, v and -(u+v),
    which must avoid the lattice: they serve every split of weight k."""
    w = -(u + v)
    for name, pt in (("u", u), ("v", v), ("u+v", w)):
        if pt.is_lattice():
            raise ValueError(f"parameter {name} must avoid the lattice")
    return [eval_E_fourier_upto(k, pt, cfg) for pt in (u, v, w)]


def _relation_residual(k1: int, k2: int,
                       E: Sequence[Sequence[Optional[complex]]]) -> float:
    """|LHS - RHS| of split (k1, k2) from the ``_relation_grids`` E."""
    k, plan = k1 + k2 + 2, _plan(k1, k2)
    lhs = neg_rhs = 0j
    for monomials, (s, t) in zip(plan[:3], BRACKET_SLOTS):
        lhs += _bracket(monomials, E[s], E[t])
    for c, values in zip(plan.negated, E):  # negation is exact: -rhs, summed alone
        neg_rhs += float(c) * values[k - 1]
    return abs(lhs + neg_rhs)


TOL = 1e-8  # the relation's bound, and T-modularity's


def relation_reports(k: int, drawn: Sequence[Tuple[TorusPoint, TorusPoint]],
                     cfg: NumericConfig) -> List[dict]:
    """A report per split of weight k at each drawn pair (u, v) and at one
    fixed irrational pair, from 3 Fourier grids per pair."""
    if k < 2:
        raise ValueError("relation check needs weight >= 2")
    points = [*drawn, (TorusPoint(1 / math.sqrt(5), 1 / math.sqrt(7)),
                       TorusPoint(1 / math.sqrt(3), 1 / math.sqrt(11)))]
    tail = fourier_tail_estimate(k, cfg)
    grids = [_relation_grids(k, u, v, cfg) for u, v in points]
    return [make_report("relation", {"split": [k1, k - 2 - k1], "u": list(u), "v": list(v)},
                        _relation_residual(k1, k - 2 - k1, E), tail, TOL)
            for k1 in range(k - 1) for (u, v), E in zip(points, grids)]


# ---------------------------------------------------------------------------
# Finite-difference checks of the derivative relations.
# ---------------------------------------------------------------------------

FD_STEP = 1e-4  # the stencil's default step h, and the one the diff report states
FD_TOL = 1e-5  # the bound of both finite-difference checks

def _check_step(p: TorusPoint, cfg: NumericConfig, h: float) -> None:
    """Raise unless h is below 1% of p's distance to its lattice cell's corners."""
    tau = cfg.tau
    z = p.to_z(tau)
    corners = [(m, n) for m in (math.floor(p.x1), math.ceil(p.x1))
               for n in (math.floor(p.x2), math.ceil(p.x2))]
    if h >= 0.01 * min(abs(z - (m * tau + n)) for m, n in corners):
        raise ValueError("step too large relative to lattice distance")


def _dbar(F, p: TorusPoint, cfg: NumericConfig, h: float) -> complex:
    """-(tau - taubar) dF/dzbar at p, for F a function of the torus point:
    central differences of dF/dzbar = (dF/dx + i dF/dy)/2 in z = x + iy."""
    tau = cfg.tau
    z = p.to_z(tau)
    dx, dy = ((F(TorusPoint.from_z(z + s, tau)) - F(TorusPoint.from_z(z - s, tau)))
              / (2 * h) for s in (h, 1j * h))
    return -(tau - tau.conjugate()) * ((dx + 1j * dy) / 2)


def check_diff_relation(k: int, p: TorusPoint, cfg: NumericConfig,
                        h: float = FD_STEP) -> float:
    """Error in -(tau - taubar) d/dzbar E^(k) = 1 (k=1) or (k-1) E^(k-1)."""
    _check_step(p, cfg, h)
    lhs = _dbar(lambda q: eval_E_fourier(k, q, cfg), p, cfg, h)
    return abs(lhs - (1.0 + 0j if k == 1 else (k - 1) * eval_E_fourier(k - 1, p, cfg)))


def check_diff_bracket(P: HomPoly, u: TorusPoint, v: TorusPoint,
                       cfg: NumericConfig, h: float = FD_STEP) -> Tuple[float, float]:
    """Errors in both derivative formulas for the bracket P[u, v].

    First entry: derivative in conj(u) against dP/dX [u,v] + P(0,1) E^(k-1)_v.
    Second: derivative in conj(v) against dP/dY [u,v] + P(1,0) E^(k-1)_u.
    Both steps are checked first; the grids at u and v are evaluated once.
    """
    _check_step(u, cfg, h)
    _check_step(v, cfg, h)
    d = P.degree + 1  # = k - 1: each grid holds the weights 1 .. k - 1
    Eu, Ev = (eval_E_fourier_upto(d, pt, cfg) for pt in (u, v))
    m = _monomials(P)
    lhs_u = _dbar(lambda q: _bracket(m, eval_E_fourier_upto(d, q, cfg), Ev), u, cfg, h)
    lhs_v = _dbar(lambda q: _bracket(m, Eu, eval_E_fourier_upto(d, q, cfg)), v, cfg, h)
    tgt_u = _bracket(_monomials(P.deriv_x()), Eu, Ev) + float(P.eval(0, 1)) * _entry(Ev, d)
    tgt_v = _bracket(_monomials(P.deriv_y()), Eu, Ev) + float(P.eval(1, 0)) * _entry(Eu, d)
    return abs(lhs_u - tgt_u), abs(lhs_v - tgt_v)


def diff_reports(k: int, p: TorusPoint, cfg: NumericConfig) -> List[dict]:
    """The report of ``check_diff_relation`` at p, with step FD_STEP."""
    return [make_report("diff", {"weight": k, "p": list(p), "h": FD_STEP},
                        check_diff_relation(k, p, cfg, FD_STEP),
                        fourier_tail_estimate(k, cfg), FD_TOL)]


def bracket_reports(k1: int, k2: int, u: TorusPoint, v: TorusPoint,
                    cfg: NumericConfig) -> List[dict]:
    """The reports of ``check_diff_bracket`` for X^k1 Y^k2 at [u, v], one per side."""
    errors = check_diff_bracket(poly_P(k1, k2), u, v, cfg)
    tail = fourier_tail_estimate(k1 + k2 + 2, cfg)
    return [make_report("bracket", {"split": [k1, k2], "u": list(u), "v": list(v),
                                    "side": side}, err, tail, FD_TOL)
            for side, err in zip("uv", errors)]


# ---------------------------------------------------------------------------
# Modularity and asymptotics.
# ---------------------------------------------------------------------------

def _image(gamma: Sequence[Sequence[int]],
           cfg: NumericConfig) -> Tuple[NumericConfig, complex]:
    """(cfg at gamma tau, c tau + d); a bad gamma tau names tau and gamma."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("gamma must have determinant 1")
    tau = cfg.tau
    try:
        return cfg._replace(tau=(a * tau + b) / (c * tau + d)), c * tau + d
    except ValueError:
        raise ValueError(f"the image of tau {tau} under gamma {gamma} is too close "
                         "to the real axis") from None


def _automorphy_power(j, k: int, cfg: NumericConfig):
    """j ** k for j = c tau + d or |c tau + d|; bad input if it overflows."""
    with _float_range(k, f"tau {cfg.tau}: |c tau + d|^{k} overflows"):
        return j ** k


def check_modularity(k: int, x: TorusPoint, gamma: Sequence[Sequence[int]],
                     cfg: NumericConfig) -> float:
    """|E~_x(gamma tau) - (c tau + d)^k E~_{x gamma}(tau)|."""
    gcfg, j = _image(gamma, cfg)
    (a, b), (c, d) = gamma
    xg = TorusPoint(x.x1 * a + x.x2 * c, x.x1 * b + x.x2 * d)
    factor = _automorphy_power(j, k, cfg)
    return abs(eval_E_fourier(k, x, gcfg) - factor * eval_E_fourier(k, xg, cfg))


def modularity_tail_estimate(k: int, gamma: Sequence[Sequence[int]],
                             cfg: NumericConfig) -> float:
    """Bound on the gap between check_modularity's two truncated sums:
    tail(gamma tau) + |c tau + d|^k tail(tau)."""
    gcfg, j = _image(gamma, cfg)
    factor = _automorphy_power(abs(j), k, cfg)
    return fourier_tail_estimate(k, gcfg) + factor * fourier_tail_estimate(k, cfg)


S_TOL = 1e-6  # S-modularity's bound; T shares the relation's TOL


def modularity_reports(k: int, cfg: NumericConfig) -> List[dict]:
    """The reports of ``check_modularity`` at x = (1/3, 0) under T and S."""
    x = TorusPoint(1 / 3, 0.0)
    return [make_report("modularity", {"weight": k, "gamma": name, "x": list(x)},
                        check_modularity(k, x, gamma, cfg),
                        modularity_tail_estimate(k, gamma, cfg), tol)
            for name, gamma, tol in (("T", ((1, 1), (0, 1)), TOL),
                                     ("S", ((0, -1), (1, 0)), S_TOL))]


def eval_G2(tau: complex) -> complex:
    """The weight-2 series -1/24 + sum_{m,n>=1} n q^{mn}, summed directly
    over m*n <= 200."""
    q = cmath.exp(TWO_PI_I * tau)
    cutoff = 200
    acc = complex(-1.0 / 24.0)
    for m in range(1, cutoff + 1):
        for n in range(1, cutoff // m + 1):
            acc += n * q ** (m * n)
    return acc


def _richardson(values: List[complex]) -> complex:
    """Limit of v_j = A + B t_j + C t_j^2 + ... with t_{j+1} = t_j / 2."""
    row = list(values)
    for m in range(1, len(values)):
        fac = 2.0 ** m
        row = [(fac * row[j + 1] - row[j]) / (fac - 1.0)
               for j in range(len(row) - 1)]
    return row[0]


LIMIT_TOL = 1e-6  # the bound of every limit check_asymptotics reports


def check_asymptotics(k: int, cfg: NumericConfig) -> dict:
    """Behaviour of E^(k) at cfg.tau as z -> 0 along a ray of irrational slope.

    Weight 1: z*E^(1)_z -> 1/(2 pi i), with a bounded slope; also checked
    along the real ray x1 = 0.  Weight 2: E^(2)_z - x1/(2 pi i z) tends
    to -2 G_2(tau), with G_2 summed from its own series.  The report's
    last key, "pass", holds when every limit error is below LIMIT_TOL.
    """
    if k not in (1, 2):
        raise ValueError("asymptotics are for weights 1 and 2")
    tau = cfg.tau
    d1, d2 = 1.0 / math.sqrt(5.0), 1.0 / math.sqrt(7.0)
    ts = [0.04 * 0.5 ** j for j in range(6)]  # six steps, each half the last
    vals: List[complex] = []
    for t in ts:
        p = TorusPoint(t * d1, t * d2)
        z = p.to_z(tau)
        E = eval_E_fourier(k, p, cfg)
        if k == 1:
            vals.append(z * E - 1.0 / TWO_PI_I)
        else:
            vals.append(E - p.x1 / (TWO_PI_I * z))
    limit = _richardson(vals)
    report = {
        "check": "asymptotics",
        "weight": k,
        "ray": [d1, d2],
        "steps": [list(pair) for pair in zip(ts, [abs(v) for v in vals])],
        "slope_bound": max(abs(v - vals[-1]) / t for v, t in zip(vals, ts)),
    }
    if k == 1:
        report["limit_error"] = abs(limit)
        # real ray x1 = 0: exercises the -(1/2)(1+e(z))/(1-e(z)) branch
        real_vals = [complex(t * d2) * eval_E_fourier(1, TorusPoint(0.0, t * d2), cfg)
                     - 1.0 / TWO_PI_I for t in ts]
        report["real_ray_error"] = abs(_richardson(real_vals))
    else:
        target = -2.0 * eval_G2(tau)
        report["target"] = [target.real, target.imag]
        report["limit_error"] = abs(limit - target)
    report["tail_estimate"] = fourier_tail_estimate(k, cfg)
    report["pass"] = bool(report["limit_error"] < LIMIT_TOL
                          and report.get("real_ray_error", 0.0) < LIMIT_TOL)
    return report


def make_report(check: str, params: dict, residual: float,
                tail_estimate: float, tol: float) -> dict:
    """One JSON report line in the numeric module's schema, or, for an inf
    or nan residual or tail estimate, which JSON cannot hold, ValueError."""
    if not (math.isfinite(residual) and math.isfinite(tail_estimate)):
        raise ValueError(f"the {check} check leaves the float range: residual "
                         f"{residual}, tail estimate {tail_estimate}")
    return {
        "check": check,
        "params": params,
        "residual": residual,
        "tail_estimate": tail_estimate,
        "pass": bool(residual < tol),
    }
