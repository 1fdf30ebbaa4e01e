import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from eiskron import numeric as nm
from eiskron.eisenstein import EisensteinIndex, bernoulli_number, eisenstein_qexp
from eiskron.relations import (HomPoly, _monomials, coeff_alpha, coeff_beta, coeff_gamma,
                               poly_P, poly_Q, poly_R)

TAU = 0.3 + 1.1j
CFG = nm.NumericConfig(tau=TAU)


class TestTorusPoint:
    def test_round_trip(self):
        p = nm.TorusPoint(0.37, 0.81)
        z = p.to_z(TAU)
        q = nm.TorusPoint.from_z(z, TAU)
        assert abs(q.x1 - p.x1) < 1e-12 and abs(q.x2 - p.x2) < 1e-12

    def test_is_lattice(self):
        assert nm.TorusPoint(0.0, 2.0).is_lattice()
        assert nm.TorusPoint(1.0, -3.0).is_lattice()
        assert not nm.TorusPoint(0.5, 0.0).is_lattice()

    def test_arith(self):
        p = nm.TorusPoint(0.25, 0.75)
        s = p + (-p)
        assert s.x1 == 0.0 and s.x2 == 0.0


class TestConfig:
    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            nm.NumericConfig(tau=1 - 1j)

    @pytest.mark.parametrize("tau", [complex(math.nan, 1), complex(0.3, math.inf),
                                     complex(math.nan, math.nan),
                                     complex(math.inf, 1)])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError):
            nm.NumericConfig(tau=tau)
        with pytest.raises(ValueError):
            nm.eval_E_lattice(3, 0.3 + 0.4j, tau, CFG)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_point(self, x):
        for coords in ((x, 0.25), (0.25, x)):
            with pytest.raises(ValueError):
                nm.TorusPoint(*coords)
        with pytest.raises(ValueError):
            nm.eval_E_lattice(3, complex(x, 0.4), 0.3 + 1.1j, CFG)
        with pytest.raises(ValueError):
            nm.eval_E_lattice(3, complex(0.3, x), 0.3 + 1.1j, CFG)

    def test_tau_is_held_as_a_python_complex(self):
        # every reader takes cfg.tau as it is, so the config converts it once
        cfg = nm.NumericConfig(tau=np.complex128(0.3 + 1.1j))
        assert type(cfg.tau) is complex and cfg.tau == 0.3 + 1.1j
        assert type(cfg._replace(fourier_terms=40).tau) is complex
        assert type(cfg._replace(tau=np.complex128(0.2 + 0.9j)).tau) is complex

    def test_rejects_tau_other_than_config(self):
        # every caller passes cfg.tau; another tau must not be summed silently
        with pytest.raises(ValueError):
            nm.eval_E_lattice(3, 0.3 + 0.4j, 0.1 + 0.8j, CFG)
        z = 0.37 + 0.21j
        assert nm.eval_E_lattice(3, z, TAU, CFG) == nm.eval_E_lattice(3, z, complex(TAU), CFG)

    @pytest.mark.parametrize("im", [1e-18, 8e-18, 5e-300])
    def test_rejects_tau_where_q_rounds_to_one(self, im):
        # |e(tau)| is 1.0 as a float: the tail estimate would divide by zero
        with pytest.raises(ValueError, match="too close to the real axis"):
            nm.NumericConfig(tau=complex(0.0, im))
        assert nm.NumericConfig(tau=complex(0.0, 1e-16)).tau == complex(0.0, 1e-16)

    @pytest.mark.parametrize("tau", [4e305j, 3e307 + 1j])
    def test_rejects_tau_whose_phases_leave_the_float_range(self, tau):
        # 2 pi |tau| (M + 1) overflows at M = 80: the Fourier phases would
        # be inf, and e(tau) a cmath domain error
        with pytest.raises(ValueError, match="leaves the float range"):
            nm.NumericConfig(tau=tau)

    @pytest.mark.parametrize("tau", [3e305j, 3e305 + 1j])
    def test_tau_inside_the_float_range_evaluates(self, tau):
        # just inside the bound every phase is finite: finite values, and no
        # numpy warning (an error under this suite's filterwarnings)
        cfg = nm.NumericConfig(tau=tau)
        values = nm.eval_E_fourier_upto(4, nm.TorusPoint(0.3, 0.4), cfg)
        assert all(cmath.isfinite(v) for v in values)

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(ValueError):
            nm.NumericConfig(tau=1j, fourier_terms=0)


class TestFourierEvaluator:
    def test_weight_one_at_origin(self):
        # the two branches cancel pairwise; only rounding noise remains
        assert abs(nm.eval_E_fourier(1, nm.TorusPoint(0.0, 0.0), CFG)) < 1e-15

    def test_weight_bound(self):
        with pytest.raises(ValueError):
            nm.eval_E_fourier(0, nm.TorusPoint(0.1, 0.2), CFG)

    def test_weight_two_lattice_rejected(self):
        with pytest.raises(ValueError):
            nm.eval_E_fourier(2, nm.TorusPoint(0.0, 1.0), CFG)

    def test_agrees_with_symbolic_expansion(self):
        # k=2, x=(0, 1/2): the symbolic level-2 series evaluated at tau = i
        cfg = nm.NumericConfig(tau=1j)
        val = nm.eval_E_fourier(2, nm.TorusPoint(0.0, 0.5), cfg)
        f = eisenstein_qexp(EisensteinIndex(2, 2, 0, 1), 80)
        ref = f.eval_numeric(1j)
        assert abs(val.imag) < 1e-10  # real value at a 2-torsion point on the imaginary axis
        assert abs(val - ref) < 1e-10

    @pytest.mark.parametrize("k,a", [(1, (1, 2)), (2, (0, 1)), (3, (2, 1)),
                                     (5, (1, 0))])
    def test_agrees_with_symbolic_at_torsion(self, k, a):
        N = 3
        f = eisenstein_qexp(EisensteinIndex(k, N, a[0], a[1]), 3 * 80)
        p = nm.TorusPoint(a[0] / N, a[1] / N)
        assert abs(f.eval_numeric(TAU) - nm.eval_E_fourier(k, p, CFG)) < 1e-9

    def test_parity(self):
        rng = random.Random(1)
        for k in range(1, 7):
            p = nm.TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            lhs = nm.eval_E_fourier(k, -p, CFG)
            rhs = (-1) ** k * nm.eval_E_fourier(k, p, CFG)
            assert abs(lhs - rhs) < 1e-10


def _bern_poly_reference(k, t):
    return sum(math.comb(k, j) * float(bernoulli_number(j)) * t ** (k - j)
               for j in range(k + 1))


def fourier_reference(k, p, cfg):
    """The Fourier sum one term (mu, nu) at a time, mu*nu <= cutoff: the
    reference for the closed-form geometric sums of eval_E_fourier_upto."""
    if k < 1:
        raise ValueError("weight must be >= 1")
    tau = complex(cfg.tau)
    x1, x2 = p.x1, p.x2
    if k == 2 and p.is_lattice():
        raise ValueError("weight-2 series undefined at lattice points")

    if k == 1:
        if nm._is_int(x1) and nm._is_int(x2):
            a0 = 0j
        elif nm._is_int(x1):
            a0 = -0.5 * (1 + nm._e(x2)) / (1 - nm._e(x2))
        else:
            a0 = complex(nm._frac(x1) - 0.5)
    else:
        a0 = complex(_bern_poly_reference(k, nm._frac(x1)) / k)

    M = cfg.fourier_terms
    acc = a0
    for nu0, char_sign, sign in ((nm._frac(x1), 1, -1.0),
                                 (nm._frac(-x1), -1, float((-1) ** (k + 1)))):
        nu = nu0 if nu0 > 0 else 1.0
        while nu <= M:
            ratio = cmath.exp(nm.TWO_PI_I * (char_sign * x2 + tau * nu))
            coeff = sign * nu ** (k - 1)
            term = 1.0 + 0j
            mu_max = int(M / nu)
            for _ in range(mu_max):
                term *= ratio
                acc += coeff * term
            nu += 1.0
    return acc


# integer x1, integer x2, negative coordinates, x1 near an integer, and
# seeded generic points; none is 2-torsion, where odd weights vanish
_rng = random.Random(13)
REFERENCE_POINTS = ((0.0, 0.3), (2.0, -0.71), (0.37, 1.0), (0.37, 0.0),
                    (-0.42, -1.73), (1e-3, 0.61), (-1e-3, 2.0)) + tuple(
    (_rng.uniform(-2, 2), _rng.uniform(-2, 2)) for _ in range(4))


class TestFourierClosedForm:
    @pytest.mark.parametrize("x", REFERENCE_POINTS)
    def test_closed_form_matches_term_by_term_reference(self, x):
        p = nm.TorusPoint(*x)
        values = nm.eval_E_fourier_upto(8, p, CFG)
        for k in range(1, 9):
            ref = fourier_reference(k, p, CFG)
            assert abs(values[k - 1] - ref) <= 1e-12 * abs(ref), (k, ref)

    def test_each_weight_is_an_entry_of_all_weights(self):
        for x in REFERENCE_POINTS + ((0.0, 0.0), (1.0, -2.0)):
            p = nm.TorusPoint(*x)
            values = nm.eval_E_fourier_upto(8, p, CFG)
            assert len(values) == 8
            for k in range(1, 9):
                if not (k == 2 and p.is_lattice()):
                    assert values[k - 1] == nm.eval_E_fourier(k, p, CFG)

    @pytest.mark.parametrize("k", [3, 4])
    def test_x1_near_an_integer(self, k):
        # the term-by-term loop ran floor(80 / 1e-8) terms at the first nu
        p = nm.TorusPoint(1e-8, 0.3)
        lat = nm.eval_E_lattice(k, p.to_z(TAU), TAU, CFG)
        assert abs(nm.eval_E_fourier(k, p, CFG) - lat) < 1e-8

    def test_weight_beyond_float_range_rejected(self):
        # 80**199 and 81**200 overflow a float; 80**149 and 81**150 do not
        p = nm.TorusPoint(0.1, 0.2)
        for call in (lambda: nm.eval_E_fourier(200, p, CFG),
                     lambda: nm.eval_E_fourier_upto(200, p, CFG),
                     lambda: nm.fourier_tail_estimate(200, CFG),
                     lambda: nm.check_relation_numeric(0, 198, p, p, CFG)):
            with pytest.raises(ValueError, match="float range"):
                call()
        assert math.isfinite(nm.fourier_tail_estimate(150, CFG))

    @pytest.mark.parametrize("x", [(0.0, 0.0), (1.0, -2.0), (-3.0, 0.0)])
    def test_lattice_points(self, x):
        p = nm.TorusPoint(*x)
        values = nm.eval_E_fourier_upto(6, p, CFG)
        assert values[1] is None
        assert all(isinstance(values[k - 1], complex) for k in (1, 3, 4, 5, 6))
        for k in (1, 3, 4):
            assert cmath.isfinite(nm.eval_E_fourier(k, p, CFG))
        with pytest.raises(ValueError):
            nm.eval_E_fourier(2, p, CFG)

    def test_bracket_needing_weight_two_at_lattice_point(self):
        # P = X puts E^(2) at u; P = Y puts E^(1) at u and E^(2) at v
        origin, v = nm.TorusPoint(0.0, 0.0), nm.TorusPoint(0.31, 0.47)
        with pytest.raises(ValueError):
            eval_bracket_numeric(poly_P(1, 0), origin, v, CFG)
        assert cmath.isfinite(eval_bracket_numeric(poly_P(0, 1), origin, v, CFG))


def full_grid_weights(k, L, tau):
    """W_k with every one of the (2L+1)^2 entries computed, none mirrored:
    the reference for the half-lattice build of _lattice_weights."""
    idx = np.arange(-L, L + 1)
    lam = idx[:, None] * tau + idx[None, :]
    lam[L, L] = 1.0
    R = nm.lattice_window_radius(L, tau)
    t = np.clip((R - np.abs(lam)) / (R - 0.5 * R), 0.0, 1.0)
    w = t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    W = w / lam ** k
    W[L, L] = 0.0
    return W


def lattice_reference(k, z, tau, L):
    """The windowed lattice sum with one term per lattice point, character
    included: the unfactored reference for the separable eval_E_lattice."""
    p = nm.TorusPoint.from_z(z, tau)
    idx = np.arange(-L, L + 1)
    m, n = np.meshgrid(idx, idx, indexing="ij")
    lam = m * tau + n
    nonzero = (m != 0) | (n != 0)
    r = np.abs(lam)
    R = nm.lattice_window_radius(L, tau)
    t = np.clip((R - r) / (R - 0.5 * R), 0.0, 1.0)
    w = t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    char = np.exp(2j * math.pi * (m * p.x2 - n * p.x1))
    lam_safe = np.where(nonzero, lam, 1.0)
    terms = np.where(nonzero, w * char / lam_safe ** k, 0.0)
    pref = -math.factorial(k - 1) / (-2j * math.pi) ** k
    return complex(pref * terms.sum())


# |tau| > 1, |tau| < 1 (a different window radius), and |tau| = 1
SEPARABLE_TAUS = (0.3 + 1.1j, 0.1 + 0.8j, 1j)


class TestLatticeEvaluator:
    @pytest.mark.parametrize("L", [20, 50])
    @pytest.mark.parametrize("tau", SEPARABLE_TAUS)
    def test_separable_form_matches_double_sum(self, L, tau):
        rng = random.Random(L)
        cfg = nm.NumericConfig(tau=tau, lattice_cutoff=L)
        for k in range(3, 7):
            for _ in range(3):
                z = nm.TorusPoint(rng.uniform(-1, 1), rng.uniform(-1, 1)).to_z(tau)
                ref = lattice_reference(k, z, tau, L)
                assert abs(nm.eval_E_lattice(k, z, tau, cfg) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("L", [20, 50])
    @pytest.mark.parametrize("tau", SEPARABLE_TAUS + (-0.4 + 0.7j,))
    def test_half_lattice_weights_equal_full_grid(self, L, tau):
        # the rows m < 0 mirrored from m >= 0 equal the computed ones, entry
        # for entry, at odd and even weights and a tau with Re tau < 0
        for k in range(3, 9):
            assert np.array_equal(nm._lattice_weights(k, L, tau),
                                  full_grid_weights(k, L, tau))

    def test_warm_call_allocates_no_grid(self):
        # the contraction is a matrix-vector product: a warm call at L = 200
        # allocates vectors of 2L + 1 entries, not a (2L+1)^2 temporary (2.6 MB)
        cfg = nm.NumericConfig(tau=TAU, lattice_cutoff=200)
        z = 0.37 + 0.21j
        nm.eval_E_lattice(4, z, TAU, cfg)
        tracemalloc.start()
        try:
            nm.eval_E_lattice(4, z, TAU, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2 ** 20, peak

    def test_weights_depend_on_tau(self):
        # same (k, L), two taus in a row: a grid cached on (k, L) alone fails
        nm._lattice_weights.cache_clear()
        z = 0.37 + 0.21j
        for tau in (0.3 + 1.1j, 0.1 + 0.8j):
            cfg = nm.NumericConfig(tau=tau, lattice_cutoff=20)
            ref = lattice_reference(4, z, tau, 20)
            assert abs(nm.eval_E_lattice(4, z, tau, cfg) - ref) <= 1e-13 * abs(ref)

    def test_cached_weights_are_read_only_and_bounded(self):
        cfg = nm.NumericConfig(tau=TAU, lattice_cutoff=20)
        for k in range(3, 7):
            nm.eval_E_lattice(k, 0.37 + 0.21j, TAU, cfg)
            W = nm._lattice_weights(k, 20, TAU)
            with pytest.raises(ValueError):
                W[0, 0] = 1.0
        info = nm._lattice_weights.cache_info()
        assert info.maxsize == 2 and info.currsize <= info.maxsize
    def test_weight_bound(self):
        with pytest.raises(ValueError):
            nm.eval_E_lattice(2, 0.3 + 0.4j, TAU, CFG)

    def test_parity(self):
        z = 0.21 * TAU + 0.43
        lhs = nm.eval_E_lattice(3, -z, TAU, CFG)
        rhs = -nm.eval_E_lattice(3, z, TAU, CFG)
        assert abs(lhs - rhs) < 1e-9

    def test_lattice_periodicity(self):
        z = 0.17 * TAU + 0.39
        a = nm.eval_E_lattice(3, z, TAU, CFG)
        b = nm.eval_E_lattice(3, z + TAU, TAU, CFG)
        c = nm.eval_E_lattice(3, z + 1, TAU, CFG)
        assert abs(a - b) < 1e-9 and abs(a - c) < 1e-9

    def test_two_torsion_cross_oracle(self):
        tau = 1j
        cfg = nm.NumericConfig(tau=tau)
        z = (tau + 1) / 2
        lat = nm.eval_E_lattice(4, z, tau, cfg)
        fou = nm.eval_E_fourier(4, nm.TorusPoint.from_z(z, tau), cfg)
        assert abs(lat - fou) < 1e-9

    def test_generic_cross_oracle(self):
        p = nm.TorusPoint(0.123, 0.456)
        lat = nm.eval_E_lattice(3, p.to_z(TAU), TAU, CFG)
        fou = nm.eval_E_fourier(3, p, CFG)
        assert abs(lat - fou) < 1e-9

    def test_tail_estimates_positive(self):
        assert nm.fourier_tail_estimate(3, CFG) > 0
        # it must be far below the cross-check tolerance
        assert nm.fourier_tail_estimate(6, CFG) < 1e-8


class TestRelationNumeric:
    U = nm.TorusPoint(0.123, 0.456)
    V = nm.TorusPoint(0.271, 0.618)

    def test_weight_two(self):
        assert nm.check_relation_numeric(0, 0, self.U, self.V, CFG) < 1e-8

    def test_weight_three(self):
        assert nm.check_relation_numeric(1, 0, self.U, self.V, CFG) < 1e-8

    def test_irrational_points(self):
        u = nm.TorusPoint(1 / math.sqrt(5), 1 / math.sqrt(7))
        v = nm.TorusPoint(1 / math.sqrt(3), 1 / math.sqrt(11))
        for k1, k2 in [(0, 0), (2, 1), (3, 3)]:
            assert nm.check_relation_numeric(k1, k2, u, v, CFG) < 1e-8

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="indices must be >= 0"):
            nm.check_relation_numeric(-1, 0, self.U, self.V, CFG)

    def test_lattice_point_rejected(self):
        with pytest.raises(ValueError):
            nm.check_relation_numeric(0, 0, nm.TorusPoint(0.0, 0.0), self.V, CFG)
        with pytest.raises(ValueError):
            # u + v on the lattice
            nm.check_relation_numeric(0, 0, nm.TorusPoint(0.5, 0.5),
                                      nm.TorusPoint(0.5, 0.5), CFG)

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, 1j, 0.1 + 0.6j])
    def test_matches_the_relation_written_by_hand(self, tau):
        # an independent statement of the relation's shape: P[u, v] +
        # Q[v, w] + R[w, u] against alpha E_u + beta E_v + gamma E_w at
        # w = -(u+v), summed as abs(lhs - rhs); the check sums the plan,
        # and must return the identical float
        def bracket(P, Ea, Eb):
            acc = 0j
            for i, c in enumerate(P.coeffs):
                if c:
                    acc += float(c) * (Ea[i] * Eb[P.degree - i])
            return acc

        cfg = nm.NumericConfig(tau=tau)
        rng = random.Random(24)
        for k in range(2, 11):
            for k1 in range(k - 1):
                k2 = k - 2 - k1
                for _ in range(2):
                    u, v = (nm.TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
                            for _ in range(2))
                    Eu, Ev, Ew = (nm.eval_E_fourier_upto(k, p, cfg) for p in (u, v, -(u + v)))
                    lhs = (bracket(poly_P(k1, k2), Eu, Ev) + bracket(poly_Q(k1, k2), Ev, Ew)
                           + bracket(poly_R(k1, k2), Ew, Eu))
                    rhs = (float(coeff_alpha(k1, k2)) * Eu[k - 1]
                           + float(coeff_beta(k1, k2)) * Ev[k - 1]
                           + float(coeff_gamma(k1, k2)) * Ew[k - 1])
                    assert nm.check_relation_numeric(k1, k2, u, v, cfg) == abs(lhs - rhs)


STEP_ERROR = "step too large relative to lattice distance"


class TestDifferentialChecks:
    P_PT = nm.TorusPoint(0.313, 0.457)

    def test_weight_one_unit_target(self):
        assert nm.check_diff_relation(1, self.P_PT, CFG) < 1e-5

    def test_weight_four(self):
        assert nm.check_diff_relation(4, self.P_PT, CFG) < 1e-5

    def test_halving_step_quarters_error(self):
        # central differences: O(h^2) truncation error
        e1 = nm.check_diff_relation(3, self.P_PT, CFG, h=2e-3)
        e2 = nm.check_diff_relation(3, self.P_PT, CFG, h=1e-3)
        assert 3.0 < e1 / e2 < 5.0

    def test_step_guard(self):
        near = nm.TorusPoint(1e-4, 1e-4)
        with pytest.raises(ValueError):
            nm.check_diff_relation(1, near, CFG, h=1e-4)

    def test_bracket_pure_y_power(self):
        # P = Y^2: dP/dX = 0 and P(0,1) = 1, so the u-derivative target
        # collapses to E^{(k-1)}_v
        P = HomPoly.monomial(0, 2)
        u, v = nm.TorusPoint(0.21, 0.34), nm.TorusPoint(0.45, 0.27)
        e_u, e_v = nm.check_diff_bracket(P, u, v, CFG)
        assert e_u < 1e-5 and e_v < 1e-5

    def test_bracket_monomial(self):
        P = poly_P(2, 1)
        u, v = nm.TorusPoint(0.19, 0.72), nm.TorusPoint(0.36, 0.55)
        e_u, e_v = nm.check_diff_bracket(P, u, v, CFG)
        assert e_u < 1e-5 and e_v < 1e-5

    def test_bracket_linearity(self):
        P = HomPoly(1, [1, 1])  # X + Y
        u, v = nm.TorusPoint(0.41, 0.13), nm.TorusPoint(0.66, 0.29)
        e_u, e_v = nm.check_diff_bracket(P, u, v, CFG)
        assert e_u < 1e-5 and e_v < 1e-5

    @pytest.mark.parametrize("P", [HomPoly.monomial(0, 1), HomPoly.monomial(1, 1)],
                             ids=["Y", "XY"])
    @pytest.mark.parametrize("bad", [(0.0, 0.0), (1e-5, 1e-5)], ids=["lattice", "near"])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_bracket_step_guard(self, P, bad, side, monkeypatch):
        # both steps are checked before any grid is evaluated: a check inside
        # each point's own stencil would, at v = 0 with P = Y, stop at the
        # undefined E^(2)_v while differentiating in u
        good, bad = nm.TorusPoint(0.31, 0.47), nm.TorusPoint(*bad)
        u, v = (bad, good) if side == "u" else (good, bad)

        def no_grid(*args):
            raise AssertionError("a grid was evaluated before the step checks")

        monkeypatch.setattr(nm, "eval_E_fourier_upto", no_grid)
        with pytest.raises(ValueError, match=STEP_ERROR):
            nm.check_diff_bracket(P, u, v, CFG)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=STEP_ERROR):
            nm.check_diff_bracket(P, u, v, CFG)

    def test_bracket_degree_zero(self):
        # P = 1: no monomial has a derivative, so each target is E^(1) alone
        u, v = nm.TorusPoint(0.23, 0.61), nm.TorusPoint(0.57, 0.18)
        e_u, e_v = nm.check_diff_bracket(poly_P(0, 0), u, v, CFG)
        assert e_u < 1e-5 and e_v < 1e-5


def reference_dbar(F, z0, tau, h):
    """-(tau - taubar) dF/dzbar by central differences, F a function of z."""
    dx = (F(z0 + h) - F(z0 - h)) / (2 * h)
    dy = (F(z0 + 1j * h) - F(z0 - 1j * h)) / (2 * h)
    return -(tau - tau.conjugate()) * ((dx + 1j * dy) / 2)


def reference_diff_relation(k, p, cfg, h):
    """check_diff_relation with every stencil point and target evaluated
    from scratch."""
    tau = complex(cfg.tau)
    lhs = reference_dbar(lambda z: nm.eval_E_fourier(k, nm.TorusPoint.from_z(z, tau), cfg),
                         p.to_z(tau), tau, h)
    target = 1.0 + 0j if k == 1 else (k - 1) * nm.eval_E_fourier(k - 1, p, cfg)
    return abs(lhs - target)


def eval_bracket_numeric(P, u, v, cfg):
    """P[u, v] with continuous parameters, via the Fourier evaluator."""
    return nm._bracket(_monomials(P), nm.eval_E_fourier_upto(P.degree + 1, u, cfg),
                       nm.eval_E_fourier_upto(P.degree + 1, v, cfg))


def reference_diff_bracket(P, u, v, cfg, h):
    """check_diff_bracket with every stencil point and target evaluated from
    scratch by eval_bracket_numeric and eval_E_fourier."""
    tau = complex(cfg.tau)
    k = P.degree + 2
    lhs_u = reference_dbar(
        lambda z: eval_bracket_numeric(P, nm.TorusPoint.from_z(z, tau), v, cfg),
        u.to_z(tau), tau, h)
    lhs_v = reference_dbar(
        lambda z: eval_bracket_numeric(P, u, nm.TorusPoint.from_z(z, tau), cfg),
        v.to_z(tau), tau, h)
    tgt_u = (eval_bracket_numeric(P.deriv_x(), u, v, cfg) if P.degree > 0 else 0j) \
        + float(P.eval(0, 1)) * nm.eval_E_fourier(k - 1, v, cfg)
    tgt_v = (eval_bracket_numeric(P.deriv_y(), u, v, cfg) if P.degree > 0 else 0j) \
        + float(P.eval(1, 0)) * nm.eval_E_fourier(k - 1, u, cfg)
    return abs(lhs_u - tgt_u), abs(lhs_v - tgt_v)


DIFF_POINTS = [(nm.TorusPoint(0.313, 0.457), nm.TorusPoint(0.66, 0.29)),
               (nm.TorusPoint(0.19, 0.72), nm.TorusPoint(0.36, 0.55)),
               (nm.TorusPoint(0.875, 0.06), nm.TorusPoint(0.1, 0.93))]
DIFF_POLYS = {"1": poly_P(0, 0), "X": poly_P(1, 0), "X+Y": HomPoly(1, [1, 1]),
              "X^2Y": poly_P(2, 1),
              "mixed3": HomPoly(3, [Fraction(3, 2), 0, -2, Fraction(1, 3)])}


class TestDifferentialChecksAgainstReference:
    """The shared stencil and the once-evaluated grids change no value."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("h", [1e-4, 1e-3])
    def test_relation_equals_reference(self, k, h):
        for p, _ in DIFF_POINTS:
            ref = reference_diff_relation(k, p, CFG, h)
            assert nm.check_diff_relation(k, p, CFG, h) == ref

    @pytest.mark.parametrize("name", list(DIFF_POLYS))
    def test_bracket_equals_reference(self, name):
        P = DIFF_POLYS[name]
        for u, v in DIFF_POINTS:
            ref = reference_diff_bracket(P, u, v, CFG, 1e-4)
            assert nm.check_diff_bracket(P, u, v, CFG) == ref

    @pytest.mark.parametrize("name", list(DIFF_POLYS))
    def test_bracket_evaluates_ten_grids(self, name, monkeypatch):
        # one grid at u and one at v, then four stencil points at each
        calls = []
        upto = nm.eval_E_fourier_upto

        def counted(k_max, p, cfg):
            calls.append(k_max)
            return upto(k_max, p, cfg)

        monkeypatch.setattr(nm, "eval_E_fourier_upto", counted)
        P = DIFF_POLYS[name]
        u, v = DIFF_POINTS[0]
        nm.check_diff_bracket(P, u, v, CFG)
        assert calls == [P.degree + 1] * 10


class TestModularity:
    def test_identity_matrix(self):
        x = nm.TorusPoint(0.2, 0.7)
        assert nm.check_modularity(3, x, ((1, 0), (0, 1)), CFG) < 1e-12

    def test_translation(self):
        cfg = nm.NumericConfig(tau=1j)
        x = nm.TorusPoint(1 / 3, 0.0)
        assert nm.check_modularity(3, x, ((1, 1), (0, 1)), cfg) < 1e-8

    def test_inversion(self):
        cfg = nm.NumericConfig(tau=2j)
        x = nm.TorusPoint(0.2, 0.4)
        assert nm.check_modularity(4, x, ((0, -1), (1, 0)), cfg) < 1e-6

    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            nm.check_modularity(3, nm.TorusPoint(0.2, 0.4), ((2, 0), (0, 1)), CFG)

    @pytest.mark.parametrize("k", [3, 4])
    def test_tail_estimate_bounds_a_truncated_check(self, k):
        # at 5 Fourier terms truncation dominates the S check's residual;
        # the left side is a sum at S tau (Im 0.85 against Im tau = 1.1),
        # whose tail the estimate at tau alone understates
        cfg = nm.NumericConfig(tau=complex(0.3, 1.1), fourier_terms=5)
        S = ((0, -1), (1, 0))
        res = nm.check_modularity(k, nm.TorusPoint(1 / 3, 0.0), S, cfg)
        assert nm.fourier_tail_estimate(k, cfg) < res <= nm.modularity_tail_estimate(k, S, cfg)

    def test_image_too_close_to_the_axis_names_tau_and_gamma(self):
        cfg = nm.NumericConfig(tau=complex(1e8, 1e-3))
        S = ((0, -1), (1, 0))
        for run in (lambda: nm.check_modularity(3, nm.TorusPoint(0.2, 0.4), S, cfg),
                    lambda: nm.modularity_tail_estimate(3, S, cfg)):
            with pytest.raises(ValueError, match=r"the image of tau \(100000000\+0\.001j\) "
                                                 r"under gamma \(\(0, -1\), \(1, 0\)\)"):
                run()

    def test_automorphy_factor_overflow_names_weight_and_tau(self):
        # |tau|^150 = 1e450 at tau = 1000 + i: out of the float range, in
        # the complex power of the check and the float power of its tail
        cfg = nm.NumericConfig(tau=complex(1e3, 1))
        S = ((0, -1), (1, 0))
        for run in (lambda: nm.check_modularity(150, nm.TorusPoint(1 / 3, 0.0), S, cfg),
                    lambda: nm.modularity_tail_estimate(150, S, cfg)):
            with pytest.raises(ValueError, match=r"weight 150 leaves the float range "
                                                 r"at tau \(1000\+1j\)"):
                run()


class TestAsymptotics:
    def test_g2_constant_term(self):
        # the q -> 0 limit of the series is its constant term -1/24
        assert abs(nm.eval_G2(40j) - (-1.0 / 24.0)) < 1e-15

    def test_weight_one_limit(self):
        rep = nm.check_asymptotics(1, CFG)
        assert rep["limit_error"] < 1e-6
        assert rep["real_ray_error"] < 1e-6
        assert rep["slope_bound"] < 10.0

    def test_weight_two_limit(self):
        rep = nm.check_asymptotics(2, CFG._replace(tau=1j))
        assert rep["limit_error"] < 1e-6
        # at tau = i the limit -2 G_2(i) equals the real number 1/(4 pi)
        target = complex(rep["target"][0], rep["target"][1])
        assert abs(target - 1.0 / (4.0 * math.pi)) < 1e-10

    def test_weight_guard(self):
        with pytest.raises(ValueError):
            nm.check_asymptotics(3, CFG)


class TestReports:
    def test_make_report_schema(self):
        r = nm.make_report("relation", {"split": [0, 0]}, 1e-12, 1e-20, 1e-8)
        assert r == {"check": "relation", "params": {"split": [0, 0]},
                     "residual": 1e-12, "tail_estimate": 1e-20, "pass": True}

    def test_failing_report(self):
        assert nm.make_report("relation", {}, 1e-3, 0.0, 1e-8)["pass"] is False
