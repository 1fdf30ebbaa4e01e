import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from eiskron import relations
from eiskron.cli import main
from eiskron.cyclotomic import CycNum, zeta_pow
from eiskron.eisenstein import (EisensteinIndex, InvalidIndexError,
                                _bernoulli_constant, _constant_int, bernoulli_number,
                                bernoulli_poly_eval, bg_tilde_s, constant_term,
                                eisenstein_int_form, eisenstein_qexp)
from eiskron.qseries import QExpansion, act_int_form


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Independent oracle: Akiyama-Tanigawa algorithm (yields B_1 = +1/2)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return -a[0] if n == 1 else a[0]


def sigma(r: int, n: int) -> int:
    return sum(d ** r for d in range(1, n + 1) if n % d == 0)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(4) == Fraction(-1, 30)

    def test_odd_vanish(self):
        for m in (3, 5, 7, 9, 11):
            assert bernoulli_number(m) == 0

    @pytest.mark.parametrize("m", range(0, 21))
    def test_against_akiyama_tanigawa(self, m):
        assert bernoulli_number(m) == bernoulli_akiyama_tanigawa(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    @pytest.mark.parametrize("order", [(150, 60), (60, 150)])
    def test_table_extends_in_either_order(self, order, monkeypatch):
        from eiskron import eisenstein
        monkeypatch.setattr(eisenstein, "_BERNOULLI", [Fraction(1)])
        for m in order:
            assert bernoulli_number(m) == bernoulli_akiyama_tanigawa(m)
            assert bernoulli_poly_eval(m, 0) == bernoulli_number(m)

    def test_one_index_at_a_time_is_quadratic(self):
        # B_0..B_K asked one at a time, in a fresh process: each B_n is
        # computed once, from n recurrence terms, so C(n+1, j) is called
        # K(K+1)/2 times, not the O(K^3) of recomputing every prefix
        from eiskron import eisenstein
        code = """
from eiskron import eisenstein
calls, comb = [0], eisenstein.comb
def counting(n, k):
    calls[0] += 1
    return comb(n, k)
eisenstein.comb = counting
for m in range(61):
    eisenstein.bernoulli_number(m)
print(calls[0])
"""
        src = os.path.dirname(os.path.dirname(eisenstein.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert int(out) == 60 * 61 // 2


class TestBernoulliPoly:
    def test_b2(self):
        # B_2(t) = t^2 - t + 1/6
        assert bernoulli_poly_eval(2, 0) == Fraction(1, 6)
        assert bernoulli_poly_eval(2, Fraction(1, 2)) == Fraction(-1, 12)

    def test_b1_symmetry(self):
        assert bernoulli_poly_eval(1, Fraction(1, 2)) == 0

    def test_value_at_zero_is_bernoulli_number(self):
        for m in range(12):
            assert bernoulli_poly_eval(m, 0) == bernoulli_number(m)

    def test_difference_equation(self):
        # B_m(t+1) - B_m(t) = m t^{m-1}
        for m in range(1, 10):
            for t in (Fraction(1, 3), Fraction(-2, 7), Fraction(5)):
                assert (bernoulli_poly_eval(m, t + 1) - bernoulli_poly_eval(m, t)
                        == m * t ** (m - 1))


class TestIndex:
    def test_canonicalization(self):
        idx = EisensteinIndex(3, 4, -1, 7)
        assert (idx.a1, idx.a2) == (3, 3)

    def test_equal_points_mod_N_are_one_index(self):
        a, b = EisensteinIndex(3, 4, 5, -1), EisensteinIndex(3, 4, 1, 3)
        assert a == b and hash(a) == hash(b)
        assert a != EisensteinIndex(3, 4, 1, 2) and a != (3, 4, 1, 3)

    def test_weight_two_zero_excluded(self):
        with pytest.raises(InvalidIndexError):
            EisensteinIndex(2, 4, 0, 0)
        with pytest.raises(InvalidIndexError):
            EisensteinIndex(2, 4, 4, 8)  # reduces to (0, 0)

    def test_weight_two_nonzero_allowed(self):
        EisensteinIndex(2, 4, 0, 1)

    def test_bad_weight_or_level(self):
        with pytest.raises(ValueError):
            EisensteinIndex(0, 3, 1, 0)
        with pytest.raises(ValueError):
            EisensteinIndex(3, 0, 1, 0)


class TestConstantTerm:
    def test_level_one_weight_four(self):
        c = constant_term(EisensteinIndex(4, 1, 0, 0))
        assert c.coeffs == (Fraction(-1, 120),)

    def test_weight_one_pure_character(self):
        # -(1/2)(1+i)/(1-i) = -i/2
        c = constant_term(EisensteinIndex(1, 4, 0, 1))
        assert c == zeta_pow(4, 1) * Fraction(-1, 2)
        assert abs(c.embed() - (-0.5j)) < 1e-12

    def test_weight_one_generic(self):
        c = constant_term(EisensteinIndex(1, 5, 2, 3))
        assert c == CycNum.from_rat(5, Fraction(-1, 10))

    def test_weight_one_zero_parameter(self):
        assert constant_term(EisensteinIndex(1, 2, 0, 0)).is_zero()

    @pytest.mark.parametrize("N,a2", [(3, 1), (5, 2), (8, 5)])
    def test_pure_character_against_complex_arithmetic(self, N, a2):
        import cmath
        c = constant_term(EisensteinIndex(1, N, 0, a2))
        z = cmath.exp(2j * cmath.pi * a2 / N)
        assert abs(c.embed() - (-0.5 * (1 + z) / (1 - z))) < 1e-12

    @pytest.mark.parametrize("N,a2", [(4, 1), (3, 1), (5, 2), (6, 5), (8, 3)])
    def test_pure_character_closed_form(self, N, a2):
        # c = -(1/2)(1 + w)/(1 - w) for w = zeta_N^{a2}, as a field equality
        c = constant_term(EisensteinIndex(1, N, 0, a2))
        w = zeta_pow(N, a2)
        assert c * (1 - w) == (1 + w) * Fraction(-1, 2)

    def test_pure_character_is_exactly_equivariant(self):
        # B acts on the weight-1, a1 = 0 constant term as on the series:
        # g applied to the vector at (0, a2) is the vector built at g (0, a2)
        for N in range(1, 17):
            for a2 in range(N):
                den, vec = _constant_int(EisensteinIndex(1, N, 0, a2))
                for g in relations._symmetries(N):
                    x = relations._act(g, (0, a2), N)
                    assert _constant_int(EisensteinIndex(1, N, *x)) == \
                        (den, tuple(act_int_form(N, g, 1, vec)))

    def test_pure_character_vanishes_at_two_torsion(self):
        for N in range(2, 17, 2):
            assert _constant_int(EisensteinIndex(1, N, 0, N // 2))[1] == (0,) * N

    def test_pure_character_two_torsion_expands_to_zero(self, capsys):
        # the zero series prints as zero, not as an unreduced zero of Q(zeta_4)
        assert main(["expand", "--level", "4", "--weight", "1", "--a", "0,2",
                     "--order", "1"]) == 0
        assert capsys.readouterr().out.strip() == "O(q^{1/4})"


class TestQExpansion:
    def test_level_one_weight_four_divisor_sums(self):
        f = eisenstein_qexp(EisensteinIndex(4, 1, 0, 0), 8)
        for n in range(1, 8):
            assert f.coeffs[n] == CycNum.from_rat(1, -2 * sigma(3, n))

    def test_level_one_even_weights_divisor_sums(self):
        for k in (6, 8):
            f = eisenstein_qexp(EisensteinIndex(k, 1, 0, 0), 12)
            for n in range(1, 12):
                assert f.coeffs[n] == CycNum.from_rat(1, -2 * sigma(k - 1, n))

    def test_half_integral_series_vanishes(self):
        # weight 1, a = (1, 0) at level 2: the two branches cancel termwise
        # and the constant term is {1/2} - 1/2 = 0, so the series is 0
        # (consistent with parity: -a = a mod 2 forces E = -E)
        f = eisenstein_qexp(EisensteinIndex(1, 2, 1, 0), 20)
        assert f.is_zero()

    def test_fractional_exponents_against_double_sum(self):
        # independent double-sum oracle for the integer builder: for mu >= 1,
        # -zeta^{mu a2} nu^{k-1} q^{mu nu} over nu > 0 in a1/N + Z, and the
        # mirrored (-1)^{k+1} zeta^{-mu a2} nu^{k-1} q^{mu nu} over nu > 0 in
        # -a1/N + Z; both branches count when they meet (a1 = 0 or N/2).  At
        # order N^2 + N + 1 the zeta index mu*a2 mod N wraps many times.
        sweeps = [(N, range(1, 9), 30) for N in range(1, 7)]
        sweeps += [(N, range(1, 5), N * N + N + 1) for N in (7, 8, 9, 12)]
        for N, weights, T in sweeps:
            for k in weights:
                for a1 in range(N):
                    for a2 in range(N):
                        if (k, a1, a2) == (2, 0, 0):
                            continue
                        idx = EisensteinIndex(k, N, a1, a2)
                        expect = {0: list(constant_term(idx).coeffs)}
                        for m in range(1, T):
                            nu = Fraction(m, N)
                            for branch, sign in ((1, -1), (-1, (-1) ** (k + 1))):
                                if (nu - Fraction(branch * a1, N)).denominator != 1:
                                    continue
                                for mu in range(1, (T - 1) // m + 1):
                                    vec = expect.setdefault(mu * m, [Fraction(0)] * N)
                                    vec[branch * mu * a2 % N] += sign * nu ** (k - 1)
                        den, flat = eisenstein_int_form(idx, T)
                        assert len(flat) == N * T and math.gcd(den, *flat) == 1
                        got = {n: [Fraction(x, den) for x in flat[n * N:(n + 1) * N]]
                               for n in range(T)}
                        assert {n: v for n, v in got.items() if any(v)} == \
                            {n: v for n, v in expect.items() if any(v)}, idx

    def test_character_coefficients(self):
        # independent double-sum oracle for k=2, N=3, a=(0, 1): integer nu,
        # characters zeta^{mu} and zeta^{-mu}, both branches carrying sign -1
        import collections
        f = eisenstein_qexp(EisensteinIndex(2, 3, 0, 1), 10)
        acc = collections.defaultdict(lambda: [Fraction(0)] * 3)
        for nu in range(1, 11):
            for mu in range(1, 11):
                n = 3 * mu * nu  # exponent numerator of q^{mu nu}
                if n < 10:
                    acc[n][mu % 3] += -Fraction(nu)
                    acc[n][(-mu) % 3] += -Fraction(nu)  # (-1)^{k+1} = -1 at k=2
        for n in range(1, 10):
            expect = CycNum(3, acc[n]) if n in acc else CycNum.zero(3)
            assert f.coeffs.get(n, CycNum.zero(3)) == expect

    def test_parity(self):
        for (k, N, a) in [(1, 5, (2, 3)), (2, 3, (1, 0)), (3, 4, (1, 2)),
                          (4, 2, (0, 1)), (5, 6, (5, 1))]:
            f = eisenstein_qexp(EisensteinIndex(k, N, a[0], a[1]), 30)
            g = eisenstein_qexp(EisensteinIndex(k, N, -a[0], -a[1]), 30)
            assert g.field_equals(f.scale(Fraction((-1) ** k)))

    def test_translation_modularity(self):
        # E_x(tau+1) = E_{(x1, x1+x2)}(tau), as a twist identity
        for (k, N, a) in [(2, 3, (1, 1)), (3, 4, (2, 3)), (1, 5, (1, 0))]:
            f = eisenstein_qexp(EisensteinIndex(k, N, a[0], a[1]), 30)
            g = eisenstein_qexp(EisensteinIndex(k, N, a[0], a[0] + a[1]), 30)
            assert f.twist(1).field_equals(g)

    def test_level_lift_invariance(self):
        # the same function expanded at level N and at level M*N agrees
        k, N, M, T = 3, 3, 2, 12
        f = eisenstein_qexp(EisensteinIndex(k, N, 1, 2), T)
        g = eisenstein_qexp(EisensteinIndex(k, M * N, M, 2 * M), M * T)

        def lift(c: CycNum) -> CycNum:
            vec = [Fraction(0)] * (M * N)
            for j, v in enumerate(c.coeffs):
                vec[M * j] += v
            return CycNum(M * N, vec)

        lifted = QExpansion(M * N, M * T,
                            {M * n: lift(c) for n, c in f.coeffs.items()})
        assert lifted.field_equals(g)

    @pytest.mark.parametrize("k,N,a1,a2,T", [(1, 1, 0, 0, 5), (3, 4, 1, 0, 20),
                                             (1, 6, 0, 2, 13), (4, 5, 2, 3, 30)])
    def test_qexp_holds_the_builder_list(self, k, N, a1, a2, T):
        # eisenstein_qexp holds the builder's den and flat list, uncut
        idx = EisensteinIndex(k, N, a1, a2)
        den, flat = eisenstein_int_form(idx, T)
        f = eisenstein_qexp(idx, T)
        assert f.den == den and f.data == tuple(flat)

    def test_order_validation(self):
        for build in (eisenstein_qexp, eisenstein_int_form):
            with pytest.raises(ValueError):
                build(EisensteinIndex(3, 2, 1, 0), 0)


class TestIntegerBuilder:
    def test_constant_cache(self):
        # the constant term B_k(a1/N)/k, cached as tuples
        for k in range(1, 9):
            for N in range(1, 13):
                for a1 in range(N):
                    got = _bernoulli_constant(k, N, a1)
                    den, vec = got
                    assert type(got) is tuple and type(vec) is tuple
                    assert len(vec) == N and not any(vec[1:])
                    assert Fraction(vec[0], den) == bernoulli_poly_eval(k, Fraction(a1, N)) / k
                    assert _bernoulli_constant(k, N, a1) is got

    def test_orbit_evaluates_bernoulli_at_most_twice(self, monkeypatch):
        # a B-orbit maps a1 only to +-a1: one orbit, one or two evaluations
        from eiskron import eisenstein, relations
        calls = []

        def counted(m, t):
            calls.append((m, t))
            return bernoulli_poly_eval(m, t)

        monkeypatch.setattr(eisenstein, "bernoulli_poly_eval", counted)
        _bernoulli_constant.cache_clear()
        relations._orbit_series.cache_clear()
        try:
            orbit = relations._orbit_series(4, 12, (1, 0), 20)
            assert len(orbit) == 24
            assert sorted(calls) == [(4, Fraction(1, 12)), (4, Fraction(11, 12))]
        finally:
            _bernoulli_constant.cache_clear()
            relations._orbit_series.cache_clear()

    def test_scan_builds_no_fraction_series(self, monkeypatch):
        # the scan builds its series in integers: neither the cached
        # QExpansion builder nor the Fraction-to-integer conversion runs
        from eiskron import eisenstein, qseries, relations

        def refuse(*args, **kwargs):
            raise AssertionError("Fraction series built on the scan path")

        monkeypatch.setattr(eisenstein, "_qexp_cached", refuse)
        for module in (eisenstein, qseries, relations):
            if hasattr(module, "to_int_form"):
                monkeypatch.setattr(module, "to_int_form", refuse)
        for cache in (relations._orbit_series, relations._product):
            cache.cache_clear()
        report = relations.run_scan(3, 3, 20)
        assert report["instances"] > 0 and report["failed"] == 0

    def test_identity_path_builds_no_cycnum(self, monkeypatch):
        # the criterion-3 parity/twist check, bg_tilde_s and eval_numeric
        # run on integer vectors: no CycNum is built, neither while the
        # series are built (the constant term included) nor after
        from eiskron import eisenstein, qseries

        class Refused(CycNum):
            def __init__(self, *args):
                raise AssertionError("CycNum built on the identity path")

        def refuse(self, *args):
            raise AssertionError("CycNum built on the identity path")

        monkeypatch.setattr(qseries, "CycNum", Refused)
        monkeypatch.setattr(CycNum, "__init__", refuse)
        eisenstein._qexp_cached.cache_clear()
        order, indices = 20, [(k, N, a1, a2) for N in range(1, 5) for k in range(1, 6)
                              for a1 in range(N) for a2 in range(N)
                              if (k, a1, a2) != (2, 0, 0)]
        for k, N, a1, a2 in indices:
            for b in ((a1, a2), (-a1, -a2), (a1, a1 + a2)):
                eisenstein_qexp(EisensteinIndex(k, N, *b), order)
        eisenstein_qexp(EisensteinIndex(3, 3, 1, 0), 10)
        for k, N, a1, a2 in indices:
            f = eisenstein_qexp(EisensteinIndex(k, N, a1, a2), order)
            g = eisenstein_qexp(EisensteinIndex(k, N, -a1, -a2), order)
            h = eisenstein_qexp(EisensteinIndex(k, N, a1, a1 + a2), order)
            assert g.field_equals(f.scale(Fraction((-1) ** k)))
            assert f.twist(1).field_equals(h)
            assert abs(f.eval_numeric(0.3 + 1.1j)) < math.inf
        s = bg_tilde_s(3, 3, 1, 10)
        assert s.first_nonzero_exponent() == 0 and not s.is_zero()
        assert s.eval_numeric(1j) != 0


class TestBgTildeS:
    def test_weight_one_level_two_vanishes(self):
        assert bg_tilde_s(1, 2, 1, 10).is_zero()

    def test_integer_exponents(self):
        f = bg_tilde_s(3, 3, 1, 10)
        assert all(n % 3 == 0 for n in f.coeffs)

    def test_weight_three_constant(self):
        # -N^{k-1} B_k(a/N)/k = -9 * B_3(1/3)/3 = -9 * (1/27)/3 = -1/9
        f = bg_tilde_s(3, 3, 1, 10)
        assert f.coeffs[0] == CycNum.from_rat(3, Fraction(-1, 9))

    def test_matches_rescaled_series(self):
        k, N, a, T = 2, 4, 1, 8
        f = bg_tilde_s(k, N, a, T)
        g = eisenstein_qexp(EisensteinIndex(k, N, a, 0), T)
        assert f.field_equals(g.rescale_exponents(N).scale(-Fraction(N) ** (k - 1)))
