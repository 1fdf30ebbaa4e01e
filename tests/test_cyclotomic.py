import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, cyclotomic_poly, symbols

import eiskron
from eiskron import cyclotomic
from eiskron.cyclotomic import (CycNum, LevelMismatchError,
                                cyclotomic_polynomial, totient, zeta_pow)
from eiskron.eisenstein import bernoulli_poly_eval
from eiskron.relations import HomPoly, poly_P


def embed_oracle(a: CycNum) -> complex:
    # direct complex evaluation, independent of CycNum.embed's loop
    z = cmath.exp(2j * cmath.pi / a.level)
    return sum(float(c) * z ** j for j, c in enumerate(a.coeffs))


def schoolbook_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class TestZetaPow:
    def test_identity(self):
        assert zeta_pow(4, 0).coeffs == (1, 0, 0, 0)

    def test_exponent_reduction(self):
        assert zeta_pow(4, 5).coeffs == (0, 1, 0, 0)
        assert zeta_pow(4, -1).coeffs == (0, 0, 0, 1)

    def test_level_one(self):
        assert zeta_pow(1, 7).coeffs == (1,)


class TestRingOps:
    def test_roots_of_unity_product(self):
        assert (zeta_pow(4, 1) * zeta_pow(4, 3)).coeffs == (1, 0, 0, 0)

    def test_additive_inverse(self):
        a = zeta_pow(3, 0)
        assert (a + (-a)).is_zero()

    def test_product_n5_by_hand(self):
        # (1 + z)(1 + z^4) = 2 + z + z^4 over N=5
        one = CycNum.from_rat(5, 1)
        p = (one + zeta_pow(5, 1)) * (one + zeta_pow(5, 4))
        assert p.coeffs == (2, 1, 0, 0, 1)

    def test_exponent_addition_law(self):
        for i, j in [(1, 2), (3, 4), (2, 6)]:
            assert zeta_pow(7, i) * zeta_pow(7, j) == zeta_pow(7, i + j)

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatchError):
            zeta_pow(3, 1) + zeta_pow(4, 1)

    def test_scalar_ops(self):
        a = zeta_pow(6, 2) * Fraction(3, 7)
        assert a.coeffs[2] == Fraction(3, 7)
        assert (a - a).is_zero()

    def test_int_operands(self):
        z = zeta_pow(5, 2)
        assert (z - 1).coeffs == (-1, 0, 1, 0, 0)
        assert CycNum.zero(5) == 0 and not z == 0
        # 1 + zeta_3 + zeta_3^2 is zero in the field, not as a vector
        assert zeta_pow(3, 0) + zeta_pow(3, 1) + zeta_pow(3, 2) == 0

    def test_levels_differ_is_unequal(self):
        assert (zeta_pow(3, 0) == zeta_pow(6, 0)) is False

    def test_other_operands_raise_type_error(self):
        a = CycNum(3, [1, 0, 0])
        with pytest.raises(TypeError):
            a - "x"
        with pytest.raises(TypeError):
            a * "x"


class TestCyclotomicPolynomial:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    @pytest.mark.parametrize("N", range(1, 201))
    def test_degree_and_divisibility(self, N):
        phi = cyclotomic_polynomial(N)
        tot = sum(1 for j in range(1, N + 1) if math.gcd(j, N) == 1)
        assert len(phi) - 1 == tot == totient(N)
        assert phi[-1] == 1  # monic
        # sympy's Phi_N (which divides x^N - 1) as an independent oracle
        x = symbols("x")
        assert list(phi) == Poly(cyclotomic_poly(N, x), x).all_coeffs()[::-1]

    @pytest.mark.parametrize("N", [3, 5, 8, 12, 15])
    def test_against_primitive_roots(self, N):
        # numeric oracle: product of (x - primitive N-th roots)
        roots = [cmath.exp(2j * cmath.pi * j / N)
                 for j in range(1, N + 1) if math.gcd(j, N) == 1]
        poly = [1.0 + 0j]
        for r in roots:
            poly = [0] + poly
            poly = [poly[i] - r * (poly[i + 1] if i + 1 < len(poly) else 0)
                    for i in range(len(poly) - 1)] + [poly[-1]]
        approx = [round(c.real) for c in poly]
        assert approx == list(cyclotomic_polynomial(N))

    def test_inexact_division_raises(self, monkeypatch):
        # with a wrong monic Phi_3 = x^2 + 1, x^6 - 1 over Phi_1 Phi_2 is
        # x^4 + x^2 + 1, which x^2 + 1 does not divide; the cache is
        # cleared so that no wrong Phi_N outlives the test
        monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial",
                            lambda n: (1, 0, 1) if n == 3 else cyclotomic_polynomial(n))
        cyclotomic_polynomial.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="must be exact"):
                cyclotomic_polynomial(6)
        finally:
            cyclotomic_polynomial.cache_clear()

    def test_inexact_division_raises_under_O(self):
        # an assert would vanish under python -O and return a wrong Phi_6
        code = """
import sys
from eiskron import cyclotomic
if not sys.flags.optimize:
    sys.exit(3)
phi = cyclotomic.cyclotomic_polynomial
cyclotomic.cyclotomic_polynomial = lambda n: (1, 0, 1) if n == 3 else phi(n)
phi.cache_clear()
try:
    out = phi(6)
except ArithmeticError as exc:
    print(type(exc).__name__)
else:
    print(out)
    sys.exit(4)
"""
        src = os.path.dirname(os.path.dirname(eiskron.__file__))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == ["ArithmeticError"]


class TestIsZero:
    def test_i_minus_i(self):
        assert CycNum(4, [0, 1, 0, 1]).is_zero()

    def test_sum_of_cube_roots(self):
        assert CycNum(3, [1, 1, 1]).is_zero()

    def test_one_is_not_zero(self):
        assert not CycNum(3, [1, 0, 0]).is_zero()

    def test_agrees_with_embedding(self):
        rng = random.Random(7)
        for _ in range(200):
            N = rng.randint(1, 12)
            a = CycNum(N, [rng.randint(-3, 3) for _ in range(N)])
            b = CycNum(N, [rng.randint(-3, 3) for _ in range(N)])
            diff = a - b
            assert diff.is_zero() == (abs(embed_oracle(diff)) < 1e-9)

    def test_zero_ideal_closure(self):
        rng = random.Random(11)
        for _ in range(50):
            N = rng.randint(2, 10)
            phi = cyclotomic_polynomial(N)
            # random multiple of Phi_N folded into length N: a field zero
            mult = [rng.randint(-2, 2) for _ in range(N - len(phi) + 1)]
            prod = schoolbook_mul(list(phi), mult)
            vec = [0] * N
            for j, c in enumerate(prod):
                vec[j % N] += c
            a = CycNum(N, vec)
            assert a.is_zero()
            c = CycNum(N, [rng.randint(-3, 3) for _ in range(N)])
            assert (a + a).is_zero() and (a * c).is_zero()


class TestEmbed:
    def test_i(self):
        assert abs(zeta_pow(4, 1).embed() - 1j) < 1e-12

    def test_vanishing_sum(self):
        assert abs(CycNum(3, [1, 1, 1]).embed()) < 1e-12

    def test_rational(self):
        assert abs(CycNum.from_rat(9, Fraction(1, 2)).embed() - 0.5) < 1e-12

    def test_multiplicative(self):
        rng = random.Random(3)
        for _ in range(50):
            N = rng.randint(1, 10)
            a = CycNum(N, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(N)])
            b = CycNum(N, [rng.randint(-4, 4) for _ in range(N)])
            assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9


small_cyc = st.integers(2, 8).flatmap(
    lambda N: st.tuples(
        *([st.integers(-5, 5)] * N)
    ).map(lambda cs: CycNum(N, cs)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_mul_commutative_associative(N, data):
    vec = st.tuples(*([st.integers(-5, 5)] * N))
    a = CycNum(N, data.draw(vec))
    b = CycNum(N, data.draw(vec))
    c = CycNum(N, data.draw(vec))
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs


@pytest.mark.parametrize("call, message", [
    (lambda: cyclotomic_polynomial(0), "N must be >= 1"),
    (lambda: CycNum(0, []), "level must be >= 1"),
    (lambda: CycNum(3, [1, 2]), "expected 3 coefficients, got 2"),
    (lambda: zeta_pow(0, 1), "N must be >= 1"),
    (lambda: bernoulli_poly_eval(-1, 0), "m must be >= 0"),
    (lambda: HomPoly(-1, []), "degree must be >= 0"),
    (lambda: HomPoly(2, [1]), "need degree+1 coefficients"),
    (lambda: HomPoly(1, [1, 1]) + HomPoly(2, [1, 1, 1]), "degree mismatch"),
    (lambda: poly_P(-1, 0), "indices must be >= 0"),
])
def test_invalid_input_raises(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
