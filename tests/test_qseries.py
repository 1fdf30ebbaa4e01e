import cmath
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eiskron
from eiskron.cyclotomic import CycNum, LevelMismatchError, reduction_norm, totient, zeta_pow
from eiskron.qseries import (PackedSeries, QExpansion, _pack, convolve_int,
                             convolve_naive, from_int_form, int_form_is_zero,
                             linear_combination, reduce_int_form, to_int_form)


def one(N):
    return CycNum.from_rat(N, 1)


def q_power(N, T, n, c=1):
    return QExpansion(N, T, {n: CycNum.from_rat(N, c)})


class TestAdd:
    def test_constant_cancels(self):
        f = QExpansion(2, 10, {0: one(2), 1: one(2)})  # 1 + q^{1/2}
        g = QExpansion.constant(2, 10, -1)
        s = f + g
        assert s.order == 10
        assert s.coeffs == {1: one(2)}

    def test_zero_identity(self):
        f = QExpansion(3, 8, {0: one(3), 5: zeta_pow(3, 2)})
        assert (f + QExpansion.zero(3, 8)).coeffs == f.coeffs

    def test_order_truncation(self):
        f = QExpansion(2, 10, {7: one(2)})
        g = QExpansion(2, 6, {2: one(2)})
        s = f + g
        assert s.order == 6
        assert s.coeffs == {2: one(2)}  # the q^{7/2} term is beyond order 6

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatchError):
            QExpansion.zero(2, 5) + QExpansion.zero(3, 5)


class TestMul:
    def test_difference_of_squares(self):
        f = QExpansion(2, 10, {0: one(2), 1: one(2)})
        g = QExpansion(2, 10, {0: one(2), 1: -one(2)})
        p = f * g
        assert p.coeffs == {0: one(2), 2: -one(2)}  # 1 - q

    def test_one_identity(self):
        f = QExpansion(3, 12, {1: zeta_pow(3, 1), 7: CycNum.from_rat(3, Fraction(2, 5))})
        assert (f * QExpansion.constant(3, 12, 1)).coeffs == f.coeffs

    def test_geometric_square(self):
        # (sum_{n<T} q^{n/N})^2 has coefficient m+1 at q^{m/N}
        N, T = 3, 25
        f = QExpansion(N, T, {n: one(N) for n in range(T)})
        p = f * f
        for m in range(T):
            assert p.coeffs[m] == CycNum.from_rat(N, m + 1)

    def test_order_is_min(self):
        f = QExpansion(2, 10, {0: one(2)})
        g = QExpansion(2, 7, {0: one(2)})
        assert (f * g).order == 7


class TestScaleAndSubstitutions:
    def test_scale_zero(self):
        f = QExpansion(2, 5, {0: one(2), 3: one(2)})
        assert f.scale(0).coeffs == {}

    def test_scale_minus_one_twice(self):
        f = QExpansion(4, 5, {2: zeta_pow(4, 3)})
        assert f.scale(-1).scale(-1).coeffs == f.coeffs

    def test_scale_by_root_of_unity(self):
        f = QExpansion(3, 6, {0: one(3), 1: one(3)})
        g = f.scale(zeta_pow(3, 1))
        assert g.coeffs == {0: zeta_pow(3, 1), 1: zeta_pow(3, 1)}

    def test_rescale_identity(self):
        f = QExpansion(2, 10, {3: one(2)})
        assert f.rescale_exponents(1).coeffs == f.coeffs

    def test_rescale_doubles_exponent(self):
        f = q_power(2, 10, 1)  # q^{1/2}
        g = f.rescale_exponents(2)
        assert g.coeffs == {2: one(2)} and g.order == 20

    def test_rescale_order_scaling(self):
        assert QExpansion.zero(5, 10).rescale_exponents(3).order == 30

    def test_twist_zero(self):
        f = QExpansion(4, 6, {1: one(4), 3: zeta_pow(4, 2)})
        assert f.twist(0).coeffs == f.coeffs

    def test_twist_full_period(self):
        f = QExpansion(4, 6, {1: one(4), 3: zeta_pow(4, 2)})
        assert f.twist(4).field_equals(f)

    def test_twist_single_term(self):
        f = q_power(4, 6, 1)  # q^{1/4}
        assert f.twist(1).coeffs == {1: zeta_pow(4, 1)}

    def test_twist_is_homomorphism(self):
        # substitution tau -> tau + j commutes with multiplication
        rng = random.Random(5)
        for N in (2, 3, 4):
            f = QExpansion(N, 15, {n: CycNum(N, [rng.randint(-2, 2) for _ in range(N)])
                                   for n in range(0, 15, 2)})
            g = QExpansion(N, 15, {n: CycNum(N, [rng.randint(-2, 2) for _ in range(N)])
                                   for n in range(1, 15, 3)})
            for j in range(N):
                assert (f * g).twist(j).field_equals(f.twist(j) * g.twist(j))


class TestIsZero:
    def test_hidden_zero_coefficient(self):
        c = CycNum(3, [1, 1, 1])  # zero in the field, nonzero as a vector
        f = QExpansion(3, 5, {2: c})
        assert f.is_zero()
        assert f.first_nonzero_exponent() is None

    def test_empty(self):
        assert QExpansion.zero(4, 3).is_zero()

    def test_constant_one(self):
        assert not QExpansion.constant(4, 3, 1).is_zero()
        assert QExpansion.constant(4, 3, 1).first_nonzero_exponent() == 0


class TestEvalNumeric:
    def test_constant(self):
        assert QExpansion.constant(3, 5, 1).eval_numeric(1j) == 1

    def test_q_at_i(self):
        f = q_power(1, 5, 1)
        assert abs(f.eval_numeric(1j) - math.exp(-2 * math.pi)) < 1e-12

    def test_zero_series(self):
        assert QExpansion.zero(2, 5).eval_numeric(0.3 + 1.1j) == 0

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            QExpansion.constant(2, 5, 1).eval_numeric(1 - 1j)

    def test_ring_homomorphism_up_to_truncation(self):
        # |eval(f*g) - eval(f)eval(g)| is bounded by the truncated tail
        rng = random.Random(9)
        tau = 0.25 + 1.3j
        for N in (2, 4):
            T = 40
            f = QExpansion(N, T, {n: CycNum(N, [rng.randint(-3, 3) for _ in range(N)])
                                  for n in range(0, T, 3)})
            g = QExpansion(N, T, {n: CycNum(N, [rng.randint(-3, 3) for _ in range(N)])
                                  for n in range(0, T, 2)})
            lhs = (f * g).eval_numeric(tau)
            rhs = f.eval_numeric(tau) * g.eval_numeric(tau)
            assert abs(lhs - rhs) < 1e-8


class TestJson:
    def test_round_trip(self):
        f = QExpansion(4, 9, {0: CycNum(4, [Fraction(1, 3), 0, -2, Fraction(7, 5)]),
                              5: zeta_pow(4, 1)})
        g = QExpansion.from_json(f.to_json())
        assert g.level == f.level and g.order == f.order and g.coeffs == f.coeffs

    def test_schema_shape(self):
        f = q_power(2, 4, 1, Fraction(-3, 7))
        d = f.to_json_dict()
        assert d["level"] == 2 and d["order"] == 4
        assert d["coeffs"] == [{"n": 1, "c": [[-3, 7], [0, 1]]}]

    def test_big_integers_as_strings(self):
        big = 10 ** 30
        f = QExpansion(2, 3, {1: CycNum.from_rat(2, Fraction(big, big + 1))})
        d = f.to_json_dict()
        num, den = d["coeffs"][0]["c"][0]
        assert isinstance(num, str) and isinstance(den, str)
        assert QExpansion.from_json_dict(d).coeffs == f.coeffs


class TestIntForm:
    def test_round_trip(self):
        f = QExpansion(3, 7, {0: CycNum(3, [Fraction(1, 2), Fraction(-1, 3), 0]),
                              4: zeta_pow(3, 2)})
        den, data = to_int_form(f)
        assert den == 6
        g = from_int_form(3, 7, den, data)
        assert g.coeffs == f.coeffs

    def test_packed_matches_naive(self):
        # the packed big-integer convolution against the schoolbook oracle
        rng = random.Random(42)
        for trial in range(30):
            N = rng.randint(1, 6)
            T = rng.randint(1, 30)
            def rand_series():
                return {n: tuple(rng.randint(-10 ** rng.randint(0, 6),
                                             10 ** rng.randint(0, 6))
                                 for _ in range(N))
                        for n in rng.sample(range(T), rng.randint(0, T))}
            A, B = rand_series(), rand_series()
            assert convolve_int(N, T, A, B) == convolve_naive(N, T, A, B)
            # all-negative operands
            negA = {n: tuple(-abs(x) for x in v) for n, v in A.items()}
            negB = {n: tuple(-abs(x) for x in v) for n, v in B.items()}
            assert convolve_int(N, T, negA, negB) == convolve_naive(N, T, negA, negB)
            assert convolve_int(N, T, negA, B) == convolve_naive(N, T, negA, B)
        # N = 1, T = 1, and one empty operand
        for N, T, A, B in [(1, 9, {0: (-3,), 4: (5,)}, {1: (-2,), 2: (7,)}),
                           (3, 1, {0: (-1, 4, -9)}, {0: (2, -5, 0)}),
                           (1, 1, {0: (-128,)}, {0: (-128,)}),
                           (4, 6, {}, {0: (1, -1, 2, 0)}),
                           (4, 6, {2: (1, -1, 2, 0)}, {})]:
            assert convolve_int(N, T, A, B) == convolve_naive(N, T, A, B)

    def test_packed_short_vectors(self):
        # reduced operands have phi(N) <= N entries; lengths may differ
        rng = random.Random(7)
        for trial in range(30):
            N = rng.randint(1, 9)
            T = rng.randint(1, 20)
            la, lb = rng.randint(1, N), rng.randint(1, N)
            A = {n: tuple(rng.randint(-99, 99) for _ in range(la))
                 for n in rng.sample(range(T), rng.randint(1, T))}
            B = {n: tuple(rng.randint(-99, 99) for _ in range(lb))
                 for n in rng.sample(range(T), rng.randint(1, T))}
            assert convolve_int(N, T, A, B) == convolve_naive(N, T, A, B)

    def test_packed_huge_coefficients(self):
        # stress the limb-width selection
        N, T = 4, 12
        A = {n: tuple((-1) ** j * 10 ** 40 + j for j in range(N)) for n in range(T)}
        B = {n: tuple(10 ** 35 - j for j in range(N)) for n in range(0, T, 2)}
        assert convolve_int(N, T, A, B) == convolve_naive(N, T, A, B)
        # two's complement edges at byte boundaries: +-(2^(8m-1) - 1), -2^(8m-1)
        for m in (1, 2, 3, 8, 9):
            top, low = 2 ** (8 * m - 1) - 1, -2 ** (8 * m - 1)
            for N, T in [(1, 1), (1, 5), (3, 4), (5, 7)]:
                A = {n: tuple((top, -top, low)[(n + j) % 3] for j in range(N))
                     for n in range(T)}
                B = {n: tuple((low, top, -top, 0)[(n * j) % 4] for j in range(N))
                     for n in range(0, T, 2)}
                assert convolve_int(N, T, A, B) == convolve_naive(N, T, A, B)
                assert convolve_int(N, T, B, B) == convolve_naive(N, T, B, B)
                # a product limb that reaches the width bound itself
                two = {0: (2,) + (0,) * (N - 1)}
                assert convolve_int(N, T, A, two) == convolve_naive(N, T, A, two)

    def test_linear_combination(self):
        # N = 3: Phi_3 = x^2 + x + 1, so zeta^2 reduces to -1 - zeta
        N, T = 3, 5
        x = PackedSeries.pack(N, T, 3, reduce_int_form(N, {0: (6, 0, 0), 2: (0, 0, 3)}))
        y = PackedSeries.pack(N, T, 2, reduce_int_form(N, {0: (2, 0, 0)}))
        res = linear_combination(N, T, [(Fraction(1, 2), x), (-1, y)])
        assert not res.is_zero()
        f = from_int_form(N, T, *res.unpack())
        # (1/2)(2 + zeta^2 q^(2/3)) - 1 = -(1/2)(1 + zeta) q^(2/3), reduced
        # basis, zero-padded to length N
        assert list(f.coeffs) == [2]
        assert f.coeffs[2].coeffs == (Fraction(-1, 2), Fraction(-1, 2), 0)
        assert linear_combination(N, T, [(1, y), (Fraction(-1), y)]).is_zero()
        assert linear_combination(N, T, []).is_zero()

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_combination_matches_fraction_sum(self, seed):
        # the packed combination against Fraction QExpansion arithmetic
        rng = random.Random(seed)
        N = rng.randint(1, 8)
        T = rng.randint(1, 25)
        terms, expect = [], QExpansion.zero(N, T)
        for _ in range(rng.randint(1, 6)):
            den = rng.choice([1, 2, 12, 10 ** rng.randint(0, 30)])
            size = 10 ** rng.randint(0, 25)
            data = {n: tuple(rng.randint(-size, size) for _ in range(N))
                    for n in rng.sample(range(T), rng.randint(0, T))}
            c = rng.choice([Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                            Fraction(10 ** 40 + 1), Fraction(1, 10 ** 40 - 1)])
            terms.append((c, PackedSeries.pack(N, T, den, reduce_int_form(N, data))))
            expect = expect + from_int_form(N, T, den, data).scale(c)
        res = linear_combination(N, T, terms)
        got = from_int_form(N, T, *res.unpack())
        assert got.field_equals(expect)
        assert res.is_zero() == expect.is_zero()
        # a combination that cancels exactly is 0, at any width
        x = terms[0][1]
        assert linear_combination(N, T, [(Fraction(10 ** 40 + 3, 7), x),
                                         (Fraction(-10 ** 40 - 3, 7), x)]).is_zero()

    def test_packed_widen_and_unpack(self):
        # limbs at the edges of signed 8-byte limbs, widened and read back;
        # the layout has s = 2 phi - 1 limbs per exponent, columns >= phi zero
        N, T = 5, 4
        s = 2 * 4 - 1
        top = 2 ** 63 - 1
        data = {n: tuple((top, -top, 0, 1, -1)[(n + j) % 5] for j in range(4))
                for n in range(T)}
        data = {n: v for n, v in data.items() if n != 2}  # an empty exponent
        x = PackedSeries.pack(N, T, 7, data)
        assert (x.width, x.height) == (8, top)
        for width in (16, 24, 72):
            assert x.at(width) == _pack(data, T * s, width, s)
        den, out = x.unpack()
        assert den == 7 and out == {n: v + (0,) for n, v in data.items()}
        assert PackedSeries.pack(N, T, 1, {0: (2 ** 63, 0, 0, 0)}).width == 16
        # negative and extreme limbs, widened step by step 8 -> 16 -> 24 -> 32
        for edge in (-top, 2 ** 64 - 1, -2 ** 64, 2 ** 127 - 1, -2 ** 127):
            data = {n: tuple((edge, -1, 0, -edge, 1, top, -top)[(n * 3 + j) % 7]
                             for j in range(4)) for n in range(T)}
            y = PackedSeries.pack(N, T, 1, data)
            for width in range(y.width + 8, 33, 8):
                y = y._replace(width=width, value=y.at(width))
                assert y.value == _pack(data, T * s, width, s)
                assert y.unpack()[1] == {n: v + (0,) for n, v in data.items()}
        with pytest.raises(ArithmeticError):
            y.at(8)

    def test_reduce_int_form(self):
        # Phi_4 = x^2 + 1: zeta^2 = -1, zeta^3 = -zeta; field zeros drop out
        assert reduce_int_form(4, {0: (1, 2, 3, 4), 3: (1, 0, 1, 0), 5: (0, 0, 0, 0)}) \
            == {0: (-2, -2)}
        assert reduce_int_form(1, {2: (5,)}) == {2: (5,)}

    def test_int_form_is_zero(self):
        N = 3
        assert int_form_is_zero(N, {2: (1, 1, 1)}) is None  # field zero
        assert int_form_is_zero(N, {2: (1, 1, 1), 4: (1, 0, 0)}) == 4
        assert int_form_is_zero(N, {}) is None


# limbs at the edges of signed 8-byte limbs, and beyond
EDGE_LIMBS = (2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63, 2 ** 64, 0)


@st.composite
def packed_operands(draw):
    """(N, T, A, B): two reduced integer series, each signed random, all
    zero, empty, or built from the edge limbs."""
    N = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 8, 12)))
    T = draw(st.integers(1, 40))
    phi = totient(N)

    def series():
        kind = draw(st.sampled_from(("signed", "edges", "zero", "empty")))
        if kind == "empty":
            return {}
        limb = {"signed": st.integers(-10 ** 30, 10 ** 30),
                "edges": st.sampled_from(EDGE_LIMBS),
                "zero": st.just(0)}[kind]
        keys = draw(st.lists(st.integers(0, T - 1), unique=True, max_size=T))
        return {n: tuple(draw(st.lists(limb, min_size=phi, max_size=phi)))
                for n in keys}

    return N, T, series(), series()


class TestProductKernel:
    @settings(max_examples=150, deadline=None)
    @given(packed_operands())
    def test_product_matches_naive(self, case):
        # one multiply, column masks and Phi_N row folds against the
        # schoolbook convolution reduced mod Phi_N
        N, T, A, B = case
        phi = totient(N)
        x, y = PackedSeries.pack(N, T, 3, A), PackedSeries.pack(N, T, 4, B)
        p = convolve_int(N, T, x, y)
        den, got = p.unpack()
        expect = reduce_int_form(N, convolve_naive(N, T, A, B))
        assert den == 12
        assert {n: v[:phi] for n, v in got.items()} == expect
        assert p.height == T * phi * x.height * y.height * reduction_norm(N)
        assert p.is_zero() == (not expect)
        # the product is a valid operand again, in the same layout
        assert {n: v[:phi] for n, v in convolve_int(N, T, p, x).items()} == \
            reduce_int_form(N, convolve_naive(N, T, expect, A))

    def test_operands_must_fit_the_layout(self):
        x = PackedSeries.pack(3, 4, 1, {0: (1, 2)})
        for y in (PackedSeries.pack(3, 5, 1, {0: (1, 2)}),
                  PackedSeries.pack(4, 4, 1, {0: (1, 2)}), {0: (1, 2)}):
            for A, B in ((x, y), (y, x)):
                with pytest.raises(ValueError):
                    convolve_int(3, 4, A, B)
        with pytest.raises(ValueError):  # unreduced vectors do not fit the layout
            PackedSeries.pack(3, 4, 1, {0: (1, 2, 3)})
        with pytest.raises(ValueError):  # nor do exponents beyond the order
            PackedSeries.pack(3, 4, 1, {4: (1, 2)})

    def test_no_tuple_arithmetic(self):
        # a NamedTuple would repeat or concatenate instead of raising
        x = PackedSeries.pack(3, 4, 1, {0: (1, 2)})
        for op in (lambda: x * x, lambda: x * 3, lambda: 3 * x, lambda: x + x,
                   lambda: x + (1,)):
            with pytest.raises(TypeError):
                op()
        assert dict(x.items()) == x.unpack()[1] == {0: (1, 2, 0)}

    def test_width_checks_survive_optimize(self):
        # under python -O an assert would vanish; the checks must still raise
        code = """
import sys
from eiskron import qseries
from eiskron.qseries import PackedSeries, linear_combination
if not sys.flags.optimize:
    sys.exit(3)
x = PackedSeries.pack(3, 4, 1, {0: (2 ** 70, -1), 3: (5, 2 ** 70)})
narrow = qseries._limb_width
qseries._limb_width = lambda bound: narrow(bound) - 8  # one limb too narrow
for run in (lambda: qseries.convolve_int(3, 4, x, x), lambda: linear_combination(3, 4, [(1, x), (2, x)])):
    try:
        run()
    except ArithmeticError as exc:
        print(exc)
    else:
        sys.exit(4)
"""
        src = os.path.dirname(os.path.dirname(eiskron.__file__))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["limb width 16 too small for the product",
                                            "limb width 8 too small for the residual"]


class TestImmutability:
    def test_cached_series_cannot_be_changed(self):
        from eiskron.eisenstein import EisensteinIndex, eisenstein_qexp
        idx = EisensteinIndex(4, 3, 1, 0)
        f = eisenstein_qexp(idx, 10)
        before = {n: c.coeffs for n, c in f.coeffs.items()}
        with pytest.raises(TypeError):
            f.coeffs[1] = 999
        with pytest.raises(TypeError):
            del f.coeffs[0]
        g = eisenstein_qexp(idx, 10)
        assert {n: c.coeffs for n, c in g.coeffs.items()} == before

    def test_cached_product_cannot_be_changed(self):
        from eiskron import relations
        x = relations._product(1, (1, 0), 2, (0, 1), 3, 10)
        for field in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, field, 0)
        assert relations._product(1, (1, 0), 2, (0, 1), 3, 10) is x

    def test_pickle_round_trip(self):
        f = QExpansion(4, 9, {0: CycNum(4, [Fraction(1, 3), 0, -2, Fraction(7, 5)]),
                              5: zeta_pow(4, 1)})
        g = pickle.loads(pickle.dumps(f))
        assert (g.level, g.order) == (f.level, f.order)
        assert {n: c.coeffs for n, c in g.coeffs.items()} == \
            {n: c.coeffs for n, c in f.coeffs.items()}
        with pytest.raises(TypeError):
            g.coeffs[0] = one(4)


def test_exponent_out_of_range_rejected():
    with pytest.raises(ValueError):
        QExpansion(2, 5, {5: one(2)})
    with pytest.raises(ValueError):
        QExpansion(2, 5, {-1: one(2)})
