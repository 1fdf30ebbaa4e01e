import cmath
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eiskron
from eiskron.cyclotomic import (CycNum, LevelMismatchError, _reduction_rows,
                                cyclotomic_polynomial, reduce_columns,
                                reduce_mod_cyclotomic,
                                reduction_norm, totient, zeta_pow)
from eiskron.qseries import (PackedSeries, QExpansion, _pack, act_int_form,
                             convolve_int, convolve_naive, from_int_form,
                             int_form_is_zero, linear_combination, to_int_form)
from eiskron.relations import _symmetries


def one(N):
    return CycNum.from_rat(N, 1)


def q_power(N, T, n, c=1):
    return QExpansion(N, T, {n: CycNum.from_rat(N, c)})


def reduce_each(N, data):
    """Each vector reduced mod Phi_N on its own by reduce_mod_cyclotomic,
    field zeros dropped: the per-vector definition that pack's columnar
    reduction must match."""
    out = {n: tuple(reduce_mod_cyclotomic(N, vec)) for n, vec in data.items()}
    return {n: vec for n, vec in out.items() if any(vec)}


def flat(N, T, data):
    """The row-major flat list of the vectors data[n], zero-padded to N
    entries, over the exponents n < T: pack's input, built from the dict
    form that these tests draw."""
    assert all(0 <= n < T and len(vec) <= N for n, vec in data.items())
    out = [0] * (N * T)
    for n, vec in data.items():
        out[n * N:n * N + len(vec)] = vec
    return out


def rows(N, flat):
    """{n: vector} of the nonzero rows of a flat list: the dict form."""
    return {n: vec for n, vec in enumerate(zip(*[iter(flat)] * N)) if any(vec)}


def pack(N, T, den, data):
    """PackedSeries.pack of the vectors data[n] at keys n < T."""
    return PackedSeries.pack(N, T, den, flat(N, T, data))


def unpacked(x):
    """x.unpack() with its flat list read as rows(): (den, {n: vector})."""
    den, data = x.unpack()
    return den, rows(x.level, data)


def naive(N, T, A, B):
    """convolve_naive of the vectors A[n] and B[n], read as rows()."""
    return rows(N, convolve_naive(N, T, flat(N, T, A), flat(N, T, B)))


def reduced_entries(x):
    """A packed series' unpacked vectors cut to their phi reduced entries."""
    phi = totient(x.level)
    return {n: v[:phi] for n, v in unpacked(x)[1].items()}


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

    def test_float_scalar_is_a_type_error(self):
        f = QExpansion(3, 10, {0: one(3)})
        with pytest.raises(TypeError, match="int, a Fraction or a CycNum, not float"):
            f.scale(0.5)
        with pytest.raises(TypeError, match="int or a Fraction, not float"):
            QExpansion.constant(3, 10, 0.5)
        assert f.scale(Fraction(1, 2)).field_equals(QExpansion.constant(3, 10, Fraction(1, 2)))

    def test_rescale_identity(self):
        f = QExpansion(2, 10, {3: one(2)})
        assert f.rescale_exponents(1).coeffs == f.coeffs

    def test_rescale_doubles_exponent(self):
        f = q_power(2, 10, 1)  # q^{1/2}
        g = f.rescale_exponents(2)
        assert g.coeffs == {2: one(2)} and g.order == 20

    def test_rescale_order_scaling(self):
        assert QExpansion.zero(5, 10).rescale_exponents(3).order == 30

    def test_rescale_by_zero_rejected(self):
        with pytest.raises(ValueError):
            QExpansion.zero(5, 10).rescale_exponents(0)

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


class TestAction:
    """act_int_form is an action of the group B of relations' orbit
    transport on flat lists of integer vectors modulo x^N - 1."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 12])
    def test_action_of_B(self, N):
        rng = random.Random(N)
        data = flat(N, 9, {n: tuple(rng.randint(-9, 9) for _ in range(N))
                           for n in range(0, 9, 2)})
        B = _symmetries(N)
        for k in (1, 2):
            images = {g: act_int_form(N, g, k, data) for g in B}
            for g, image in images.items():
                s, j, t = g
                t_inv = pow(t, -1, N)
                assert rows(N, image) == {n: tuple(s ** k * v[t_inv * (m - n * j) % N]
                                                   for m in range(N))
                                          for n, v in rows(N, data).items()}
                for h, h_image in images.items():
                    gh = (s * h[0], (j + t * h[1]) % N, t * h[2] % N or N)
                    assert gh in images
                    assert act_int_form(N, g, k, h_image) == images[gh], (g, h)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_matches_per_entry_reference(self, N):
        # image[n][t i + n j] = s^k data[n][i], entry by entry, at every
        # order 1..2N+1: the slices of stride N^2 must also hold orders that
        # are not multiples of N, where the residues rho = n mod N have
        # unequal numbers of rows
        rng = random.Random(100 + N)
        B = _symmetries(N)
        for T in range(1, 2 * N + 2):
            data = [rng.randint(-99, 99) for _ in range(N * T)]
            k = 1 + T % 2  # odd and even weights, so s = -1 negates or not
            for s, j, t in B:
                expect = [None] * (N * T)
                for n in range(T):
                    for i in range(N):
                        expect[n * N + (t * i + n * j) % N] = s ** k * data[n * N + i]
                assert act_int_form(N, (s, j, t), k, data) == expect, (T, s, j, t)

    def test_rejects_a_partial_row(self):
        with pytest.raises(ValueError, match="whole rows of 3 entries"):
            act_int_form(3, (1, 1, 1), 1, [1, 2, 3, 4])

    @pytest.mark.parametrize("N", [1, 3, 4, 12])
    def test_twist_is_the_action_of_1_j_1(self, N):
        # QExpansion.twist rotates each vector on its own, apart from
        # act_int_form's slices, and the two agree
        rng = random.Random(N)
        data = [rng.randint(-9, 9) for _ in range(9 * N)]
        f = from_int_form(N, 9, 5, data)
        for j in range(-N, 2 * N):
            assert rows(N, f.twist(j).data) == rows(N, act_int_form(N, (1, j, 1), 1, data))


def hidden_zero(N):
    """Phi_N folded mod x^N - 1: a nonzero vector that is zero in Q(zeta_N)."""
    vec = [0] * N
    for i, c in enumerate(cyclotomic_polynomial(N)):
        vec[i % N] += c
    return CycNum(N, vec)


@st.composite
def series_cases(draw):
    """(f, g, r, c, j, M): two random series of one level N <= 8, a
    rational, a CycNum, a twist and an exponent multiplier."""
    N = draw(st.integers(1, 8))
    rat = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    cyc = st.lists(rat, min_size=N, max_size=N).map(lambda v: CycNum(N, v))

    def series():
        T = draw(st.integers(1, 12))
        keys = draw(st.lists(st.integers(0, T - 1), unique=True, max_size=T))
        return QExpansion(N, T, {n: draw(cyc) for n in keys})

    return (series(), series(), draw(rat), draw(cyc), draw(st.integers(-2 * N, 2 * N)),
            draw(st.integers(1, 4)))


class TestIntegerOperationsOracle:
    @settings(max_examples=120, deadline=None)
    @given(series_cases())
    def test_matches_cycnum_arithmetic(self, case):
        # every integer operation against CycNum arithmetic done coefficient
        # by coefficient: the same vectors, not just the same field elements
        f, g, r, c, j, M = case
        N, T = f.level, min(f.order, g.order)
        zero = CycNum.zero(N)

        def vectors(h):
            return {n: v.coeffs for n, v in h.coeffs.items()}

        def oracle(coeffs):
            return {n: v.coeffs for n, v in coeffs.items() if any(v.coeffs)}

        F, G = f.coeffs, g.coeffs
        get = lambda h, n: h.get(n, zero)  # noqa: E731
        cases = [
            (f + g, T, {n: get(F, n) + get(G, n) for n in range(T)}),
            (f - g, T, {n: get(F, n) - get(G, n) for n in range(T)}),
            (-f, f.order, {n: -v for n, v in F.items()}),
            (f.scale(r), f.order, {n: v * r for n, v in F.items()}),
            (f.scale(c), f.order, {n: v * c for n, v in F.items()}),
            (f.twist(j), f.order, {n: v * zeta_pow(N, n * j) for n, v in F.items()}),
            (f.rescale_exponents(M), f.order * M, {n * M: v for n, v in F.items()}),
            (f * g, T, {n: sum((get(F, i) * get(G, n - i) for i in range(n + 1)), zero)
                        for n in range(T)}),
        ]
        for got, order, expect in cases:
            assert got.order == order
            assert vectors(got) == oracle(expect)
        assert f.field_equals(g) == all((get(F, n) - get(G, n)).is_zero() for n in range(T))
        hidden = QExpansion(N, f.order, {n: hidden_zero(N) * v for n, v in F.items()})
        assert (f + hidden).field_equals(f) and hidden.is_zero()
        assert f.first_nonzero_exponent() == min(
            (n for n, v in F.items() if not v.is_zero()), default=None)
        tau = complex(0.3, 1.1)
        for h in (f, g, f * g):
            expect = 0j
            for n, v in h.coeffs.items():
                expect += v.embed() * cmath.exp(2j * math.pi * tau * n / N)
            assert h.eval_numeric(tau) == expect  # bit for bit


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
        # a non-finite tau too: a NaN imaginary part passes `imag <= 0`, and
        # an infinite one gave nan+nanj
        f = QExpansion.constant(2, 5, 1)
        for tau in (1 - 1j, complex(math.nan, 1), complex(0.3, math.nan),
                    complex(math.inf, 1), complex(0.3, math.inf)):
            with pytest.raises(ValueError, match="finite point of the upper half-plane"):
                f.eval_numeric(tau)

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
        # the packed product against the schoolbook oracle reduced mod Phi_N
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
            # all-negative operands
            negA = {n: tuple(-abs(x) for x in v) for n, v in A.items()}
            negB = {n: tuple(-abs(x) for x in v) for n, v in B.items()}
            for X, Y in ((A, B), (negA, negB), (negA, B)):
                assert_product_matches(N, T, reduce_each(N, X), reduce_each(N, Y))
        # N = 1, T = 1, and one empty operand
        for case in small_products():
            assert_product_matches(*case)

    def test_packed_short_vectors(self):
        # reduced operands have at most phi(N) entries; lengths may differ
        rng = random.Random(7)
        for trial in range(30):
            N = rng.randint(1, 9)
            T = rng.randint(1, 20)
            phi = totient(N)
            la, lb = rng.randint(1, phi), rng.randint(1, phi)
            A = {n: tuple(rng.randint(-99, 99) for _ in range(la))
                 for n in rng.sample(range(T), rng.randint(1, T))}
            B = {n: tuple(rng.randint(-99, 99) for _ in range(lb))
                 for n in rng.sample(range(T), rng.randint(1, T))}
            assert_product_matches(N, T, A, B)

    def test_packed_huge_coefficients(self):
        # stress the limb-width selection
        for case in huge_products():
            assert_product_matches(*case)

    def test_linear_combination(self):
        # N = 3: Phi_3 = x^2 + x + 1, so zeta^2 reduces to -1 - zeta
        N, T = 3, 5
        x = pack(N, T, 3, reduce_each(N, {0: (6, 0, 0), 2: (0, 0, 3)}))
        y = pack(N, T, 2, reduce_each(N, {0: (2, 0, 0)}))
        res = linear_combination(N, T, [(Fraction(1, 2), x), (-1, y)])
        assert not res.is_zero()
        f = from_int_form(N, T, *res.unpack())
        # (1/2)(2 + zeta^2 q^(2/3)) - 1 = -(1/2)(1 + zeta) q^(2/3), reduced
        # basis, zero-padded to length N
        assert list(f.coeffs) == [2]
        assert f.coeffs[2].coeffs == (Fraction(-1, 2), Fraction(-1, 2), 0)
        assert linear_combination(N, T, [(1, y), (Fraction(-1), y)]).is_zero()
        assert linear_combination(N, T, []).is_zero()

    def test_linear_combination_rejects_another_order(self):
        x = pack(3, 5, 1, {0: (1, 0, 0)})
        y = pack(3, 4, 1, {0: (1, 0, 0)})
        with pytest.raises(ValueError, match="terms differ in level or order"):
            linear_combination(3, 5, [(1, x), (1, y)])

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
            terms.append((c, pack(N, T, den, reduce_each(N, data))))
            expect = expect + from_int_form(N, T, den, flat(N, T, data)).scale(c)
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
        x = pack(N, T, 7, data)
        assert (x.width, x.height) == (8, top)
        for width in (16, 24, 72):
            assert x.at(width) == _pack(columns(data, T), T * s, width, s)
        den, out = unpacked(x)
        assert den == 7 and out == {n: v + (0,) for n, v in data.items()}
        assert pack(N, T, 1, {0: (2 ** 63, 0, 0, 0)}).width == 16
        # negative and extreme limbs, widened step by step 8 -> 16 -> 24 -> 32
        for edge in (-top, 2 ** 64 - 1, -2 ** 64, 2 ** 127 - 1, -2 ** 127):
            data = {n: tuple((edge, -1, 0, -edge, 1, top, -top)[(n * 3 + j) % 7]
                             for j in range(4)) for n in range(T)}
            y = pack(N, T, 1, data)
            for width in range(y.width + 8, 33, 8):
                y = y._replace(width=width, value=y.at(width))
                assert y.value == _pack(columns(data, T), T * s, width, s)
                assert unpacked(y)[1] == {n: v + (0,) for n, v in data.items()}
        with pytest.raises(ArithmeticError):
            y.at(8)

    @pytest.mark.parametrize("edge", (2 ** 63 - 1, -(2 ** 63 - 1), 2 ** 64 - 1, -2 ** 64,
                                      2 ** 127 - 1, -2 ** 127, 127, -128))
    def test_packed_narrow(self, edge):
        # every width that holds the height, down to the height's own byte
        # width, against the _pack oracle; one byte less raises
        N, T = 5, 4
        s = 2 * 4 - 1
        data = {n: tuple((edge, -1, 0, -edge, 1, edge // 3)[(n * 3 + j) % 6]
                         for j in range(4)) for n in range(T)}
        y = pack(N, T, 1, data)
        need = next(w for w in range(1, 33) if y.height < 2 ** (8 * w - 1))
        expect = {n: v + (0,) for n, v in data.items()}
        for source in (y, y._replace(width=32, value=y.at(32))):
            for width in range(need, 33):
                z = source._replace(width=width, value=source.at(width))
                assert z.value == _pack(columns(data, T), T * s, width, s)
                assert unpacked(z)[1] == expect
            with pytest.raises(ArithmeticError, match=f"limb width {need - 1} too small"):
                source.at(need - 1)

    def test_pack_reduces_mod_phi(self):
        # Phi_4 = x^2 + 1: zeta^2 = -1, zeta^3 = -zeta; field zeros drop out
        data = {0: (1, 2, 3, 4), 3: (1, 0, 1, 0), 5: (0, 0, 0, 0)}
        assert reduce_each(4, data) == {0: (-2, -2)}
        x = pack(4, 6, 1, data)
        assert (x.height, reduced_entries(x)) == (2, {0: (-2, -2)})
        assert reduce_each(1, {2: (5,)}) == {2: (5,)}
        assert reduced_entries(pack(1, 3, 1, {2: (5,)})) == {2: (5,)}

    def test_int_form_is_zero(self):
        N = 3
        assert int_form_is_zero(N, flat(N, 5, {2: (1, 1, 1)})) is None  # field zero
        assert int_form_is_zero(N, flat(N, 5, {2: (1, 1, 1), 4: (1, 0, 0)})) == 4
        assert int_form_is_zero(N, flat(N, 5, {})) is None
        # Phi_4 = x^2 + 1: the row 1 + zeta^2 at n = 1 is zero in the field
        assert int_form_is_zero(4, flat(4, 3, {1: (1, 0, 1, 0), 2: (0, 5, 0, 0)})) == 2


# limbs at the edges of signed 8-byte limbs, and beyond
EDGE_LIMBS = (2 ** 63 - 1, -(2 ** 63 - 1), -2 ** 63, 2 ** 64, 0)


@st.composite
def mixed_vectors(draw):
    """(N, data): vectors of mixed lengths <= N at sparse keys, some all
    zero, sometimes no vectors at all; N = 105 is the first level whose
    reduction rows hold an entry other than +-1."""
    N = draw(st.sampled_from(tuple(range(1, 13)) + (105,)))
    limb = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30),
                     st.sampled_from(EDGE_LIMBS))
    vector = st.one_of(st.lists(limb, max_size=N),
                       st.integers(0, N).map(lambda n: [0] * n))
    keys = draw(st.lists(st.integers(0, 200), unique=True, max_size=6))
    return N, {n: tuple(draw(vector)) for n in keys}


@st.composite
def packable(draw):
    """(N, T, data): reduced vectors, some short, at sparse keys below T,
    with limbs at and beyond the edges of signed 8-byte limbs."""
    N = draw(st.sampled_from((1, 2, 3, 4, 5, 12)))
    T = draw(st.integers(1, 30))
    limb = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     st.sampled_from((2 ** 63 - 1, -(2 ** 63 - 1), 2 ** 63, -2 ** 127, 0)))
    keys = draw(st.lists(st.integers(0, T - 1), unique=True, max_size=T))
    return N, T, {n: tuple(draw(st.lists(limb, max_size=totient(N)))) for n in keys}


def columns(data, T):
    """The vectors of data as _pack's columns over n < T, zero-filled."""
    return list(zip_longest(*[data.get(n, ()) for n in range(T)], fillvalue=0))


class TestColumnarPath:
    """PackedSeries.pack reduces and writes whole columns; it must agree
    with the per-vector definition it replaces."""

    def test_level_105_has_a_general_multiplier(self):
        assert any(abs(r) > 1 for row in _reduction_rows(105) for r in row)

    @example((105, {0: (0,) * 48 + (1,), 5: (1,) * 105, 9: (), 2: (0,) * 30,
                    4: tuple(range(-52, 53))}))
    @example((12, {1: (1, 2), 2: (0,) * 12, 3: (2 ** 63, -2 ** 127) * 6}))
    @settings(max_examples=300, deadline=None)
    @given(mixed_vectors())
    def test_reduce_matches_per_vector(self, case):
        N, data = case
        x = pack(N, max(data, default=0) + 1, 1, data)
        assert reduced_entries(x) == reduce_each(N, data)

    @example((3, {}))
    @example((12, {0: (1, 2), 3: (2 ** 63, -2 ** 127) * 6}))
    @settings(max_examples=200, deadline=None)
    @given(mixed_vectors())
    def test_pack_matches_dict_path(self, case):
        # the flat path against the dict path it replaced: the vectors
        # transposed into columns by zip_longest, then reduce_columns, the
        # measured height and _pack
        N, data = case
        T = max(data, default=0) + 1
        rows_ = [data.get(n, ()) for n in range(T)]
        cols = reduce_columns(N, list(zip_longest(*rows_, fillvalue=0)) or [(0,) * T])
        height = max(map(abs, chain.from_iterable(cols)), default=0)
        width = 8 * (height.bit_length() // 64 + 1)
        s = 2 * totient(N) - 1
        assert pack(N, T, 7, data) == \
            PackedSeries(N, T, 7, height, width, _pack(cols, T * s, width, s))
        with pytest.raises(ValueError):
            PackedSeries.pack(N, T, 7, flat(N, T, data) + [0])

    @pytest.mark.parametrize("N", (1, 2, 3, 5, 12, 105))
    def test_reduce_edge_inputs(self, N):
        phi = totient(N)
        assert unpacked(pack(N, 8, 1, {})) == (1, {})
        assert unpacked(pack(N, 8, 1, {3: (), 7: (0,) * N})) == (1, {})
        # the last entry alone is x^(N-1) mod Phi_N, the last reduction row
        last = (0,) * (N - 1) + (1,)
        row = _reduction_rows(N)[-1] if N - 1 >= phi else last
        assert reduced_entries(pack(N, 8, 1, {0: last, 1: (2,)})) == \
            {0: tuple(row), 1: (2,) + (0,) * (phi - 1)}

    @example((1, 3, {0: (2 ** 63,), 2: (-2 ** 127,)}))
    @example((2, 5, {1: (2 ** 63 - 1,), 4: (-(2 ** 63 - 1),), 3: ()}))
    @example((5, 9, {8: (2 ** 63, 0), 0: (), 3: (-2 ** 127, 2 ** 63 - 1, 1),
                     6: (0, 0, 0, -(2 ** 63 - 1))}))
    @settings(max_examples=200, deadline=None)
    @given(packable())
    def test_pack_unpack_round_trip(self, case):
        N, T, data = case
        phi = totient(N)
        x = pack(N, T, 5, data)
        height = max((abs(v) for vec in data.values() for v in vec), default=0)
        assert (x.height, x.width) == (height, 8 * (height.bit_length() // 64 + 1))
        pad = (0,) * (N - phi)
        assert unpacked(x) == (5, {n: vec + (0,) * (phi - len(vec)) + pad
                                   for n, vec in data.items() if any(vec)})
        assert x.is_zero() == (height == 0)
        # unpack gives the row-major list that pack takes
        assert len(x.unpack()[1]) == N * T
        assert PackedSeries.pack(N, T, *x.unpack()) == x


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


def assert_product_matches(N, T, A, B):
    """convolve_int of the packed A and B equals the schoolbook convolution
    reduced mod Phi_N."""
    phi = totient(N)
    x, y = pack(N, T, 3, A), pack(N, T, 4, B)
    den, got = unpacked(convolve_int(N, T, x, y))
    assert den == 12
    assert {n: v[:phi] for n, v in got.items()} == reduce_each(N, naive(N, T, A, B))


def huge_products():
    """(N, T, A, B) inputs at the edges of the limb width: huge coefficients,
    limbs at the byte boundaries of two's complement and a product limb at
    the width bound."""
    N, T = 4, 12
    yield (N, T, {n: ((-1) ** n * 10 ** 40 + n, 10 ** 40 - 1) for n in range(T)},
           {n: (10 ** 35 - n, -10 ** 40) for n in range(0, T, 2)})
    for m in (1, 2, 3, 8, 9):
        top, low = 2 ** (8 * m - 1) - 1, -2 ** (8 * m - 1)
        for N, T in [(1, 1), (1, 5), (3, 4), (5, 7)]:
            phi = totient(N)
            A = {n: tuple((top, -top, low)[(n + j) % 3] for j in range(phi))
                 for n in range(T)}
            B = {n: tuple((low, top, -top, 0)[(n * j) % 4] for j in range(phi))
                 for n in range(0, T, 2)}
            two = {0: (2,) + (0,) * (phi - 1)}
            yield from ((N, T, A, B), (N, T, B, B), (N, T, A, two))
    # the product limb +-(2^127 - 1) fills a signed 16-byte limb exactly
    for top in (2 ** 127 - 1, -(2 ** 127 - 1)):
        yield 1, 1, {0: (top,)}, {0: (1,)}


def small_products():
    """(N, T, A, B) inputs with N = 1, T = 1 or one empty operand."""
    yield 1, 1, {0: (-128,)}, {0: (-128,)}
    yield 1, 9, {0: (-3,), 4: (5,)}, {1: (-2,), 2: (7,)}
    yield 3, 1, {0: (-1, 4)}, {0: (2, -5)}
    yield 4, 6, {}, {0: (1, -1)}
    yield 4, 6, {2: (1, -1)}, {}


def byte_width_products():
    """(N, T, A, B) inputs whose derived product bound h lies just below and
    just above each byte boundary 2^(8m-1), m = 1..9, so the multiply runs
    at every byte width 1..10.  At N = 1, T = 1 the product limb is +-h
    itself; at N = 3, T = 2 the columns fold and reduce."""
    for m in range(1, 10):
        edge = 2 ** (8 * m - 1)
        for a in (edge - 1, -(edge - 1), edge, -edge):
            yield 1, 1, {0: (a,)}, {0: (1,)}
        scale = 2 * 2 * reduction_norm(3)  # T * phi * reduction_norm at N = 3
        for a in ((edge - 1) // scale, (edge - 1) // scale + 1):
            yield 3, 2, {0: (a, -a), 1: (-a, 1)}, {0: (1, 0), 1: (-1, 1)}


def edge_products():
    """(N, T, A, B) inputs at the edges of the packing."""
    yield from huge_products()
    yield from small_products()
    yield from byte_width_products()


def with_examples(cases):
    """hypothesis.example for each case, run before the drawn inputs."""
    def apply(test):
        for case in cases:
            test = example(case)(test)
        return test
    return apply


class TestProductKernel:
    @with_examples(edge_products())
    @settings(max_examples=150, deadline=None)
    @given(packed_operands())
    def test_product_matches_naive(self, case):
        # one multiply, column masks and Phi_N row folds against the
        # schoolbook convolution reduced mod Phi_N
        N, T, A, B = case
        phi = totient(N)
        x, y = pack(N, T, 3, A), pack(N, T, 4, B)
        p = convolve_int(N, T, x, y)
        den, got = unpacked(p)
        expect = reduce_each(N, naive(N, T, A, B))
        assert den == 12
        assert {n: v[:phi] for n, v in got.items()} == expect
        assert p.height == T * phi * x.height * y.height * reduction_norm(N)
        assert p.is_zero() == (not expect)
        # the product is a valid operand again, in the same layout
        assert {n: v[:phi] for n, v in convolve_int(N, T, p, x).items()} == \
            reduce_each(N, naive(N, T, expect, A))

    def test_edge_products_span_byte_widths(self):
        # each byte boundary 2^(8m-1), m = 1..9, has a bound just below it
        # and one at or just above it among the examples
        below, above = set(), set()
        for N, T, A, B in byte_width_products():
            x, y = pack(N, T, 1, A), pack(N, T, 1, B)
            h = T * totient(N) * x.height * y.height * reduction_norm(N)
            m = next(m for m in range(1, 11) if h < 2 ** (8 * m - 1))
            if h >= 2 ** (8 * m - 1) - 16:
                below.add(m)
            if m > 1 and h <= 2 ** (8 * m - 9) + 16:
                above.add(m)
        assert below >= set(range(1, 10)) and above >= set(range(2, 11))

    def test_operands_must_fit_the_layout(self):
        x = pack(3, 4, 1, {0: (1, 2)})
        for y in (pack(3, 5, 1, {0: (1, 2)}),
                  pack(4, 4, 1, {0: (1, 2)}), {0: (1, 2)}):
            for A, B in ((x, y), (y, x)):
                with pytest.raises(ValueError):
                    convolve_int(3, 4, A, B)
        with pytest.raises(ValueError):  # dicts are not packed series
            convolve_int(3, 4, {0: (1, 2, 0)}, {1: (0, 1, 0)})
        # a flat list holds order * level entries: no more, no fewer
        for length in (0, 11, 13, 15, 16):
            with pytest.raises(ValueError, match="order \\* level = 12 entries"):
                PackedSeries.pack(3, 4, 1, [1] * length)

    def test_no_tuple_arithmetic(self):
        # a NamedTuple would repeat or concatenate instead of raising
        x = pack(3, 4, 1, {0: (1, 2)})
        for op in (lambda: x * x, lambda: x * 3, lambda: 3 * x, lambda: x + x,
                   lambda: x + (1,)):
            with pytest.raises(TypeError):
                op()
        assert dict(x.items()) == unpacked(x)[1] == {0: (1, 2, 0)}

    def test_width_checks_survive_optimize(self):
        # under python -O an assert would vanish; the checks must still raise
        code = """
import sys
from eiskron import qseries
from eiskron.qseries import PackedSeries, linear_combination
if not sys.flags.optimize:
    sys.exit(3)
x = PackedSeries.pack(3, 4, 1, [2 ** 70, -1, 0] + [0] * 6 + [5, 2 ** 70, 0])
def raises(run):
    try:
        run()
    except ArithmeticError as exc:
        print(exc)
    else:
        sys.exit(4)
raises(lambda: x.at(8))  # below the height's own byte width
byte = qseries._byte_width
qseries._byte_width = lambda bound: byte(bound) - 1  # the multiply one byte too narrow
raises(lambda: qseries.convolve_int(3, 4, x, x))
qseries._byte_width = byte
narrow = qseries._limb_width
qseries._limb_width = lambda bound: narrow(bound) - 8  # storage one limb too narrow
raises(lambda: qseries.convolve_int(3, 4, x, x))
raises(lambda: linear_combination(3, 4, [(1, x), (2, x)]))
"""
        src = os.path.dirname(os.path.dirname(eiskron.__file__))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # x has height 2^70; x*x has bound h = 4*2*2^140*2 < 2^(8*19-1)
        assert proc.stdout.splitlines() == ["limb width 8 too small for the packed series",
                                            "limb width 18 too small for the product",
                                            "limb width 16 too small for the product",
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
        with pytest.raises(TypeError):
            f.data[0] = 1
        g = eisenstein_qexp(idx, 10)
        assert {n: c.coeffs for n, c in g.coeffs.items()} == before

    @pytest.mark.parametrize("name", ["level", "order", "den", "data", "other"])
    def test_cached_series_attributes_cannot_be_changed(self, name):
        from eiskron.eisenstein import EisensteinIndex, eisenstein_qexp
        idx = EisensteinIndex(4, 3, 1, 0)
        f = eisenstein_qexp(idx, 10)
        before = (f.level, f.order, f.den, f.data)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(f, name, 7 if name != "data" else (1,) + (0,) * 29)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, name)
        g = eisenstein_qexp(idx, 10)
        assert g is f
        assert (g.level, g.order, g.den, g.data) == before
        h = pickle.loads(pickle.dumps(g))
        assert (h.level, h.order, h.den, h.data) == before

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


def test_coefficient_of_another_level_rejected():
    with pytest.raises(LevelMismatchError):
        QExpansion(3, 5, {0: one(4)})


def test_from_int_form_rejects_bad_input():
    with pytest.raises(ValueError):
        from_int_form(3, 0, 1, [])
    with pytest.raises(ValueError):
        from_int_form(3, 5, 1, [1, 2])
    # a row-major list holds order * level entries: no more, no fewer
    assert from_int_form(3, 2, 1, [1, 0, 0, 0, 0, 7]).coeffs == \
        {0: one(3), 1: CycNum.from_rat(3, 7) * zeta_pow(3, 2)}
    for length in (0, 2, 5, 7, 9):
        with pytest.raises(ValueError, match="order \\* level = 6 entries"):
            from_int_form(3, 2, 1, [1] * length)


def test_str_of_zero_series():
    assert str(QExpansion.zero(3, 5)) == "O(q^{5/3})"


def test_exponent_out_of_range_rejected():
    with pytest.raises(ValueError):
        QExpansion(2, 5, {5: one(2)})
    with pytest.raises(ValueError):
        QExpansion(2, 5, {-1: one(2)})
