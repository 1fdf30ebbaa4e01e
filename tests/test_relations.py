import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eiskron
from eiskron import qseries, relations
from eiskron.cyclotomic import totient
from eiskron.eisenstein import EisensteinIndex, eisenstein_qexp
from eiskron.qseries import PackedSeries, QExpansion, _byte_width, act_int_form, widen
from eiskron.relations import (HomPoly, InvalidInstanceError, RelationInstance,
                               bracket, coeff_alpha, coeff_beta, coeff_gamma,
                               enumerate_instances, poly_P, poly_Q, poly_R,
                               recurrence_check, relation_residual, run_scan,
                               verify_instance)


class TestHomPoly:
    def test_monomial_eval(self):
        p = HomPoly.monomial(2, 1)  # X^2 Y
        assert p.eval(2, 3) == 12

    def test_derivatives(self):
        p = HomPoly.monomial(2, 1)
        assert p.deriv_x() == HomPoly(2, [0, 2, 0]).scale(1)  # 2XY
        assert p.deriv_x().coeffs == (0, 2, 0)
        assert p.deriv_y() == HomPoly.monomial(2, 0)  # X^2

    def test_euler_identity(self):
        # x p_x + y p_y = deg * p for homogeneous p
        p = HomPoly(3, [1, -2, Fraction(1, 3), 5])
        for x, y in [(1, 2), (Fraction(2, 7), -3)]:
            assert (x * p.deriv_x().eval(x, y) + y * p.deriv_y().eval(x, y)
                    == 3 * p.eval(x, y))

    def test_zero_polys_equal_across_degrees(self):
        assert HomPoly.zero(2) == HomPoly.zero(0)
        assert hash(HomPoly.zero(1)) == hash(HomPoly.zero(2))
        assert len({HomPoly.zero(1), HomPoly.zero(2)}) == 1


class TestPQRPolynomials:
    def test_seed_values(self):
        one = HomPoly(0, [1])
        assert poly_P(0, 0) == one
        assert poly_Q(0, 0) == one
        assert poly_R(0, 0) == one

    def test_q_11(self):
        # (-X-Y) X = -X^2 - XY
        assert poly_Q(1, 1).coeffs == (0, -1, -1)

    def test_r_02(self):
        # (-X-Y)^2 = X^2 + 2XY + Y^2
        assert poly_R(0, 2).coeffs == (1, 2, 1)

    @pytest.mark.parametrize("k1,k2", list(itertools.product(range(5), range(5))))
    def test_against_pointwise_oracle(self, k1, k2):
        # compare the expanded coefficient arrays against direct evaluation
        pts = [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 3)),
               (Fraction(7), Fraction(-4))]
        for x, y in pts:
            assert poly_P(k1, k2).eval(x, y) == x ** k1 * y ** k2
            assert poly_Q(k1, k2).eval(x, y) == (-x - y) ** k1 * x ** k2
            assert poly_R(k1, k2).eval(x, y) == y ** k1 * (-x - y) ** k2


class TestCoefficients:
    def test_seed(self):
        assert coeff_alpha(0, 0) == coeff_beta(0, 0) == coeff_gamma(0, 0) == -1

    def test_split_10(self):
        assert coeff_alpha(1, 0) == -1
        assert coeff_beta(1, 0) == Fraction(1, 2)
        assert coeff_gamma(1, 0) == Fraction(1, 2)

    def test_gamma_23(self):
        assert coeff_gamma(2, 3) == Fraction(1, 60)

    def test_out_of_range_is_zero(self):
        assert coeff_alpha(-1, 3) == 0
        assert coeff_beta(2, -1) == 0
        assert coeff_gamma(-1, -1) == 0


class TestBracket:
    def test_degree_zero(self):
        f = bracket(HomPoly(0, [1]), (1, 0), (0, 1), 3, 20)
        a = eisenstein_qexp(EisensteinIndex(1, 3, 1, 0), 20)
        b = eisenstein_qexp(EisensteinIndex(1, 3, 0, 1), 20)
        assert f.field_equals(a * b)

    def test_argument_swap_symmetry(self):
        # P(X, Y)[u, v] = P(Y, X)[v, u]
        P = HomPoly(2, [Fraction(1), Fraction(-3), Fraction(1, 2)])
        Pswap = HomPoly(2, list(reversed(P.coeffs)))
        f = bracket(P, (1, 2), (0, 1), 4, 24)
        g = bracket(Pswap, (0, 1), (1, 2), 4, 24)
        assert f.field_equals(g)

    def test_linearity(self):
        x = HomPoly(1, [0, 1])  # coeffs[i] multiplies X^i Y^{deg-i}
        y = HomPoly(1, [1, 0])
        xy = HomPoly(1, [1, 1])
        a, b, N, T = (1, 0), (1, 1), 2, 16
        s = bracket(x, a, b, N, T) + bracket(y, a, b, N, T)
        assert bracket(xy, a, b, N, T).field_equals(s)

    @pytest.mark.parametrize("N", [0, -1])
    def test_level_below_one_rejected(self, N):
        with pytest.raises(ValueError, match="level must be >= 1"):
            bracket(HomPoly.monomial(0, 0), (1, 0), (0, 1), N, 8)


class TestInstanceValidation:
    def test_c_derived(self):
        inst = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1))
        assert inst.c == (2, 2)

    def test_given_c_equals_derived_c(self):
        given = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1), (-1, 5))
        derived = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1))
        assert given == derived and hash(given) == hash(derived)

    def test_explicit_c_checked(self):
        RelationInstance(3, 2, 0, 0, (1, 0), (0, 1), (2, 2))
        with pytest.raises(InvalidInstanceError):
            RelationInstance(3, 2, 0, 0, (1, 0), (0, 1), (1, 1))

    def test_zero_parameter_rejected(self):
        with pytest.raises(InvalidInstanceError):
            RelationInstance(3, 2, 0, 0, (0, 0), (0, 1))
        with pytest.raises(InvalidInstanceError):
            # c = -(a+b) = 0
            RelationInstance(3, 2, 0, 0, (1, 0), (2, 0))

    def test_bad_split_rejected(self):
        with pytest.raises(InvalidInstanceError):
            RelationInstance(3, 4, 0, 0, (1, 0), (0, 1))
        with pytest.raises(InvalidInstanceError):
            RelationInstance(3, 2, -1, 1, (1, 0), (0, 1))


class TestEnumerate:
    def test_level_one_empty(self):
        assert list(enumerate_instances(1, 8)) == []

    @pytest.mark.parametrize("N,k_max", [(2, 3), (3, 2), (4, 2)])
    def test_against_brute_force(self, N, k_max):
        got = {(i.k, i.k1, i.k2, i.a, i.b, i.c)
               for i in enumerate_instances(N, k_max)}
        vecs = [(x, y) for x in range(N) for y in range(N)]
        expect = set()
        for k in range(2, k_max + 1):
            for k1 in range(k - 1):
                for a in vecs:
                    for b in vecs:
                        c = ((-a[0] - b[0]) % N, (-a[1] - b[1]) % N)
                        if (0, 0) in (a, b, c):
                            continue
                        expect.add((k, k1, k - 2 - k1, a, b, c))
        assert got == expect
        assert len(list(enumerate_instances(N, k_max))) == len(expect)

    def test_counts(self):
        # per weight-split: ordered nonzero pairs (a,b) with a+b != 0.
        # N=2: 3*3 - 3 = 6; N=3: 8*8 - 8 = 56 (b = a is allowed at N=3,
        # since c = -2a = a != 0; only b = -a is excluded)
        assert len(list(enumerate_instances(2, 2))) == 6
        assert len(list(enumerate_instances(3, 2))) == 56


class TestResidual:
    def test_weight_two_instance(self):
        inst = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1))
        assert relation_residual(inst, 40).is_zero()

    def test_weight_two_expanded_form(self):
        # E_a E_b + E_b E_c + E_c E_a + E^(2)_a + E^(2)_b + E^(2)_c = 0
        N, T = 3, 30
        a, b, c = (1, 0), (0, 1), (2, 2)
        E1 = {p: eisenstein_qexp(EisensteinIndex(1, N, *p), T) for p in (a, b, c)}
        E2 = {p: eisenstein_qexp(EisensteinIndex(2, N, *p), T) for p in (a, b, c)}
        total = (E1[a] * E1[b] + E1[b] * E1[c] + E1[c] * E1[a]
                 + E2[a] + E2[b] + E2[c])
        assert total.is_zero()

    def test_corrupted_gamma_detected(self):
        inst = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1))
        bad = relation_residual(inst, 40, gamma=coeff_gamma(0, 0) + 1)
        assert not bad.is_zero()
        assert bad.first_nonzero_exponent() == 0

    def test_corrupted_polynomial_detected(self):
        inst = RelationInstance(3, 4, 1, 1, (1, 0), (0, 1))
        P = poly_P(1, 1)
        bad_P = HomPoly(2, [P.coeffs[0] + 1, P.coeffs[1], P.coeffs[2]])
        assert not relation_residual(inst, 40, P=bad_P).is_zero()

    def test_higher_weight_split(self):
        inst = RelationInstance(2, 8, 3, 3, (1, 0), (0, 1))
        assert relation_residual(inst, 40).is_zero()

    def test_order_stability(self):
        # spot re-verification at a higher truncation order
        inst = RelationInstance(4, 5, 2, 1, (1, 2), (3, 3))
        assert relation_residual(inst, 80).is_zero()


class TestVerifyInstance:
    def test_report_schema(self):
        inst = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1))
        report = verify_instance(inst, 40)
        assert report == {
            "instance": {"level": 3, "weight": 2, "split": [0, 0],
                         "a": [1, 0], "b": [0, 1], "c": [2, 2]},
            "order": 40,
            "residual_zero": True,
            "first_nonzero_exponent": None,
        }
        json.dumps(report)  # must be serializable

    def test_failing_report(self):
        inst = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1))
        report = verify_instance(inst, 40, alpha=Fraction(0))
        assert not report["residual_zero"]
        assert isinstance(report["first_nonzero_exponent"], int)

    def test_misspelled_override_raises(self):
        # a typo must not silently verify the canonical weights
        inst = RelationInstance(3, 4, 1, 1, (1, 0), (0, 1))
        with pytest.raises(TypeError):
            verify_instance(inst, 40, alhpa=0)
        with pytest.raises(TypeError):
            relation_residual(inst, 40, alhpa=0)

    @pytest.mark.parametrize("override", [{"P": None}, {"Q": 5}, {"R": "x"},
                                          {"P": Fraction(1)}])
    def test_override_polynomial_of_wrong_type_raises(self, override):
        inst = RelationInstance(3, 4, 1, 1, (1, 0), (0, 1))
        with pytest.raises(TypeError, match="HomPoly P, Q, R"):
            verify_instance(inst, 40, **override)
        with pytest.raises(TypeError, match="HomPoly P, Q, R"):
            relation_residual(inst, 40, **override)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "P"])
    @pytest.mark.parametrize("args", [(3, 2, 0, 0, (1, 0), (0, 1)),
                                      (3, 4, 1, 1, (1, 0), (0, 1)),
                                      (4, 5, 2, 1, (1, 2), (3, 3))])
    def test_single_mutation_agrees_with_residual(self, args, name):
        inst = RelationInstance(*args)
        k1, k2 = inst.k1, inst.k2
        P = poly_P(k1, k2)
        mutated = {"alpha": coeff_alpha(k1, k2) + 1, "beta": coeff_beta(k1, k2) + 1,
                   "gamma": coeff_gamma(k1, k2) + 1,
                   "P": HomPoly(P.degree, [P.coeffs[0] + 1, *P.coeffs[1:]])}
        override = {name: mutated[name]}
        first = relation_residual(inst, 40, **override).first_nonzero_exponent()
        assert first is not None
        assert verify_instance(inst, 40, **override)["first_nonzero_exponent"] == first


def fraction_residual(inst, order, weights):
    """The relation built in Fraction QExpansion arithmetic: the oracle."""
    N, k = inst.N, inst.k

    def E(weight, p):
        return eisenstein_qexp(EisensteinIndex(weight, N, *p), order)

    def br(P, u, v):
        acc = QExpansion.zero(N, order)
        for i, coef in enumerate(P.coeffs):
            if coef:
                acc = acc + (E(i + 1, u) * E(P.degree - i + 1, v)).scale(coef)
        return acc

    total = (br(weights["P"], inst.a, inst.b) + br(weights["Q"], inst.b, inst.c)
             + br(weights["R"], inst.c, inst.a))
    for name, p in (("alpha", inst.a), ("beta", inst.b), ("gamma", inst.c)):
        total = total + E(k, p).scale(-weights[name])
    return total


rationals = st.one_of(
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 45, 10 ** 45), st.integers(1, 10 ** 45)))


@st.composite
def mutated_instances(draw):
    N = draw(st.integers(2, 6))
    k = draw(st.integers(2, 6))
    k1 = draw(st.integers(0, k - 2))
    point = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))
    a, b = draw(point), draw(point)
    c = ((-a[0] - b[0]) % N, (-a[1] - b[1]) % N)
    assume((0, 0) not in (a, b, c))
    inst = RelationInstance(N, k, k1, k - 2 - k1, a, b)
    order = draw(st.integers(1, 40))
    name = draw(st.sampled_from([None, "alpha", "beta", "gamma", "P", "Q", "R"]))
    override = {}
    if name in ("alpha", "beta", "gamma"):
        override[name] = draw(rationals)
    elif name is not None:
        poly = relations._canonical(inst.k1, inst.k2)[name]
        coeffs = list(poly.coeffs)
        coeffs[draw(st.integers(0, poly.degree))] = draw(rationals)
        override[name] = HomPoly(poly.degree, coeffs)
    return inst, order, override


class TestPackedResidualOracle:
    @settings(max_examples=60, deadline=None)
    @given(mutated_instances())
    def test_matches_fraction_arithmetic(self, case):
        inst, order, override = case
        oracle = fraction_residual(
            inst, order, {**relations._canonical(inst.k1, inst.k2), **override})
        report = verify_instance(inst, order, **override)
        assert report["residual_zero"] == oracle.is_zero()
        assert report["first_nonzero_exponent"] == oracle.first_nonzero_exponent()
        assert relation_residual(inst, order, **override).field_equals(oracle)
        if not override:
            assert report["residual_zero"]

    def test_huge_override_stays_exact(self):
        inst = RelationInstance(4, 5, 2, 1, (1, 2), (3, 3))
        P = poly_P(2, 1)
        tiny = HomPoly(P.degree, [P.coeffs[0] + Fraction(1, 10 ** 40), *P.coeffs[1:]])
        for override in ({"alpha": Fraction(10 ** 40)}, {"P": tiny}):
            oracle = fraction_residual(
                inst, 40, {**relations._canonical(2, 1), **override})
            report = verify_instance(inst, 40, **override)
            assert not report["residual_zero"]
            assert report["first_nonzero_exponent"] == oracle.first_nonzero_exponent()


def group_reps(group):
    """The representative pairs of a triple-orbit group of _orbits."""
    return [rep for rep, _ in group]


class TestProductCache:
    def test_cold_scan_convolves_each_unordered_product_once(self, monkeypatch):
        # (i, a, j, b) and (j, b, i, a) are one product: one convolution; no
        # triple-orbit group builds both a product and its negative
        # (i, -a, j, -b), whose triple is in the same orbit; and only the
        # representative
        # instances' products are built
        relations._product.cache_clear()
        relations._orbit_series.cache_clear()
        calls, built = [], []
        convolve, product = relations.convolve_int, relations._product.__wrapped__

        def counting(level, order, A, B):
            calls.append((level, tuple(sorted((id(A), id(B))))))
            return convolve(level, order, A, B)

        def recording(i, a, j, b, N, order):
            built.append(pm_class(N, i, a, j, b))
            return product(i, a, j, b, N, order)

        monkeypatch.setattr(relations, "convolve_int", counting)
        monkeypatch.setattr(relations, "_product", lru_cache(maxsize=None)(recording))
        assert run_scan(4, 4, 40)["failed"] == 0
        assert len(calls) == 200
        assert len(set(calls)) == len(calls)
        # no product of a +- class is built twice
        assert len(built) == len(set(built)) == 200
        # and the products are exactly those of the representatives
        reps = set().union(*(product_keys(N, group_reps(group), 4, 40)
                             for N in range(2, 5) for group in relations._orbits(N)))
        assert len(reps) == 200

    def test_cold_scan_packs_each_series_once(self, monkeypatch, cold_caches):
        # the equivariance check compares the builder's vectors, so every
        # built series is packed once, after its checks, and nothing else is
        built, packed = [], []
        build, pack = relations.eisenstein_int_form, PackedSeries.pack

        def building(idx, order):
            built.append(idx)
            return build(idx, order)

        def packing(cls, *args):
            packed.append(args)
            return pack(*args)

        monkeypatch.setattr(relations, "eisenstein_int_form", building)
        monkeypatch.setattr(PackedSeries, "pack", classmethod(packing))
        assert run_scan(4, 4, 40)["failed"] == 0
        assert len(packed) == len(built) == 104
        assert len(set(built)) == len(built)

    def test_cold_scan_widens_each_value_once_per_group(self, monkeypatch, cold_caches):
        # every value is stored at the least width its height needs, and a
        # product's height bounds its operands', a residual's its terms':
        # the scan never narrows.  A series enters many products at one
        # multiply width, and a product many residuals, and each (value,
        # width) pair is converted once per triple-orbit group for all of
        # them (qseries.widen); without that memo this scan widens 1,698
        # times
        groups, orbits = [0], relations._orbits

        def marking(N):
            for group in orbits(N):
                groups[0] += 1
                yield group

        calls, at = [], PackedSeries.at

        def counting(self, width):
            calls.append((groups[0], self, width))
            return at(self, width)

        monkeypatch.setattr(relations, "_orbits", marking)
        monkeypatch.setattr(PackedSeries, "at", counting)
        assert run_scan(4, 4, 40)["failed"] == 0
        assert [c for c in calls if c[2] < c[1].width] == []
        assert len(calls) == len(set(calls)) == 395
        assert sum(c[2] > c[1].width for c in calls) == 344

    def test_every_value_sits_at_its_byte_width(self, monkeypatch, cold_caches):
        # every series, product and residual of a scan is stored at the
        # least byte width its height needs, and its value is its own limbs
        # packed at that width; this scan's products reach 9 bytes and its
        # residuals 10, past the 8-byte edge
        made = {"series": [], "product": [], "residual": []}

        def recording(kind, make):
            def run(*args):
                x = make(*args)
                made[kind].append(x)
                return x
            return run

        monkeypatch.setattr(PackedSeries, "pack",
                            staticmethod(recording("series", PackedSeries.pack)))
        monkeypatch.setattr(relations, "convolve_int",
                            recording("product", relations.convolve_int))
        monkeypatch.setattr(relations, "linear_combination",
                            recording("residual", relations.linear_combination))
        assert run_scan(4, 8, 100)["failed"] == 0
        for values in made.values():
            for x in values:
                N, phi = x.level, totient(x.level)
                s = 2 * phi - 1
                least = next(w for w in range(1, 64) if x.height < 2 ** (8 * w - 1))
                assert x.width == _byte_width(x.height) == least
                data = x.unpack()[1]
                assert max(map(abs, data), default=0) <= x.height
                cols = [data[j::N] for j in range(phi)]
                assert qseries._pack(cols, x.order * s, x.width, s) == x.value
        assert {kind: max(x.width for x in values) for kind, values in made.items()} == \
            {"series": 8, "product": 9, "residual": 10}

    def test_declared_height_bounds_every_product(self, monkeypatch, cold_caches):
        # a product's height is a derived bound, used as is for the limb
        # width: every limb of every product of every instance with N <= 5,
        # k <= 6 at order 40 must obey it.  The scan builds only its
        # representatives' products, so the instances are walked directly.
        convolve = relations.convolve_int
        checked, over = [0], []

        def measuring(level, order, A, B):
            p = convolve(level, order, A, B)
            measured = max(map(abs, p.unpack()[1]), default=0)
            checked[0] += 1
            if measured > p.height:
                over.append((p.level, measured, p.height))
            return p

        monkeypatch.setattr(relations, "convolve_int", measuring)
        for N in range(2, 6):
            relations._product.cache_clear()
            assert all(verify_instance(inst, 40)["residual_zero"]
                       for inst in enumerate_instances(N, 6))
        assert checked[0] > 1000 and over == []

    def test_scan_keeps_one_level_cached(self, monkeypatch):
        caches = (relations._orbit_series, relations._product)
        for c in caches + (widen,):
            c.cache_clear()
        # the widen keys, (value, width), of each triple-orbit group, by level
        keys, orbits_of, memo = {}, relations._orbits, qseries.widen

        def marking(N):
            for group in orbits_of(N):
                keys.setdefault(N, []).append(set())
                yield group

        def recording(x, width):
            keys[x.level][-1].add((x, width))
            return memo(x, width)

        monkeypatch.setattr(relations, "_orbits", marking)
        monkeypatch.setattr(qseries, "widen", recording)
        assert run_scan(4, 4, 40)["failed"] == 0
        sizes = [c.cache_info().currsize for c in caches]
        assert all(sizes)
        # no widened value of level 3 or 4 is left: the memo holds the keys
        # of the last group, level 2's one group, only, and a level-3 or
        # level-4 lookup misses
        assert len(keys[2]) == 1 and holds_exactly(widen, keys[2][-1])
        for N in (3, 4):
            misses = widen.cache_info().misses
            widen(*next(iter(keys[N][0])))
            assert widen.cache_info().misses == misses + 1
        # the scan runs its largest level first and level 2 last: no level-3
        # or level-4 entry is left, and a lookup there misses
        for N in (3, 4):
            for c, key in ((relations._orbit_series, (2, N, (1, 0), 40)),
                           (relations._product, (1, (0, 1), 1, (1, 0), N, 40))):
                misses = c.cache_info().misses
                c(*key)
                assert c.cache_info().misses == misses + 1
        for N in (2, 4):
            for c in caches:
                c.cache_clear()
            relations._scan_level((N, 4, 40))
            groups = keys[N][-len(list(orbits_of(N))):]
            if N == 2:
                # the level-2 task alone fills the caches as much as the scan
                assert [c.cache_info().currsize for c in caches] == sizes
            # the orbit cache holds every series of the level, weights 1-4 at
            # every nonzero point, ...
            orbit_map = relations._orbit_map(N)
            orbits = {(k, N, orbit_map[p][0], 40) for k in range(1, 5)
                      for p in itertools.product(range(N), repeat=2) if p != (0, 0)}
            assert holds_exactly(relations._orbit_series, orbits)
            assert (sum(len(relations._orbit_series(*key)) for key in orbits)
                    == 4 * (N * N - 1))
            # ... and the product cache the last triple-orbit group's only
            *_, last = relations._orbits(N)
            assert holds_exactly(relations._product,
                                 product_keys(N, group_reps(last), 4, 40))
            # ... and the widen memo the last group's keys only: a key that
            # only an earlier group of level 4 used misses
            assert holds_exactly(widen, groups[-1])
            if N == 4:
                stale = set().union(*groups) - groups[-1]
                misses = widen.cache_info().misses
                widen(*next(iter(stale)))
                assert widen.cache_info().misses == misses + 1


def negate(x, N):
    return (-x[0] % N, -x[1] % N)


def symmetries(N):
    """The group B, from its definition: (s, j, t) with s = +-1, j mod N,
    t a unit mod N, acting as x -> s*(x1, j*x1 + t*x2)."""
    return [(s, j, t) for s in (1, -1) for j in range(N) for t in range(N)
            if math.gcd(t, N) == 1]


def act(g, x, N):
    s, j, t = g
    return (s * x[0] % N, s * (j * x[0] + t * x[1]) % N)


def pm_class(N, i, x, j, y):
    """The product E^{(i)}_x E^{(j)}_y up to the order of its factors and
    up to the sign of negating both points."""
    return (N, frozenset([frozenset([(i, x), (j, y)]),
                          frozenset([(i, negate(x, N)), (j, negate(y, N))])]))


def product_keys(N, pairs, k_max, order):
    """The distinct _product keys of the instances on these (a, b) pairs,
    read off the closed-form polynomials: (i, x, j, y, N, order) with
    (i, x) <= (j, y) for each nonzero monomial of P[a,b], Q[b,c], R[c,a]."""
    keys = set()
    for a, b in pairs:
        for k in range(2, k_max + 1):
            for k1 in range(k - 1):
                inst = RelationInstance(N, k, k1, k - 2 - k1, a, b)
                for poly, u, v in ((poly_P, inst.a, inst.b), (poly_Q, inst.b, inst.c),
                                   (poly_R, inst.c, inst.a)):
                    P = poly(k1, k - 2 - k1)
                    for i, coef in enumerate(P.coeffs):
                        if coef:
                            x, y = sorted([(i + 1, u), (P.degree - i + 1, v)])
                            keys.add((*x, *y, N, order))
    return keys


def holds_exactly(cache, keys):
    """True iff an lru_cache holds these keys and no other: every lookup
    hits, and the cache has as many entries as keys."""
    info = cache.cache_info()
    for key in keys:
        cache(*key)
    after = cache.cache_info()
    return after.misses == info.misses and after.currsize == len(keys)


class TestScanSharding:
    def test_tasks_own_whole_triples(self):
        owner, covered = {}, []
        for N in range(2, 6):
            for t, group in enumerate(relations._orbits(N)):
                for (a, b), orbit in group:
                    # each orbit is the B-orbit of its representative
                    assert sorted(orbit) == sorted({(act(g, a, N), act(g, b, N))
                                                    for g in symmetries(N)})
                    covered += [(N, x, y) for x, y in orbit]
                    c = ((-a[0] - b[0]) % N, (-a[1] - b[1]) % N)
                    for x, y in ((a, b), (b, c), (c, a)):
                        # the products of a representative instance are over
                        # the pairs {x, y} inside its triple; neither {x, y}
                        # nor its negative {-x, -y}, in the same triple
                        # orbit, is in another group
                        for pair in ((x, y), (negate(x, N), negate(y, N))):
                            assert owner.setdefault((N, frozenset(pair)), t) == t
        # every ordered pair is covered by exactly one orbit
        expected = [(N, a, b) for N in range(2, 6) for a, b in relations._pairs(N)]
        assert sorted(covered) == sorted(expected)

    def test_scan_runs_one_task_per_level_largest_first(self, monkeypatch):
        scan_level, tasks = relations._scan_level, []

        def recording(task):
            tasks.append(task)
            return scan_level(task)

        monkeypatch.setattr(relations, "_scan_level", recording)
        assert run_scan(5, 4, 24)["failed"] == 0
        assert tasks == [(N, 4, 24) for N in (5, 4, 3, 2)]

    def test_pooled_scan_builds_each_series_once(self, monkeypatch, tmp_path,
                                                  cold_caches):
        # a level is one task, so a forked scan builds each series once, as
        # a serial scan does; the children are forked, so each logs its
        # builder calls to a file
        log, build = tmp_path / "builds", relations.eisenstein_int_form

        def logging(idx, order):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {idx}\n")
            return build(idx, order)

        monkeypatch.setattr(relations, "eisenstein_int_form", logging)
        counts = []
        for workers in (1, 2):
            log.write_text("")
            assert run_scan(4, 4, 40, workers=workers)["failed"] == 0
            lines = log.read_text().splitlines()
            assert len({line.split(" ", 1)[1] for line in lines}) == len(lines)
            counts.append(len(lines))
        assert counts == [104, 104]

    def test_one_level_scan_starts_no_pool(self, monkeypatch):
        fork, forks = os.fork, []

        def counting():
            forks.append(1)
            return fork()

        # two levels and two workers: the caller and one child
        monkeypatch.setattr(os, "fork", counting)
        assert run_scan(3, 3, 12, workers=2) == run_scan(3, 3, 12)
        assert forks == [1]

        def no_fork():
            raise AssertionError("a scan of one level forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run_scan(2, 3, 12, workers=2) == run_scan(2, 3, 12)

    def test_two_children_split_round_robin(self, monkeypatch, tmp_path):
        # workers=3 over levels 5..2: the caller scans 5, one child 4 and 2,
        # the other 3; the summary is the serial one
        log, scan_level = tmp_path / "levels", relations._scan_level

        def logging(task):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {task[0]}\n")
            return scan_level(task)

        serial = run_scan(5, 3, 12)
        monkeypatch.setattr(relations, "_scan_level", logging)
        assert run_scan(5, 3, 12, workers=3) == serial
        owners = {}
        for line in log.read_text().splitlines():
            pid, N = map(int, line.split())
            owners.setdefault(pid, []).append(N)
        assert owners.pop(os.getpid()) == [5]
        assert sorted(owners.values()) == [[3], [4, 2]]

    def test_child_without_result_raises(self, monkeypatch):
        scan_level = relations._scan_level

        def dying(task):
            if task[0] == 2:
                os._exit(3)
            return scan_level(task)

        monkeypatch.setattr(relations, "_scan_level", dying)
        with pytest.raises(RuntimeError, match=r"levels \[2\] exited with status 3"):
            run_scan(3, 3, 12, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_error_leaves_no_child(self, monkeypatch):
        # the caller's level raises while its child still scans: the child
        # is killed and reaped before the error propagates
        scan_level = relations._scan_level

        def failing(task):
            if task[0] == 5:
                raise ZeroDivisionError("caller level")
            return scan_level(task)

        monkeypatch.setattr(relations, "_scan_level", failing)
        with pytest.raises(ZeroDivisionError, match="caller level"):
            run_scan(5, 4, 40, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pooled_scan_leaves_no_child(self):
        assert run_scan(4, 3, 12, workers=2) == run_scan(4, 3, 12)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_runs_serially(self, monkeypatch):
        serial = run_scan(4, 3, 12)
        monkeypatch.delattr(os, "fork")
        assert run_scan(4, 3, 12, workers=2) == serial

    def test_parallel_scan_imports_no_pool(self):
        # the fork path needs neither concurrent.futures nor multiprocessing,
        # whose imports alone cost more than a small level's scan
        code = """
import sys
from eiskron.cli import main
assert main(["scan", "--level-max", "3", "--weight-max", "3", "--order", "12",
             "--json", "--parallel", "2"]) == 0
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""
        src = os.path.dirname(os.path.dirname(eiskron.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_representatives_are_picked_one_triple_at_a_time(self):
        # the representatives of one orbit of zero-sum triples lie in one
        # triple, so that they share their products
        for N in range(2, 7):
            triples = {}
            for group in relations._orbits(N):
                for a, b in group_reps(group):
                    t = frozenset([a, b, negate((a[0] + b[0], a[1] + b[1]), N)])
                    orbit = frozenset(frozenset(act(g, x, N) for x in t)
                                      for g in symmetries(N))
                    triples.setdefault(orbit, set()).add(t)
            assert triples and all(len(ts) == 1 for ts in triples.values())

    def test_cold_scan_builds_each_product_once(self, monkeypatch):
        # the misses of every triple-orbit group add up to the scan's
        # distinct product keys, and after each group the cache holds that
        # group's products only
        relations._product.cache_clear()
        relations._orbit_series.cache_clear()
        orbits, misses, seen = relations._orbits, [], []

        def checking(N):
            for group in orbits(N):
                yield group
                # the scan has verified this group's representatives
                keys = product_keys(N, group_reps(group), 4, 40)
                misses.append(relations._product.cache_info().misses)
                assert holds_exactly(relations._product, keys)
                seen.append(keys)

        monkeypatch.setattr(relations, "_orbits", checking)
        assert run_scan(4, 4, 40)["failed"] == 0
        distinct = set().union(*seen)
        assert len(distinct) == sum(len(keys) for keys in seen)  # groups share none
        assert sum(misses) == len(distinct) == 200
        # and no two keys are one product up to sign: no group needs a
        # product and its negative
        assert len({pm_class(N, i, x, j, y) for i, x, j, y, N, _ in distinct}) == 200


@pytest.fixture
def cold_caches():
    """Empty scan caches before and after the test, so that no series it
    built outlives it."""
    caches = (relations._orbit_series, relations._product, widen)

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    yield
    clear()


def as_dict(N, flat):
    """The builder's flat list as {n: vector}, all-zero vectors dropped."""
    return {n: vec for n, vec in enumerate(zip(*[iter(flat)] * N)) if any(vec)}


def as_flat(N, order, data):
    """{n: length-N vector} as the builder's flat list over n < order."""
    flat = [0] * (N * order)
    for n, vec in data.items():
        assert 0 <= n < order and len(vec) == N
        flat[n * N:(n + 1) * N] = vec
    return flat


def perturb(k, N, point, change):
    """eisenstein_int_form with E^{(k)}_point at level N replaced by
    change(den, data), a den and a dict of integer vectors: the builder's
    flat list passes through as_dict and back through as_flat."""
    exact = relations.eisenstein_int_form

    def perturbed(idx, order):
        den, flat = exact(idx, order)
        if (idx.k, idx.N, (idx.a1, idx.a2)) == (k, N, point):
            den, data = change(den, as_dict(N, flat))
            flat = as_flat(N, order, data)
        return den, flat

    return perturbed


def plus_one(den, data):
    # +1/den in the first coefficient
    n = min(data)
    return den, {**data, n: (data[n][0] + 1, *data[n][1:])}


def plus_zeta(den, data):
    # +zeta/den in the first coefficient: sigma_2 moves it, at N = 3, to zeta^2
    n = min(data)
    return den, {**data, n: (data[n][0], data[n][1] + 1, *data[n][2:])}


def orbit_plus_zeta(k, N, rep, exact):
    """E^{(k)}_x + g_x (zeta q^{n/N}) at every point x of the orbit of rep,
    g_x the map the scan checks x against: every check at a point other
    than rep passes, and only the stabilizer check can see the change."""
    def perturbed(idx, order):
        den, flat = exact(idx, order)
        x = (idx.a1, idx.a2)
        r, gs = relations._orbit_map(N)[x]
        if (idx.k, idx.N, r) == (k, N, rep):
            s, j, t = gs[0] if x != r else (1, 0, 1)
            data = as_dict(N, flat)
            n = min(data)
            vec = list(data[n])
            vec[(t + n * j) % N] += s ** k
            flat = as_flat(N, order, {**data, n: tuple(vec)})
        return den, flat

    return perturbed


# (k, N, point, change, scan args, bracket args or None, message)
PERTURBATIONS = {
    # E^{(2)}_{(3,1)} = g E^{(2)}_{(1,0)} at N = 4, g = (-1, 3, 1): not the
    # least point of its orbit
    "non_representative": (2, 4, (3, 1), lambda den, data: (den, {
        **data, 0: (data[0][0] + 1, *data[0][1:])}), (4, 3, 16), None, "is not g = "),
    # the same point over 2 den with the same vectors: only the den differs
    # from g E^{(2)}_{(1,0)}
    "double_den": (2, 4, (3, 1), lambda den, data: (2 * den, data), (4, 3, 16), None,
                   "is not g = "),
    # the representative E^{(2)}_{(1,0)} at N = 3, moved by sigma_2, which
    # fixes (1, 0)
    "stabilizer": (2, 3, (1, 0), plus_zeta, (3, 3, 16), None, "stabilizer"),
    # E^{(1)}_{(2,0)} at N = 4, given a rational constant term, which no
    # twist or Galois map moves: parity (-1, 0, 1) fixes the 2-torsion
    # point (2, 0), so the odd-weight series must vanish
    "two_torsion": (1, 4, (2, 0), lambda den, data: (den, {**data, 0: (1, 0, 0, 0)}),
                    (4, 3, 16), ((2, 0), (1, 1), 4, 16),
                    r"\(-1, 0, 1\) in its stabilizer"),
    # E^{(1)}_{(2,2)} = -E^{(1)}_{(1,1)} at N = 3, off by 1: not the least
    # point of its orbit, so its own check stops the scan and a bracket with
    # it as a factor
    "parity": (1, 3, (2, 2), plus_one, (3, 3, 20), ((2, 2), (2, 2), 3, 20),
               "is not g = "),
    # E^{(1)}_{(3,1)} = (-1, 3, 1) E^{(1)}_{(1,0)} at N = 4, off by 1: a
    # bracket at (1, 0) never reads (3, 1), yet builds and checks it with
    # the orbit of (1, 0)
    "orbit_mate": (1, 4, (3, 1), plus_one, (4, 3, 16), ((1, 0), (0, 1), 4, 16),
                   "is not g = "),
    # E^{(2)}_{(2,2)} at N = 3 plus (1 + zeta + zeta^2) q^0 = Phi_3(zeta) q^0
    # = 0: the same series in Q(zeta_3), but not the exact image g E_{(1,0)}
    # of its check, so the vector comparison stops it
    "field_zero": (2, 3, (2, 2), lambda den, data: (den, {
        **data, 0: tuple(x + den for x in data.get(0, (0, 0, 0)))}), (3, 3, 20), None,
        "is not g = "),
}


class TestEquivarianceCheck:
    @pytest.mark.parametrize("case", sorted(PERTURBATIONS))
    def test_perturbation_stops_the_scan(self, case, monkeypatch, cold_caches):
        k, N, point, change, scan, brackets, message = PERTURBATIONS[case]
        monkeypatch.setattr(relations, "eisenstein_int_form",
                            perturb(k, N, point, change))
        with pytest.raises(ArithmeticError, match=message) as serial:
            run_scan(*scan)
        if scan[0] > 2:
            # the perturbed level is the largest, so the caller's own
            # level raises, with the serial message
            with pytest.raises(ArithmeticError) as pooled:
                run_scan(*scan, workers=2)
            assert str(pooled.value) == str(serial.value)
        # one level more: the caller scans it, and the perturbed level is a
        # child's, whose exception the caller re-raises
        wider = (scan[0] + 1, *scan[1:])
        with pytest.raises(ArithmeticError, match=message) as serial:
            run_scan(*wider)
        with pytest.raises(ArithmeticError) as pooled:
            run_scan(*wider, workers=2)
        assert str(pooled.value) == str(serial.value)
        assert type(pooled.value) is type(serial.value)
        if brackets is not None:
            # a product with the perturbed factor is not built unchecked
            for cache in (relations._orbit_series, relations._product):
                cache.cache_clear()
            with pytest.raises(ArithmeticError, match=message):
                bracket(HomPoly.monomial(0, 0), *brackets)

    @pytest.mark.parametrize("case", sorted(PERTURBATIONS))
    def test_perturbation_stops_the_scan_under_O(self, case):
        code = f"""
import sys
sys.path.insert(0, {os.path.dirname(__file__)!r})
from eiskron import relations
from eiskron.relations import HomPoly
from test_relations import PERTURBATIONS, perturb
if not sys.flags.optimize:
    sys.exit(3)
k, N, point, change, scan, brackets, _ = PERTURBATIONS[{case!r}]
relations.eisenstein_int_form = perturb(k, N, point, change)
calls = [lambda: relations.run_scan(*scan)]
if brackets is not None:
    calls.append(lambda: relations.bracket(HomPoly.monomial(0, 0), *brackets))
for call in calls:
    for cache in (relations._orbit_series, relations._product):
        cache.cache_clear()
    try:
        out = call()
    except ArithmeticError as exc:
        print(type(exc).__name__)
    else:
        print(out)
        sys.exit(4)
"""
        brackets = PERTURBATIONS[case][5]
        assert run_under_O(code) == ["ArithmeticError"] * (1 + (brackets is not None))

    def test_direct_call_checks_whole_orbit(self, monkeypatch, cold_caches):
        # verify_instance reads E^{(1)} at (1, 0) and (0, 1) only, and still
        # checks their orbit mate (3, 1)
        k, N, point, change, *_ = PERTURBATIONS["orbit_mate"]
        monkeypatch.setattr(relations, "eisenstein_int_form",
                            perturb(k, N, point, change))
        with pytest.raises(ArithmeticError, match=r"E\^\(1\)_\(3, 1\) at level 4"):
            verify_instance(RelationInstance(4, 2, 0, 0, (1, 0), (0, 1)), 16)

    def test_stabilizer_half_is_needed(self, monkeypatch, cold_caches):
        # +zeta at E^{(2)}_{(1,0)} and its image under g_x at every other
        # point x of the orbit: each x passes its check against (1, 0), and
        # only the stabilizer check, sigma_2 at (1, 0), stops the scan
        exact = relations.eisenstein_int_form
        perturbed = orbit_plus_zeta(2, 3, (1, 0), exact)
        for x in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
            r, (g,) = relations._orbit_map(3)[x]
            image = act_int_form(3, g, 2, perturbed(EisensteinIndex(2, 3, 1, 0), 16)[1])
            assert (r, image) == ((1, 0), perturbed(EisensteinIndex(2, 3, *x), 16)[1])
        monkeypatch.setattr(relations, "eisenstein_int_form", perturbed)
        with pytest.raises(ArithmeticError, match="stabilizer"):
            run_scan(3, 3, 16)

    def test_two_torsion_odd_series_vanish(self, cold_caches):
        # what the stabilizer check asks at the 2-torsion points: odd
        # weights vanish, as parity E^{(k)}_{-x} = (-1)^k E^{(k)}_x needs
        for N in (2, 4, 6):
            for x in [(a1, a2) for a1 in range(N) for a2 in range(N)
                      if (a1, a2) != (0, 0) and negate((a1, a2), N) == (a1, a2)]:
                for k in (1, 3, 5):
                    assert relations._series(k, N, *x, 24).is_zero()


def run_under_O(code):
    """stdout lines of code run by python -O with this eiskron importable;
    the process must exit 0."""
    src = os.path.dirname(os.path.dirname(eiskron.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def direct_walk(level_max, weight_max, order):
    """run_scan's summary, built from verify_instance on every instance
    with no orbit transport."""
    failures, count = [], 0
    for N in range(2, level_max + 1):
        relations._product.cache_clear()  # one level's products at a time
        for inst in enumerate_instances(N, weight_max):
            report = verify_instance(inst, order)
            count += 1
            if not report["residual_zero"]:
                failures.append(report)
    failures.sort(key=lambda r: json.dumps(r, sort_keys=True))
    return {"level_max": level_max, "weight_max": weight_max, "order": order,
            "instances": count, "passed": count - len(failures),
            "failed": len(failures), "failures": failures}


class TestOrbitTransport:
    def test_failure_reports_match_direct_walk(self, monkeypatch, cold_caches):
        # alpha + 1 in every plan: an instance fails unless E^{(k)}_a
        # vanishes, so orbits hold both outcomes, at many first exponents
        plan = relations._plan

        def mutated(k1, k2):
            p = plan(k1, k2)
            return p._replace(negated=(p.negated[0] + 1, *p.negated[1:]))

        monkeypatch.setattr(relations, "_plan", mutated)
        direct = direct_walk(5, 5, 24)
        assert 0 < direct["failed"] < direct["instances"]
        assert len({r["first_nonzero_exponent"] for r in direct["failures"]}) > 1
        for workers in (1, 2):
            for cache in (relations._orbit_series, relations._product):
                cache.cache_clear()
            assert run_scan(5, 5, 24, workers=workers) == direct, workers

    def test_direct_walk_agrees_at_criterion_1_scale(self, cold_caches):
        # every one of the 56,392 instances of acceptance criterion 1,
        # verified directly, against the transported scan
        direct = direct_walk(6, 8, 40)
        assert direct["instances"] == 56392
        assert run_scan(6, 8, 40) == direct


class TestPlan:
    def test_cached_and_override_plans_agree(self):
        failing = 0
        for N in range(2, 5):
            for inst in enumerate_instances(N, 5):
                canonical = dict(relations._canonical(inst.k1, inst.k2))
                cached = relations._residual(inst, 24, relations._plan(inst.k1, inst.k2))
                override = relations._residual(
                    inst, 24, relations._plan(inst.k1, inst.k2, **canonical))
                fields = ("den", "height", "width", "value")
                assert ([getattr(cached, f) for f in fields]
                        == [getattr(override, f) for f in fields])
                assert cached.is_zero()
                # a +1 weight fails unless its series vanishes (2-torsion, odd k)
                for name, p in (("alpha", inst.a), ("beta", inst.b), ("gamma", inst.c)):
                    report = verify_instance(inst, 24, **{name: canonical[name] + 1})
                    vanishes = relations._series(inst.k, N, *p, 24).is_zero()
                    assert report["residual_zero"] == vanishes
                    failing += not vanishes
        assert failing > 7000

    def test_cached_plan_cannot_be_changed(self):
        plan = relations._plan(2, 1)
        assert relations._plan(2, 1) is plan
        with pytest.raises((AttributeError, TypeError)):
            plan.negated = (0, 0, 0)
        with pytest.raises(TypeError):
            plan.P[0] = (1, 1, 0)


class TestRecurrences:
    def test_first_identity_by_hand(self):
        # at (1,0): -d/dY (-X-Y) = 1 = 1 * Q_{0,0}
        q10 = poly_Q(1, 0)
        assert q10.deriv_y().scale(Fraction(-1)) == HomPoly(0, [1])

    def test_alpha_boundary_by_hand(self):
        # (k-1) alpha_{1,0} + R_{1,0}(0,1) = -2 + 1 = -1 = alpha_{0,0}
        assert 2 * coeff_alpha(1, 0) + poly_R(1, 0).eval(0, 1) == coeff_alpha(0, 0)

    def test_seed_identities(self):
        rep = recurrence_check(2)
        assert rep["all_pass"] and len(rep["checks"]) == 10

    def test_small_range(self):
        rep = recurrence_check(6)
        assert rep["all_pass"]
        # 10 identities per (k1, k2) with k1 + k2 <= 4
        assert len(rep["checks"]) == 10 * sum(d + 1 for d in range(5))

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            recurrence_check(1)


class TestScan:
    def test_small_scan_passes(self):
        summary = run_scan(3, 3, 24)
        assert summary["failed"] == 0
        # (6 + 56) pairs, splits for k=2,3: 1 + 2 = 3
        assert summary["instances"] == (6 + 56) * 3

    def test_level_one_empty(self):
        summary = run_scan(1, 6, 24)
        assert summary["instances"] == 0 and summary["failed"] == 0

    def test_parallel_determinism(self):
        a = run_scan(3, 3, 16, workers=1)
        b = run_scan(3, 3, 16, workers=4)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
