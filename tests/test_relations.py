import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eiskron import relations
from eiskron.eisenstein import EisensteinIndex, eisenstein_qexp
from eiskron.qseries import QExpansion
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


class TestInstanceValidation:
    def test_c_derived(self):
        inst = RelationInstance(3, 2, 0, 0, (1, 0), (0, 1))
        assert inst.c == (2, 2)

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


class TestProductCache:
    def test_cold_scan_convolves_each_unordered_product_once(self, monkeypatch):
        # (i, a, j, b) and (j, b, i, a) are one product: one convolution
        relations._product.cache_clear()
        relations._series.cache_clear()
        calls = []
        convolve = relations.convolve_int

        def counting(level, order, A, B):
            calls.append((level, tuple(sorted((id(A), id(B))))))
            return convolve(level, order, A, B)

        monkeypatch.setattr(relations, "convolve_int", counting)
        assert run_scan(4, 4, 40)["failed"] == 0
        assert len(calls) == 836
        assert len(set(calls)) == len(calls)

    def test_declared_height_bounds_every_product(self, monkeypatch):
        # a product's height is a derived bound, used as is for the limb
        # width: every limb of every product a cold scan caches must obey it
        relations._product.cache_clear()
        relations._series.cache_clear()
        convolve = relations.convolve_int
        checked, over = [0], []

        def measuring(level, order, A, B):
            p = convolve(level, order, A, B)
            measured = max((abs(v) for vec in p.unpack()[1].values() for v in vec),
                           default=0)
            checked[0] += 1
            if measured > p.height:
                over.append((p.level, measured, p.height))
            return p

        monkeypatch.setattr(relations, "convolve_int", measuring)
        assert run_scan(5, 6, 40)["failed"] == 0
        assert checked[0] > 1000 and over == []

    def test_scan_keeps_one_level_cached(self):
        relations._product.cache_clear()
        relations._series.cache_clear()
        assert run_scan(4, 4, 40)["failed"] == 0
        caches = (relations._series, relations._product)
        sizes = [c.cache_info().currsize for c in caches]
        assert sizes[0] > 0 and sizes[1] > 0
        # no level-2 or level-3 entry is left: a lookup there misses
        for N in (2, 3):
            for c, key in ((relations._series, (2, N, 1, 0, 40)),
                           (relations._product, (1, (0, 1), 1, (1, 0), N, 40))):
                misses = c.cache_info().misses
                c(*key)
                assert c.cache_info().misses == misses + 1
        # and the level-4 tasks alone fill the caches as much as the whole scan
        for c in caches:
            c.cache_clear()
        for task in relations._scan_tasks(4, 4, 40):
            if task[0] == 4:
                relations._scan_chunk(task)
        assert [c.cache_info().currsize for c in caches] == sizes


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
