import math
import random
from fractions import Fraction as F

import pytest

from tmdesign import (
    Configuration,
    DomainError,
    NotSquarefreeError,
    PreconditionError,
    RationalPolynomial,
    add_zero,
    base_roots,
    binom_alternating_sum,
    binomial_weighted_design,
    chebyshev_gauss_check,
    chebyshev_gauss_nodes,
    choose_epsilon,
    evaluate,
    is_symmetric,
    isolate_in_brackets,
    isolate_real_roots,
    monic_from_roots,
    pad_with_antipodal_pairs,
    perturbed_interval_design,
    polygon_weighted_design,
    sturm_root_count,
    verify_interval_design,
    verify_weighted_design,
)
from tmdesign import cli, constructions, polyroot
from tmdesign.constructions import DEFAULT_EPSILON_START

from test_polyroot import ref_isolate_in_brackets, ref_isolate_real_roots


class TestBaseRoots:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (1, [F(-1, 2), F(1, 2)]),
            (2, [F(-3, 4), F(-1, 4), F(1, 4), F(3, 4)]),
            (3, [F(-5, 6), F(-1, 2), F(-1, 6), F(1, 6), F(1, 2), F(5, 6)]),
        ],
    )
    def test_instances(self, m, expected):
        assert base_roots(m) == expected

    def test_invalid_m(self):
        with pytest.raises(DomainError):
            base_roots(0)


class TestChooseEpsilon:
    def test_valid_start_returned_unchanged(self):
        # x^2 - 1/4 + 3/16 = x^2 - 1/16 has roots +-1/4 inside (-1/2, 1/2)
        assert choose_epsilon(1, F(3, 16)) == F(3, 16)

    def test_halving_past_invalid_values(self):
        # 1/2 gives x^2 + 1/4 (no real roots), 1/4 gives x^2 (double root),
        # 1/8 gives x^2 - 1/8 with roots inside the window
        assert choose_epsilon(1, F(1, 2)) == F(1, 8)

    def test_m_two_skips_double_root(self):
        # at 1/16 the quartic becomes (x^2 - 5/16)^2; the next halving works.
        # Oracle for 1/32: x^2 = (5/8 +- sqrt(1/8))/2 gives |x| of about
        # 0.6995 and 0.3684, all four inside (-3/4, 3/4).
        hi = math.sqrt((0.625 + math.sqrt(0.125)) / 2)
        assert hi < 0.75
        assert choose_epsilon(2) == F(1, 32)

    def test_window_point_never_a_root(self):
        for m in (1, 2, 3):
            eps = choose_epsilon(m)
            g = monic_from_roots(base_roots(m)).plus_constant(eps)
            assert evaluate(g, F(1, 2 * m)) == eps

    @staticmethod
    def _leaves_2m_simple_roots(m, eps):
        g = monic_from_roots(base_roots(m)).plus_constant(eps)
        window = (F(1, 2 * m) - 1, 1 - F(1, 2 * m))
        try:
            return sturm_root_count(g, *window) == 2 * m
        except NotSquarefreeError:
            return False

    @pytest.mark.parametrize("m", range(1, 13))
    def test_first_valid_element_of_the_halving_sequence(self, m):
        eps = choose_epsilon(m)
        assert self._leaves_2m_simple_roots(m, eps)
        assert eps == DEFAULT_EPSILON_START or not self._leaves_2m_simple_roots(
            m, 2 * eps
        )


    @classmethod
    def _halving_reference(cls, m, start):
        """The plain halving loop that ``choose_epsilon`` reproduces, one
        Sturm count per halving (reference copy)."""
        eps = F(start)
        while not cls._leaves_2m_simple_roots(m, eps):
            eps /= 2
        return eps

    @pytest.mark.parametrize("start", [F(1), F(3, 7), F(1, 16), F(1, 10**9)])
    def test_matches_the_halving_loop(self, start):
        for m in range(1, 17):
            assert choose_epsilon(m, start) == self._halving_reference(m, start)

    def test_at_most_one_sturm_count(self, monkeypatch):
        # The halving loop made one count per halving: 43 at m = 16.
        calls = []
        count = constructions.sturm_root_count

        def counted(*args):
            calls.append(1)
            return count(*args)

        monkeypatch.setattr(constructions, "sturm_root_count", counted)
        for m in range(1, 17):
            calls.clear()
            choose_epsilon(m)
            assert len(calls) <= 1

    def test_no_sturm_count_past_the_depth_bound(self, monkeypatch):
        # Doubling stops without a count once 2 eps reaches depth_bound;
        # only at m = 2 is 2 eps = 1/16 = eps* inside (beta, depth_bound).
        calls = []
        count = constructions.sturm_root_count

        def counted(*args):
            calls.append(1)
            return count(*args)

        monkeypatch.setattr(constructions, "sturm_root_count", counted)
        for m in range(1, 17):
            calls.clear()
            choose_epsilon(m)
            assert len(calls) == (1 if m == 2 else 0), m

    @pytest.mark.parametrize("m", range(1, 41))
    def test_integer_depths_and_derivative(self, m):
        # the depths come from the integers of F, f' is built from them too;
        # both equal the Fraction values
        base = constructions._Unperturbed(m)
        assert base.df == RationalPolynomial.from_coeffs(
            [i * c for i, c in enumerate(base.f.coeffs)][1:]
        )
        assert base.depth == [-evaluate(base.f, c) for c in base.crit]
        a, b = base.wells[0]
        for bits in (40, 80):
            c = base._critical_point(a, b, bits)
            assert base._depth(c) == -evaluate(base.f, c)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_depth_bound_is_a_tight_upper_bound(self, m):
        # depth_bound >= eps*, so f + depth_bound has lost its 2m simple
        # roots, while beta <= eps* keeps them for every smaller eps.
        base = constructions._Unperturbed(m)
        beta = min(base.depth)
        assert beta <= base.depth_bound < beta * (1 + F(1, 10**4))
        assert not self._leaves_2m_simple_roots(m, base.depth_bound)

class TestPerturbedIntervalDesign:
    def test_m1_explicit_epsilon(self):
        result = perturbed_interval_design(1, F(3, 16))
        assert result.epsilon == F(3, 16)
        assert result.certificate == (0,)
        approx = [float(x) for x in result.points.points]
        assert approx[-1] == 1.0
        assert abs(approx[0] + 0.75) < 1e-11
        assert abs(approx[1] + 0.25) < 1e-11

    def test_first_residual_cancels_for_any_valid_epsilon(self):
        # (r - 1/2) + (-r - 1/2) + 1 = 0 independently of the roots
        for eps in (F(3, 16), F(1, 8), F(1, 64)):
            result = perturbed_interval_design(1, eps)
            assert result.certificate == (0,)

    def test_m2_shape_and_certificate(self):
        result = perturbed_interval_design(2)
        assert len(result.points.points) == 5
        assert result.certificate == (0, 0)
        assert F(1) in result.points.points
        assert F(-1) not in result.points.points
        assert not is_symmetric(result.points)[0]

    def test_float_verification_matches_certificate(self):
        precision = F(1, 10**12)
        for m in (1, 2, 3, 4):
            result = perturbed_interval_design(m, precision=precision)
            pts = [float(x) for x in result.points.points]
            for k in range(1, m + 1):
                residual = sum(x ** (2 * k - 1) for x in pts)
                assert abs(residual) <= 10 * float(precision)

    def test_verifies_as_interval_design(self):
        result = perturbed_interval_design(3)
        assert verify_interval_design(result.points, 3).verdict

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(DomainError):
            perturbed_interval_design(1, F(1, 2))
        with pytest.raises(DomainError):
            perturbed_interval_design(1, F(-1, 16))

    def test_points_respect_interval_bounds(self):
        result = perturbed_interval_design(2)
        assert all(-1 < x <= 1 for x in result.points.points)


class TestIsolationFromBrackets:
    """The roots of g are isolated from the brackets that the roots and the
    critical points of f give, into the intervals of the Sturm walk."""

    @pytest.mark.parametrize("m", range(1, 41))
    def test_same_intervals_as_the_sturm_walk(self, m):
        base = constructions._Unperturbed(m)
        eps = choose_epsilon(m, base=base)
        g = base.f.plus_constant(eps)
        assert isolate_in_brackets(g, base.brackets(eps)) == isolate_real_roots(g)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_same_intervals_as_the_fraction_tree(self, m):
        # both counters of the split tree on Fraction points, walked on both
        # halves (reference copies in test_polyroot)
        base = constructions._Unperturbed(m)
        eps = choose_epsilon(m, base=base)
        g = base.f.plus_constant(eps)
        brackets = base.brackets(eps)
        ivs = isolate_in_brackets(g, brackets)
        assert ivs == ref_isolate_in_brackets(g, brackets) == ref_isolate_real_roots(g)

    @pytest.mark.slow
    def test_sixty(self):
        # test_same_intervals_as_the_sturm_walk, the bracket counter of
        # test_same_intervals_as_the_fraction_tree and
        # test_mirrored_roots_equal_direct_refinement at m = 60
        m = 60
        result = perturbed_interval_design(m)
        base = constructions._Unperturbed(m)
        g = base.f.plus_constant(result.epsilon)
        brackets = base.brackets(result.epsilon)
        assert result.g == g
        intervals = list(result.intervals)
        assert intervals == isolate_real_roots(g) == ref_isolate_in_brackets(g, brackets)
        prec = result.precision / 64
        roots = [x + F(1, 2 * m) for x in result.points.points[:m]]
        assert roots == [polyroot.refine_root(g, iv, prec) for iv in intervals[:m]]

    @pytest.mark.parametrize(
        "m, eps, refined",
        [
            (1, F(3, 16), False),
            # just under eps*: at m = 5 the shallowest well of f is the one
            # around 0, where the critical point 0 is exact, so no valid
            # epsilon makes the 2^-20 critical points fail to bracket
            (5, F(27907, 312500000), False),
            # in [beta, eps*): the 2^-20 critical point of the innermost well
            # has g >= 0 there, and it is refined further
            (4, F(43453, 50728021), True),
            (12, F(44, 539099849023), True),
        ],
    )
    def test_explicit_epsilon(self, m, eps, refined):
        base = constructions._Unperturbed(m)
        assert (eps >= min(base.depth)) == refined
        assert base.window_root_count(eps) == 2 * m
        if m == 5:
            assert 0 < min(base.depth) - eps < F(1, 10**9)
        g = base.f.plus_constant(eps)
        brackets = base.brackets(eps)
        for iv in brackets:  # one end is a root of f, the other a critical point
            assert sorted((evaluate(g, iv.lo), evaluate(g, iv.hi)))[1] == eps
            assert min(evaluate(g, iv.lo), evaluate(g, iv.hi)) < 0
        assert isolate_in_brackets(g, brackets) == isolate_real_roots(g)
        result = perturbed_interval_design(m, eps)
        assert list(result.intervals) == isolate_real_roots(g)
        assert result.certificate == (0,) * m

    @pytest.mark.parametrize("m", range(1, 41))
    def test_mirrored_roots_equal_direct_refinement(self, m, monkeypatch):
        # g is even and its intervals come in mirror pairs, so only the m
        # right of 0 are refined; the negations are what refine_root gives
        calls = []

        def counted(*args):
            calls.append(args)
            return polyroot.refine_root(*args)

        monkeypatch.setattr(constructions, "refine_root", counted)
        result = perturbed_interval_design(m)
        assert sum(args[0] == result.g for args in calls) == m  # the rest refine f's
        prec = result.precision / 64
        roots = [x + F(1, 2 * m) for x in result.points.points[:m]]
        assert roots == [polyroot.refine_root(result.g, iv, prec) for iv in result.intervals[:m]]

    def test_unmirrored_interval_is_refined_directly(self):
        result = perturbed_interval_design(3)
        prec = result.precision / 64
        intervals = list(result.intervals)
        r = polyroot.refine_root(result.g, intervals[0], prec)
        intervals[0] = polyroot.IsolatingInterval(r - 2 * prec, r + 3 * prec)
        roots = constructions._refine_mirrored(result.g, intervals, prec)
        assert roots[0] == polyroot.refine_root(result.g, intervals[0], prec) != r
        assert roots[1:] == [polyroot.refine_root(result.g, iv, prec) for iv in intervals[1:]]

    def test_no_sturm_chain_of_g(self, monkeypatch):
        # choose_epsilon counts the roots of f + 2 epsilon once at most;
        # isolation builds no chain
        chains = []
        chain = polyroot._SturmChain

        class Recorded(chain):
            def __init__(self, poly):
                chains.append(poly)
                super().__init__(poly)

        monkeypatch.setattr(polyroot, "_SturmChain", Recorded)
        for m in range(1, 13):
            chains.clear()
            result = perturbed_interval_design(m)
            assert result.g not in chains
            assert len(chains) <= 1

    def test_invalid_epsilon_exits_through_a_sturm_count(self, monkeypatch, capsys):
        calls = []
        count = constructions.sturm_root_count

        def counted(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(constructions, "sturm_root_count", counted)
        argv = ["construct", "perturbed", "--m", "5", "--epsilon", "1/1000"]
        assert cli.main(argv) == 2
        assert "does not leave 2m simple roots" in capsys.readouterr().err
        assert len(calls) == 1


class TestPolygonWeightedDesign:
    def test_smallest_case(self):
        w = polygon_weighted_design(1)
        # cos(2*pi/3) = -1/2 with weight 2, plus 1 with weight 1
        assert abs(w.support[0] + 0.5) < 1e-15
        assert w.support[1] == 1.0
        assert w.weights == (2.0, 1.0)
        residual = 2 * w.support[0] + 1
        assert abs(residual) < 1e-15

    def test_pentagon_case_closed_forms(self):
        w = polygon_weighted_design(2)
        assert abs(w.support[0] - (math.sqrt(5) - 1) / 4) < 1e-15
        assert abs(w.support[1] + (math.sqrt(5) + 1) / 4) < 1e-15
        report = verify_weighted_design(w, 1)
        assert report.verdict
        assert abs(float(report.residuals[0])) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 20])
    def test_residuals_through_design_index(self, n):
        w = polygon_weighted_design(n)
        report = verify_weighted_design(w, n - 1)
        assert report.verdict
        assert all(abs(float(r)) <= 1e-12 for r in report.residuals)

    def test_support_size_exceeds_evenness_bound_by_one(self):
        # n+1 support points and index set T_n: one more than forces evenness
        n = 4
        w = polygon_weighted_design(n)
        assert len(w.support) == n + 1
        assert verify_weighted_design(w, n).verdict
        assert not is_symmetric(w)[0]


class TestBinomAlternatingSum:
    @pytest.mark.parametrize(
        "n,s,expected",
        [(2, 0, -3), (2, 1, 0), (3, 0, -10), (3, 1, 0), (3, 2, 0), (5, 0, -126)],
    )
    def test_closed_form_instances(self, n, s, expected):
        assert binom_alternating_sum(n, s) == expected

    def test_hypothesis_bound(self):
        with pytest.raises(PreconditionError):
            binom_alternating_sum(3, 3)

    def test_full_range(self):
        for n in range(1, 51):
            for s in range(n):
                expected = -math.comb(2 * n - 1, n - 1) if s == 0 else 0
                assert binom_alternating_sum(n, s) == expected


class TestBinomialWeightedDesign:
    def test_n2_instance(self):
        w = binomial_weighted_design(2)
        assert w.support == (F(2, 3), F(-1, 3))
        assert w.weights == (2, 4)
        assert verify_weighted_design(w, 1).residuals == (0,)

    def test_n3_instance(self):
        w = binomial_weighted_design(3)
        assert w.support == (F(1, 2), F(-1, 4), F(-3, 4))
        assert w.weights == (12, 15, 3)
        report = verify_weighted_design(w, 2)
        assert report.residuals == (0, 0)

    def test_n4_instance(self):
        w = binomial_weighted_design(4)
        assert len(w.support) == 4
        assert verify_weighted_design(w, 3).residuals == (0, 0, 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
    def test_design_is_sharp(self, n):
        w = binomial_weighted_design(n)
        assert verify_weighted_design(w, n - 1).verdict
        report = verify_weighted_design(w, n)
        assert not report.verdict
        assert report.residuals[n - 1] != 0


class TestPadding:
    def test_pad_keeps_residuals(self):
        config = Configuration((F(1),))
        padded = pad_with_antipodal_pairs(config, [F(1, 2)])
        assert padded.points == (F(1), F(1, 2), F(-1, 2))
        assert verify_interval_design(padded, 1).residuals == (1,)

    def test_pad_perturbed_design(self):
        result = perturbed_interval_design(1)
        padded = pad_with_antipodal_pairs(result.points, [F(1, 3)])
        assert len(padded.points) == 5
        assert verify_interval_design(padded, 1).verdict

    def test_pad_zero_base(self):
        padded = pad_with_antipodal_pairs(Configuration((F(0),)), [F(1, 2), F(1, 4)])
        assert len(padded.points) == 5
        assert is_symmetric(padded)[0]

    def test_pad_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            pad_with_antipodal_pairs(Configuration((F(0),)), [F(1)])

    def test_pad_tests_the_exact_value(self):
        # both lie in (0, 1), though float() rounds them to 1.0 and 0.0
        for a in (1 - F(1, 10**20), F(1, 10**400)):
            padded = pad_with_antipodal_pairs(Configuration((F(0),)), [a])
            assert padded.points == (F(0), a, -a)
        with pytest.raises(DomainError, match="open interval"):  # float() overflows
            pad_with_antipodal_pairs(Configuration((F(0),)), [F(10**400)])

    def test_add_zero(self):
        config = Configuration((F(-3, 4), F(-1, 4), F(1)))
        bigger = add_zero(config)
        assert bigger.points == (F(-3, 4), F(-1, 4), F(1), F(0))
        assert verify_interval_design(bigger, 1).verdict
        assert not is_symmetric(bigger)[0]
        # multiset semantics: repeated zeros allowed
        assert add_zero(add_zero(config)).points.count(F(0)) == 2

    def test_exact_residual_invariance(self):
        base = Configuration((F(1), F(2, 3)))
        before = verify_interval_design(base, 2).residuals
        after = verify_interval_design(
            pad_with_antipodal_pairs(base, [F(1, 5), F(2, 7)]), 2
        ).residuals
        assert before == after


def reference_float_power(x: float, k: int) -> float:
    """x**k by binary exponentiation over float multiplies: the factor
    x^(2^h) of each set bit of k, multiplied in from the lowest bit up."""
    r, b = 1.0, x
    while k:
        if k & 1:
            r *= b
        b *= b
        k >>= 1
    return r


def reference_node_mean(nodes, s):
    n = len(nodes)
    acc = 0.0
    for k in range(n // 2):
        acc += reference_float_power(nodes[k], s) + reference_float_power(
            nodes[n - 1 - k], s
        )
    if n % 2:
        acc += reference_float_power(0.0, s)
    return acc / n


class TestChebyshevGauss:
    def test_power_table_matches_binary_exponentiation(self):
        rng = random.Random(2024)
        for _ in range(2000):
            x = rng.choice([rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0)])
            top = rng.randrange(1, 520)
            pw = constructions._float_powers(x, top)
            assert len(pw) == top + 1
            for s in {1, top, rng.randrange(1, top + 1)}:
                assert pw[s] == reference_float_power(x, s), (x, s)
        for x in (0.0, -0.0, 1.0, -1.0, 5e-324, 1e300):
            pw = constructions._float_powers(x, 64)
            assert [p.hex() for p in pw] == [
                reference_float_power(x, s).hex() for s in range(65)
            ]

    @pytest.mark.parametrize("n", [*range(1, 60), 100, 257])
    def test_node_means_match_binary_exponentiation(self, n):
        report = chebyshev_gauss_check(n, 2 * n - 1)
        for e in report.entries:
            assert e.node_mean.hex() == reference_node_mean(report.nodes, e.s).hex()

    def test_n2_nodes_and_checks(self):
        report = chebyshev_gauss_check(2, 3)
        assert abs(report.nodes[0] - math.sqrt(2) / 2) < 1e-15
        assert report.nodes[1] == -report.nodes[0]
        by_s = {e.s: e for e in report.entries}
        assert by_s[1].node_mean == 0.0
        assert by_s[3].node_mean == 0.0
        assert by_s[2].target == F(1, 2)
        assert by_s[2].error <= 1e-15
        assert report.verdict

    def test_n1_single_zero_node(self):
        report = chebyshev_gauss_check(1, 1)
        assert report.nodes == (0.0,)
        assert report.entries[0].node_mean == 0.0

    def test_odd_moments_exactly_zero(self):
        for n in range(1, 11):
            report = chebyshev_gauss_check(n, 2 * n - 1)
            for e in report.entries:
                if e.s % 2 == 1:
                    assert e.node_mean == 0.0

    def test_degree_cap(self):
        with pytest.raises(DomainError, match="degree"):
            chebyshev_gauss_check(2, 4)

    def test_variant_nodes_flagged(self):
        report = chebyshev_gauss_check(2, 3)
        assert abs(report.variant_degree_one_mean + 0.5) < 1e-15
        assert not report.variant_degree_one_ok

    def test_node_mirror_symmetry(self):
        for n in (3, 4, 7, 10):
            nodes = chebyshev_gauss_nodes(n)
            assert all(nodes[k] == -nodes[n - 1 - k] for k in range(n))
