import math

import numpy as np
import pytest

from osdlat.fblmath import InfeasibleError
from osdlat.oscomplexity import (
    GAUSS_JORDAN,
    PATTERN_SEARCH,
    LatencyBudget,
    binary_entropy,
    binomial_sum_bound_check,
    complexity_bound,
    complexity_exact,
    complexity_report,
    latency_gamma,
    max_order,
    pattern_count,
    total_latency,
)

BUDGET = LatencyBudget(deadline=1e-3, symbol_time=1e-6, binop_time=1e-9)


class TestEntropy:
    def test_anchors(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.3) == pytest.approx(0.8812908992306927, abs=1e-12)

    def test_symmetry(self):
        for q in (0.05, 0.2, 0.41):
            assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q), abs=1e-12)

    def test_domain(self):
        for q in (-0.01, 1.01):
            with pytest.raises(ValueError):
                binary_entropy(q)


class TestComplexityExact:
    @pytest.mark.parametrize(
        "n,k,s,expected",
        [(128, 64, 0, 576.0), (128, 64, 1, 4672.0), (128, 64, 2, 133696.0)],
    )
    def test_hand_values(self, n, k, s, expected):
        assert complexity_exact(n, k, s) == expected

    def test_strictly_increasing_in_s_and_n(self):
        vals = [complexity_exact(128, 64, s) for s in range(0, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        vals = [complexity_exact(n, 36, 2) for n in (64, 80, 128, 200)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity_exact(10, 11, 0)
        with pytest.raises(ValueError):
            complexity_exact(10, 5, 6)
        with pytest.raises(ValueError):
            complexity_exact(10, 5, -1)


class TestFloatRange:
    # C(2000, 600) alone exceeds the float range; 1023 * 2^1023 / 2 does only once multiplied
    @pytest.mark.parametrize(("n", "k", "s"), [(4000, 2000, 600), (1023, 1023, 1023)])
    def test_exact_past_float_range_names_its_arguments(self, n, k, s):
        with pytest.raises(ValueError, match=f"^complexity at n={n}, k={k}, s={s} exceeds the float range"):
            complexity_exact(n, k, s)
        with pytest.raises(ValueError, match="float range"):
            complexity_report(n, k, s)

    # at (1100, 1100, 372) the exact complexity, 1.29e307, still fits
    @pytest.mark.parametrize(("n", "k", "s"), [(4000, 2000, 600), (2048, 1024, 512), (1100, 1100, 372)])
    def test_bound_past_float_range_names_its_arguments(self, n, k, s):
        with pytest.raises(ValueError, match=f"complexity bound at n={n}, k={k}, s={s} exceeds the float range"):
            complexity_bound(n, k, s)

    def test_values_near_the_edge_pass(self):
        assert complexity_exact(1014, 1014, 1014) == 1014**2 / 8 + 507 * 2.0**1014
        assert math.isfinite(complexity_bound(4000, 2000, 200))

    @pytest.mark.parametrize("binop_time", [1e-300, 0.0])
    def test_latency_past_float_range_rejected(self, binop_time):
        # k*c overflows first, so the latency reads inf (or nan at T_b = 0)
        budget = LatencyBudget(deadline=1e300, symbol_time=1e-6, binop_time=binop_time)
        with pytest.raises(ValueError, match="n=4000, k=2000, c=1e\\+306 exceeds the float range"):
            total_latency(4000, 2000, 1e306, budget)

    def test_max_order_past_float_range_is_an_error_not_an_order(self):
        # the climb used to stop where k*c overflowed to inf and report s* = 222
        budget = LatencyBudget(deadline=1e300, symbol_time=1e-6, binop_time=1e-300)
        with pytest.raises(ValueError, match="float range"):
            max_order(4000, 2000, budget)


class TestComplexityBound:
    def test_hand_values(self):
        assert complexity_bound(20, 10, 3) == pytest.approx(4508.5, rel=1e-3)
        assert complexity_exact(20, 10, 3) == 1772.5
        assert complexity_bound(128, 64, 2) == pytest.approx(469600, rel=1e-3)
        assert complexity_bound(128, 64, 2) >= complexity_exact(128, 64, 2)

    def test_coincides_at_order_zero(self):
        for n, k in ((20, 10), (64, 36), (128, 64)):
            assert complexity_bound(n, k, 0) == complexity_exact(n, k, 0) == k * k / 8 + n / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            complexity_bound(20, 10, 6)

    def test_dominates_exact_on_random_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            k = int(rng.integers(1, 129))
            n = int(rng.integers(k, 4 * k + 1))
            s = int(rng.integers(0, k // 2 + 1))
            assert complexity_exact(n, k, s) <= complexity_bound(n, k, s) * (1 + 1e-12)

    def test_relative_gap_shrinks_on_upper_order_range(self):
        # the bound tightens with s on the upper half of its domain; the
        # relative gap peaks near s ~ k/5, so monotonicity is asserted
        # from ceil(k/4) up only
        for k in (16, 32, 64):
            n = 2 * k
            gaps = []
            for s in range(math.ceil(k / 4), k // 2 + 1):
                e = complexity_exact(n, k, s)
                gaps.append((complexity_bound(n, k, s) - e) / e)
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestBinomialSumBound:
    def test_hand_values(self):
        assert pattern_count(10, 3) == 176
        assert binomial_sum_bound_check(10, 3)
        assert binomial_sum_bound_check(1, 0)

    def test_exhaustive_small(self):
        for k in range(1, 26):
            for s in range(0, k // 2 + 1):
                assert binomial_sum_bound_check(k, s)

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_sum_bound_check(10, 6)

    def test_sums_past_the_float_range(self):
        # C(2000, 600) alone is about 2^1757, past the largest float
        assert binomial_sum_bound_check(2000, 600)
        assert binomial_sum_bound_check(2000, 1000)


class TestComplexityReport:
    def test_dominance_flag_matches_term_comparison(self):
        for n, k in ((64, 36), (128, 64)):
            for s in range(0, 6):
                rep = complexity_report(n, k, s)
                gj = k * k / 8
                patterns = n * pattern_count(k, s) / 2
                expected = GAUSS_JORDAN if gj >= patterns else PATTERN_SEARCH
                assert rep.dominant_term == expected

    def test_exact_field_is_complexity_exact(self):
        for n, k in ((8, 4), (64, 36), (128, 64), (4000, 2000)):
            for s in range(0, min(k, 6) + 1):
                assert complexity_report(n, k, s).c_exact == complexity_exact(n, k, s)

    def test_bound_field(self):
        rep = complexity_report(64, 36, 2)
        assert rep.c_bound is not None
        assert rep.c_exact <= rep.c_bound
        assert complexity_report(8, 4, 3).c_bound is None


class TestLatency:
    def test_hand_value(self):
        assert total_latency(128, 64, 4672.0, BUDGET) == pytest.approx(4.27008e-4, rel=1e-9)

    def test_zero_complexity(self):
        assert total_latency(128, 64, 0.0, BUDGET) == pytest.approx(128e-6)

    def test_free_computation(self):
        free = LatencyBudget(deadline=1e-3, symbol_time=1e-6, binop_time=0.0)
        assert total_latency(128, 64, 1e12, free) == pytest.approx(128e-6)

    def test_negative_complexity_rejected(self):
        with pytest.raises(ValueError, match="c >= 0"):
            total_latency(128, 64, -1.0, BUDGET)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            LatencyBudget(deadline=0.0, symbol_time=1e-6, binop_time=1e-9)
        with pytest.raises(ValueError):
            LatencyBudget(deadline=1e-3, symbol_time=0.0, binop_time=1e-9)
        with pytest.raises(ValueError):
            LatencyBudget(deadline=1e-3, symbol_time=1e-6, binop_time=-1e-9)


class TestLatencyGamma:
    def test_hand_value(self):
        assert latency_gamma(128, 64, BUDGET) == pytest.approx(204.890625, rel=1e-12)

    def test_boundary_zero(self):
        k3 = 64**3 * 1e-9 / 8
        budget = LatencyBudget(deadline=128e-6 + k3, symbol_time=1e-6, binop_time=1e-9)
        assert latency_gamma(128, 64, budget) == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            latency_gamma(2000, 64, BUDGET)
        free = LatencyBudget(deadline=1e-3, symbol_time=1e-6, binop_time=0.0)
        with pytest.raises(ValueError):
            latency_gamma(128, 64, free)

    def test_equivalent_to_bound_based_deadline(self):
        # 2^(k h(s/k)) <= gamma exactly when the bound-based latency fits
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            k = int(rng.integers(8, 97))
            n = int(rng.integers(k, 3 * k))
            s = int(rng.integers(0, k // 2 + 1))
            ts = 10.0 ** rng.uniform(-7, -5)
            tb = 10.0 ** rng.uniform(-10, -8)
            dm = n * ts * 10.0 ** rng.uniform(0.1, 3.0)
            budget = LatencyBudget(deadline=dm, symbol_time=ts, binop_time=tb)
            gamma = latency_gamma(n, k, budget)
            lhs = 2.0 ** (k * binary_entropy(s / k))
            latency = total_latency(n, k, complexity_bound(n, k, s), budget)
            if abs(latency - dm) < 1e-9 * dm or (gamma > 0 and abs(lhs - gamma) < 1e-9 * gamma):
                continue
            assert (lhs <= gamma) == (latency <= dm)
            checked += 1


class TestMaxOrder:
    def test_hand_example(self):
        s_approx, s_star = max_order(128, 64, BUDGET)
        assert s_approx == pytest.approx(0.96, abs=0.01)
        assert s_star == 1
        assert total_latency(128, 64, complexity_exact(128, 64, 1), BUDGET) <= 1e-3
        assert total_latency(128, 64, complexity_exact(128, 64, 2), BUDGET) > 1e-3

    def test_loose_deadline_clamps_at_k(self):
        budget = LatencyBudget(deadline=1.0, symbol_time=1e-6, binop_time=1e-9)
        _, s_star = max_order(32, 16, budget)
        assert s_star == 16

    def test_free_computation_clamps_at_k(self):
        free = LatencyBudget(deadline=1e-3, symbol_time=1e-6, binop_time=0.0)
        s_approx, s_star = max_order(128, 64, free)
        assert s_star == 64
        assert math.isnan(s_approx)

    def test_infeasible(self):
        tight = LatencyBudget(deadline=129e-6, symbol_time=1e-6, binop_time=1e-5)
        with pytest.raises(InfeasibleError):
            max_order(128, 64, tight)

    def test_maximality_on_random_budgets(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(8, 97))
            n = int(rng.integers(k, 3 * k))
            ts = 10.0 ** rng.uniform(-7, -5)
            tb = 10.0 ** rng.uniform(-10, -8)
            floor_dm = n * ts + k * complexity_exact(n, k, 0) * tb
            budget = LatencyBudget(
                deadline=floor_dm * 10.0 ** rng.uniform(0.0, 4.0),
                symbol_time=ts,
                binop_time=tb,
            )
            _, s_star = max_order(n, k, budget)
            assert total_latency(n, k, complexity_exact(n, k, s_star), budget) <= budget.deadline
            if s_star < k:
                assert (
                    total_latency(n, k, complexity_exact(n, k, s_star + 1), budget)
                    > budget.deadline
                )
