import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osdlat import fblmath, scenarios
from osdlat.fblmath import Snr, normal_approx_rate, q_inv, required_snr
from osdlat.oscomplexity import LatencyBudget
from osdlat.scenarios import (
    ScenarioConfig,
    max_rate_curve,
    maximize_k,
    minimize_latency,
)
from osdlat.tradeoff import TradeoffParams, complexity_to_penalty, params_for_blocklength

TS = 1e-6
TB = 1e-9


def budget(dm, tb=TB):
    return LatencyBudget(deadline=dm, symbol_time=TS, binop_time=tb)


class TestMaxRateCurve:
    def test_quarter_millisecond_anchor(self):
        cfg = ScenarioConfig(budget=budget(0.25e-3), epsilon=1e-3)
        result = max_rate_curve(128, cfg)
        half = next(pt for pt in result.sweep if pt.rate == pytest.approx(0.5))
        assert half.c == pytest.approx(1906.25, rel=1e-12)
        assert half.delta_rho_db == pytest.approx(3.333, abs=2e-3)
        assert half.snr_db == pytest.approx(half.required_snr_db + half.delta_rho_db)

    def test_unconstrained_deadline_matches_normal_approx(self):
        cfg = ScenarioConfig(budget=budget(1e9), epsilon=1e-3)
        result = max_rate_curve(128, cfg)
        for pt in result.sweep:
            assert pt.feasible
            assert pt.delta_rho_db == pytest.approx(0.0, abs=1e-6)
            assert pt.snr_db == pytest.approx(
                required_snr(128, 1e-3, pt.rate).db, abs=1e-6
            )

    def test_tighter_deadline_needs_more_power(self):
        curves = {
            dm: max_rate_curve(
                128, ScenarioConfig(budget=budget(dm), epsilon=1e-3)
            )
            for dm in (10e-3, 1e-3, 0.25e-3)
        }
        for loose, tight in ((10e-3, 1e-3), (1e-3, 0.25e-3)):
            for lo_pt, hi_pt in zip(curves[loose].sweep, curves[tight].sweep):
                if lo_pt.feasible and hi_pt.feasible:
                    assert hi_pt.snr_db >= lo_pt.snr_db - 1e-12

    def test_never_below_normal_approximation(self):
        cfg = ScenarioConfig(budget=budget(0.5e-3), epsilon=1e-3)
        result = max_rate_curve(128, cfg)
        for pt in result.sweep:
            if pt.feasible:
                assert pt.snr_db >= pt.required_snr_db - 1e-12

    def test_infeasible_rates_marked(self):
        # with a deadline barely above n*Ts, high rates cannot decode in time
        cfg = ScenarioConfig(budget=budget(128e-6 + 5e-8), epsilon=1e-3)
        result = max_rate_curve(128, cfg)
        assert any(not pt.feasible for pt in result.sweep)

    def test_deadline_shorter_than_transmission_rejected(self):
        cfg = ScenarioConfig(budget=budget(100e-6), epsilon=1e-3)
        with pytest.raises(ValueError):
            max_rate_curve(128, cfg)


class TestMaximizeK:
    def test_infinite_compute_anchor(self):
        cfg = ScenarioConfig(
            budget=budget(1e-3, tb=0.0),
            epsilon=1e-3,
            power_cap_db=5.0,
        )
        result = maximize_k(cfg, range(900, 1001, 10))
        assert result.optimum.n == 1000
        assert result.optimum.k == 803
        assert result.optimum.rate == pytest.approx(0.803)

    def test_matches_floor_rule_when_compute_free(self):
        cfg = ScenarioConfig(
            budget=budget(1e-3, tb=0.0), epsilon=1e-3, power_cap_db=5.0
        )
        result = maximize_k(cfg, range(500, 521))
        for pt in result.sweep:
            expected = math.floor(pt.n * normal_approx_rate(pt.n, 1e-3, Snr(5.0)))
            assert pt.k == expected

    def test_feasibility_monotone_in_k(self):
        cfg = ScenarioConfig(
            budget=budget(1e-3), epsilon=1e-3, power_cap_db=5.0
        )
        for n in (100, 200, 300):
            gaps = scenarios._fits([n] * (n - 1), list(range(1, n)), [scenarios._decode_window(n, cfg)] * (n - 1),
                                   [cfg.law_params(n)] * (n - 1), cfg, q_inv(cfg.epsilon))
            flags = gaps >= 0.0
            assert flags[0] and not flags[-1]
            assert all(a or not b for a, b in zip(flags, flags[1:]))
            # the gap the k search interpolates falls with k
            assert (np.diff(gaps) < 0.0).all()

    @staticmethod
    def _plain_max_k(cfg, n):
        """The largest k that fits at n, or None: a binary search on k, one
        scalar rate and one law_params call at a time."""
        def fits(k):
            rate = k / n
            if rate >= 1.0:
                return False
            tb = cfg.budget.binop_time
            delta = 0.0 if tb == 0 else complexity_to_penalty(
                scenarios._decode_window(n, cfg) / (k * tb), cfg.law_params(n))
            snr_left = cfg.power_cap_db - delta
            try:
                snr = Snr(snr_left)
            except ValueError:
                return snr_left > 0
            return normal_approx_rate(n, cfg.epsilon, snr) >= rate

        if scenarios._decode_window(n, cfg) < 0 or not fits(1):
            return None
        lo, hi = 1, n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid - 1)
        return lo

    @pytest.mark.parametrize("law", [
        {"params_extrapolation": "power"},
        {"params_extrapolation": "clamp"},
        {"params_override": TradeoffParams(a=0.05, b=0.03, gamma_fit=0.4, n_anchor=64)},
    ], ids=["power", "clamp", "override"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_a_plain_search_per_blocklength(self, monkeypatch, seed, law):
        rng = np.random.default_rng(seed)
        dm = float(rng.choice([1e-3, 2e-3]))
        # the seeds draw n <= 64, 64 < n < 128 and n > 128; the last two
        # blocklengths leave a negative decode window
        ns = sorted({int(n) for n in rng.integers(2, 1500, 40)} | {round(dm / TS) + 1, round(dm / TS) + 200})
        cfg = ScenarioConfig(
            budget=budget(dm, tb=float(rng.choice([0.0, 0.1e-9, 1e-9, 10e-9]))),
            epsilon=float(10.0 ** rng.uniform(-9.0, -1.0)),
            power_cap_db=float(rng.uniform(-6.0, 12.0)),
            **law,
        )
        monkeypatch.setattr(fblmath, "_ROWS", 16)
        ks = [pt.k for pt in maximize_k(cfg, ns).sweep]
        assert ks == [self._plain_max_k(cfg, n) for n in ns]

    def test_each_law_built_once_per_blocklength(self, monkeypatch):
        builds = []

        def counted(n, extrapolation="power"):
            builds.append(n)
            return params_for_blocklength(n, extrapolation)

        monkeypatch.setattr(scenarios, "params_for_blocklength", counted)
        cfg = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3, power_cap_db=5.0)
        result = maximize_k(cfg, range(100, 228))
        assert result.optimum is not None
        # the search's law cache and the feasible rows' pricing; a build per
        # probe of the binary searches makes 1,202
        assert 128 <= len(builds) <= 2 * 128

    @pytest.mark.parametrize("cap, tb, ns, want", [
        # k = 1 needs more than the cap
        (-5.0, TB, [2, 3, 64, 500], [None, None, None, 5]),
        # the window at n = 900 is one part in 10^12 above the law's floor of
        # one operation per bit: the penalty puts snr_left far below the
        # linear scale, as it does at n = 899
        (60.0, (1e-3 - 900 * TS) / (1.0 + 1e-12), [100, 899, 900, 1001], [2, None, None, None]),
        # past the top of the linear scale every rate below 1 fits
        (1e308, TB, [2, 60, 1001], [1, 59, None]),
    ])
    def test_plain_search_edge_cases(self, cap, tb, ns, want):
        cfg = ScenarioConfig(budget=budget(1e-3, tb=tb), epsilon=1e-3, power_cap_db=cap)
        ks = [pt.k for pt in maximize_k(cfg, ns).sweep]
        assert ks == [self._plain_max_k(cfg, n) for n in ns] == want

    @pytest.mark.parametrize("cap, tb, ns", [
        # no penalty: the gap is linear in k, so the secant lands next to the answer
        (5.0, 0.0, range(2, 300)),
        (40.0, 0.0, range(2, 80)),
        # k = 1 needs more than the cap at the short blocklengths
        (-5.0, TB, range(2, 700, 7)),
        # k is next to n: n - 1 or n - 2 at 12 dB, n - 1 from 30 dB up
        (12.0, 0.0, range(2, 300)),
        (30.0, 0.1e-9, range(2, 120)),
        # snr_left has no linear value: every rate below 1 fits above the
        # scale, none below it (the window at n = 900 is at the law's floor)
        (1e308, TB, range(2, 200, 3)),
        (60.0, (1e-3 - 900 * TS) / (1.0 + 1e-12), [*range(2, 900, 9), *range(890, 910)]),
    ])
    def test_k_search_equals_the_plain_search(self, cap, tb, ns):
        cfg = ScenarioConfig(budget=budget(1e-3, tb=tb), epsilon=1e-3, power_cap_db=cap)
        ns = list(ns)
        assert scenarios._max_ks(ns, cfg, q_inv(cfg.epsilon)) == [self._plain_max_k(cfg, n) for n in ns]

    def test_k_search_probes(self, monkeypatch):
        probes = []
        fits = scenarios._fits

        def counted(ns, ks, *rest):
            probes.append(len(ks))
            return fits(ns, ks, *rest)

        monkeypatch.setattr(scenarios, "_fits", counted)
        cfg = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3, power_cap_db=5.0)
        maximize_k(cfg, range(100, 228))
        # 708 probes in 7 rounds; the bisection made 1,152 in 9
        assert sum(probes) <= 720 and len(probes) <= 7

    def test_optimum_satisfies_constraints_independently(self):
        cfg = ScenarioConfig(
            budget=budget(1e-3), epsilon=1e-3, power_cap_db=5.0
        )
        result = maximize_k(cfg, range(150, 261, 2))
        pt = result.optimum
        assert pt is not None
        window = cfg.budget.deadline - pt.n * TS
        c_allowed = window / (pt.k * TB)
        total = (
            required_snr(pt.n, 1e-3, pt.k / pt.n).db
            + complexity_to_penalty(c_allowed, params_for_blocklength(pt.n))
        )
        assert total <= 5.0 + 1e-9
        c_next = window / ((pt.k + 1) * TB)
        total_next = (
            required_snr(pt.n, 1e-3, (pt.k + 1) / pt.n).db
            + complexity_to_penalty(c_next, params_for_blocklength(pt.n))
        )
        assert total_next > 5.0

    def test_transmission_longer_than_deadline_infeasible(self):
        cfg = ScenarioConfig(
            budget=budget(1e-4), epsilon=1e-3, power_cap_db=5.0
        )
        result = maximize_k(cfg, range(90, 121, 5))
        for pt in result.sweep:
            # n = 100 leaves a zero-width decoding window and is infeasible
            # too; anything longer cannot even be transmitted in time
            if pt.n >= 100:
                assert not pt.feasible
            else:
                assert pt.feasible

    def test_requires_finite_power_cap(self):
        cfg = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3)
        with pytest.raises(ValueError):
            maximize_k(cfg, range(2, 101))


class TestMinimizeLatency:
    def test_infinite_power_drives_n_to_k(self):
        cfg = ScenarioConfig(
            budget=LatencyBudget(deadline=math.inf, symbol_time=TS, binop_time=TB),
            epsilon=1e-3,
            power_cap_db=math.inf,
        )
        result = minimize_latency(cfg, 64, range(64, 161))
        assert result.optimum.n == 64
        assert result.optimum.c == 1.0
        assert result.optimum.total_latency_s == pytest.approx(64 * TS + 64 * TB)

    def test_latency_curve_unimodal(self):
        cfg = ScenarioConfig(
            budget=LatencyBudget(deadline=math.inf, symbol_time=TS, binop_time=TB),
            epsilon=1e-3,
            power_cap_db=10.0,
        )
        result = minimize_latency(cfg, 64, range(64, 401))
        lat = [pt.total_latency_s for pt in result.sweep if pt.feasible]
        best = lat.index(min(lat))
        assert all(lat[i] >= lat[i + 1] - 1e-15 for i in range(best))
        assert all(lat[i] <= lat[i + 1] + 1e-15 for i in range(best, len(lat) - 1))

    def test_infeasible_blocklengths_reported(self):
        cfg = ScenarioConfig(
            budget=LatencyBudget(deadline=math.inf, symbol_time=TS, binop_time=TB),
            epsilon=1e-3,
            power_cap_db=3.0,
        )
        result = minimize_latency(cfg, 64, range(64, 121))
        assert any(not pt.feasible for pt in result.sweep)
        for pt in result.sweep:
            if not pt.feasible and pt.rate < 1.0:
                assert required_snr(pt.n, 1e-3, pt.rate).db >= 3.0

    def test_optimum_power_budget_respected(self):
        cfg = ScenarioConfig(
            budget=LatencyBudget(deadline=math.inf, symbol_time=TS, binop_time=TB),
            epsilon=1e-3,
            power_cap_db=5.0,
        )
        pt = minimize_latency(cfg, 64, range(64, 301)).optimum
        assert pt.snr_db == pytest.approx(5.0)
        assert required_snr(pt.n, 1e-3, 64 / pt.n).db <= 5.0
        assert pt.c >= 1.0

    def test_requires_k_and_power(self):
        no_cap = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3)
        with pytest.raises(ValueError, match="power_cap_db"):
            minimize_latency(no_cap, 64, range(64, 101))
        capped = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3, power_cap_db=5.0)
        with pytest.raises(ValueError, match="1 <= k"):
            minimize_latency(capped, 0, range(2, 101))

    @pytest.mark.parametrize("cap", [5.0, math.inf])
    def test_refuses_blocklengths_below_k(self, cap):
        # at an infinite cap the sweep never checks the rate, so n < k would read as feasible
        cfg = ScenarioConfig(
            budget=LatencyBudget(deadline=math.inf, symbol_time=TS, binop_time=TB),
            epsilon=1e-3,
            power_cap_db=cap,
        )
        with pytest.raises(ValueError, match="k <= n"):
            minimize_latency(cfg, 64, range(2, 101))


class TestConfigAndSerialization:
    @pytest.mark.parametrize("cap", [-math.inf, math.nan])
    def test_power_cap_must_be_finite_or_plus_inf(self, cap):
        with pytest.raises(ValueError, match="power_cap_db"):
            ScenarioConfig(budget=budget(1e-3), epsilon=1e-3, power_cap_db=cap)

    @pytest.mark.parametrize("override", [None, params_for_blocklength(64)])
    def test_unknown_extrapolation_rejected(self, override):
        # refused at construction, not in the middle of a sweep, even when an override hides it
        with pytest.raises(ValueError, match="unknown extrapolation mode 'bogus'"):
            ScenarioConfig(budget=budget(1e-3), epsilon=1e-3, params_extrapolation="bogus",
                           params_override=override)

    def test_rate_grid_excludes_one(self):
        cfg = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3)
        result = max_rate_curve(64, cfg, rate_step=0.25)
        assert [pt.rate for pt in result.sweep] == [0.25, 0.5, 0.75]

    def test_empty_optimum(self):
        cfg = ScenarioConfig(
            budget=budget(1e-3), epsilon=1e-3, power_cap_db=-30.0
        )
        result = maximize_k(cfg, range(2, 51))
        assert result.optimum is None


class TestSweepIsPerBlocklength:
    """Each sweep row depends only on its own n, so a sweep is the
    concatenation of its single-blocklength sweeps."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(2, 400), min_size=1, max_size=5),
        st.sampled_from([0.0, 1e-10, 1e-9]),
        st.integers(3, 8),
    )
    def test_maximize_k(self, ns, tb, cap):
        cfg = ScenarioConfig(budget=budget(1e-3, tb=tb), epsilon=1e-3, power_cap_db=float(cap))
        singles = [pt for n in ns for pt in maximize_k(cfg, [n]).sweep]
        assert maximize_k(cfg, ns).sweep == singles

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(8, 64),
        st.lists(st.integers(0, 300), min_size=1, max_size=5),
        st.sampled_from([3.0, 5.0, 10.0, math.inf]),
    )
    def test_minimize_latency(self, k, offsets, cap):
        cfg = ScenarioConfig(
            budget=LatencyBudget(deadline=math.inf, symbol_time=TS, binop_time=TB),
            epsilon=1e-3,
            power_cap_db=cap,
        )
        ns = [k + off for off in offsets]
        singles = [pt for n in ns for pt in minimize_latency(cfg, k, [n]).sweep]
        assert minimize_latency(cfg, k, ns).sweep == singles


class TestLockstep:
    """A sweep's searches advance together: each round's quadratures are
    one _info_density_stats call, and each sweep one required_snr call."""

    def test_cold_sweep_batches_its_quadratures(self, monkeypatch):
        stats = fblmath._info_density_stats
        calls = []

        def counted(rhos, nodes):
            calls.append(len(rhos))
            return stats(rhos, nodes)

        monkeypatch.setattr(fblmath, "_info_density_stats", counted)
        cfg = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3, power_cap_db=8.0)
        stats.cache_clear()
        result = minimize_latency(cfg, 64, range(64, 192))
        assert len(result.sweep) == 128 and result.optimum is not None
        # one call per point, as a loop of replays makes, would be far above this
        assert 20 * len(calls) < stats.cache_info().misses
        assert sum(calls) == sum(stats.cache_info()[:2])

    @pytest.mark.parametrize("sweep", [
        lambda cfg: maximize_k(cfg, range(100, 228)),
        lambda cfg: minimize_latency(cfg, 64, range(64, 192)),
        lambda cfg: max_rate_curve(256, cfg),
    ])
    def test_one_required_snr_call_per_sweep(self, monkeypatch, sweep):
        calls = []

        def counted(n, epsilon, rate):
            calls.append(len(n))
            return required_snr(n, epsilon, rate)

        monkeypatch.setattr(scenarios, "required_snr", counted)
        cfg = ScenarioConfig(budget=budget(1e-3), epsilon=1e-3, power_cap_db=6.0)
        result = sweep(cfg)
        assert calls == [sum(pt.required_snr_db is not None for pt in result.sweep)]
        assert calls[0] > 0
