import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from osdlat.fblmath import (
    QUADRATURE_NODES,
    InfeasibleError,
    Snr,
    biawgn_capacity,
    biawgn_dispersion,
    normal_approx_rate,
    q_func,
    q_inv,
    required_snr,
)


def gaussian_tail_quadrature(x):
    """Independent oracle: direct numerical integration of the normal pdf."""
    val, _ = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), x, np.inf
    )
    return val


def info_density_samples(rho, n_samples, seed):
    """Monte Carlo oracle: BPSK information density draws, in nats."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples)
    return math.log(2.0) - np.logaddexp(0.0, -2.0 * rho - 2.0 * math.sqrt(rho) * z)


class TestSnr:
    def test_db_linear_round_trip(self):
        for db in [-37.5, -5.0, 0.0, 3.0, 12.34, 40.0]:
            assert 10.0 * math.log10(Snr(db).linear) == pytest.approx(db, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Snr(math.nan)
        # dB values whose linear value overflows to inf or underflows to 0
        for db in (3100.0, 1e308, -3300.0, -1e308):
            with pytest.raises(ValueError, match="linear"):
                Snr(db)


class TestQFunc:
    def test_median(self):
        assert q_func(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_deep_left_tail(self):
        assert abs(q_func(-8.0) - 1.0) < 1e-12

    def test_against_quadrature_oracle(self):
        for x in [-3.0, -1.0, 0.5, 1.0, 2.0, 3.0902, 5.0]:
            assert q_func(x) == pytest.approx(gaussian_tail_quadrature(x), rel=1e-10)

    def test_one_per_mille_point(self):
        assert q_func(3.0902) == pytest.approx(1e-3, rel=2e-4)

    def test_strictly_decreasing(self):
        xs = np.linspace(-8, 8, 401)
        vals = [q_func(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            q_func(math.inf)
        with pytest.raises(ValueError):
            q_func(math.nan)


class TestQInv:
    def test_median(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_one_per_mille_against_bisection_oracle(self):
        lo, hi = 0.0, 6.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if q_func(mid) > 1e-3:
                lo = mid
            else:
                hi = mid
        assert q_inv(1e-3) == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert q_inv(1e-3) == pytest.approx(3.0902, abs=1e-4)

    # beyond 37 the tail underflows toward the clamp at 5e-324
    @given(st.floats(-6.0, 37.0))
    def test_round_trip_on_x(self, x):
        assert q_inv(q_func(x)) == pytest.approx(x, rel=1e-9, abs=1e-8)

    def test_mutual_inverse_on_p(self):
        for p in np.logspace(-9, math.log10(1 - 1e-9), 50):
            assert q_func(q_inv(float(p))) == pytest.approx(float(p), rel=1e-8, abs=1e-15)

    def test_domain_error(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                q_inv(p)


class TestCapacityDispersion:
    def test_zero_snr_limit(self):
        assert biawgn_capacity(Snr(-60.0)) == pytest.approx(0.0, abs=1e-4)
        assert biawgn_dispersion(Snr(-60.0)) == pytest.approx(0.0, abs=1e-4)

    def test_high_snr_saturation(self):
        assert biawgn_capacity(Snr(20.0)) == pytest.approx(1.0, abs=1e-6)
        assert biawgn_dispersion(Snr(25.0)) == pytest.approx(0.0, abs=1e-6)

    def test_capacity_at_0db_monte_carlo(self):
        # known value ~0.486 bits, checked against a 1e7-sample draw
        samples = info_density_samples(1.0, 10**7, seed=20260811)
        mc = samples.mean() / math.log(2.0)
        se = samples.std(ddof=1) / math.sqrt(samples.size) / math.log(2.0)
        c = biawgn_capacity(Snr(0.0))
        assert c == pytest.approx(0.486, abs=5e-4)
        assert abs(c - mc) < 3 * se

    def test_dispersion_at_0db_monte_carlo(self):
        samples = info_density_samples(1.0, 4 * 10**6, seed=7)
        assert biawgn_dispersion(Snr(0.0)) == pytest.approx(samples.var(ddof=1), rel=0.01)

    def test_monte_carlo_agreement_across_snrs(self):
        for db in (-5.0, 0.0, 5.0, 10.0):
            rho = Snr(db).linear
            samples = info_density_samples(rho, 2 * 10**6, seed=int(db) + 50)
            se = samples.std(ddof=1) / math.sqrt(samples.size) / math.log(2.0)
            assert abs(biawgn_capacity(Snr(db)) - samples.mean() / math.log(2.0)) < 3 * se

    def test_capacity_strictly_increasing(self):
        vals = [biawgn_capacity(Snr(db)) for db in np.linspace(-15, 15, 61)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_dispersion_nonnegative(self):
        assert all(biawgn_dispersion(Snr(db)) >= 0.0 for db in np.linspace(-30, 30, 31))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            biawgn_capacity(Snr(0.0), nodes=16)


class TestNormalApproxRate:
    def test_eps_half_equals_capacity(self):
        for db in (-2.0, 1.0, 5.0):
            assert normal_approx_rate(200, 0.5, Snr(db)) == pytest.approx(
                biawgn_capacity(Snr(db)), abs=1e-12
            )

    def test_converges_to_capacity(self):
        c = biawgn_capacity(Snr(3.0))
        gaps = [c - normal_approx_rate(n, 1e-3, Snr(3.0)) for n in (100, 10**4, 10**8)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_backoff_scales_as_inverse_sqrt_n(self):
        c = biawgn_capacity(Snr(2.0))
        for n in (50, 200, 1000):
            g1 = c - normal_approx_rate(n, 1e-3, Snr(2.0))
            g2 = c - normal_approx_rate(4 * n, 1e-3, Snr(2.0))
            assert g1 / g2 == pytest.approx(2.0, rel=0.05)

    def test_below_capacity_for_small_eps(self):
        for db in (-3.0, 0.0, 4.0):
            for n in (32, 128, 1000):
                assert normal_approx_rate(n, 1e-3, Snr(db)) <= biawgn_capacity(Snr(db))

    def test_increasing_in_n_and_snr(self):
        rates_n = [normal_approx_rate(n, 1e-3, Snr(2.0)) for n in (64, 128, 256, 1024)]
        assert all(a < b for a, b in zip(rates_n, rates_n[1:]))
        rates_snr = [normal_approx_rate(128, 1e-3, Snr(db)) for db in (0.0, 2.0, 4.0, 6.0)]
        assert all(a < b for a, b in zip(rates_snr, rates_snr[1:]))

    def test_low_snr_clamps_to_zero(self):
        assert normal_approx_rate(8, 1e-6, Snr(-20.0)) == 0.0

    def test_published_anchor_n1000(self):
        # the k_m = 803 operating point: R(1000, 1e-3, 5 dB) ~ 0.803
        rate = normal_approx_rate(1000, 1e-3, Snr(5.0))
        assert rate == pytest.approx(0.803, abs=5e-4)
        assert math.floor(1000 * rate) == 803


class TestRequiredSnr:
    def test_round_trip(self):
        rate = normal_approx_rate(128, 1e-3, Snr(3.0))
        back = required_snr(128, 1e-3, rate)
        assert back.db == pytest.approx(3.0, abs=0.01)
        assert normal_approx_rate(128, 1e-3, back) == pytest.approx(rate, abs=1e-6)

    def test_published_anchor(self):
        assert required_snr(1000, 1e-3, 0.803).db == pytest.approx(5.0, abs=0.02)

    def test_monotone_in_rate(self):
        snrs = [required_snr(128, 1e-3, r).db for r in (0.2, 0.4, 0.6, 0.8, 0.95)]
        assert all(a < b for a, b in zip(snrs, snrs[1:]))

    def test_rate_one_infeasible(self):
        with pytest.raises(InfeasibleError):
            required_snr(128, 1e-3, 1.0)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            required_snr(128, 1e-3, 0.0)
        with pytest.raises(ValueError):
            required_snr(128, 2.0, 0.5)


def test_default_config_drops_o1n_term():
    snr = Snr(3.0)
    backoff = math.sqrt(biawgn_dispersion(snr) / 128) * q_inv(1e-3) * math.log2(math.e)
    assert normal_approx_rate(128, 1e-3, snr) == pytest.approx(
        biawgn_capacity(snr) - backoff, abs=1e-12
    )
    assert QUADRATURE_NODES >= 64
