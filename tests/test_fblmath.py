import contextlib
import math
import statistics
import warnings

import fbl_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osdlat import fblmath
from osdlat.fblmath import (
    QUADRATURE_NODES,
    InfeasibleError,
    Snr,
    biawgn_capacity,
    biawgn_dispersion,
    normal_approx_rate,
    q_inv,
    required_snr,
)


def gaussian_tail(x):
    """Q(x) = P(Z > x) for standard normal Z, from the standard library's erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def stats_pairs(rhos, nodes=QUADRATURE_NODES):
    """_info_density_stats' capacity and dispersion arrays, as one
    (capacity, dispersion) pair of floats per SNR."""
    c_nats, v = fblmath._info_density_stats(rhos, nodes)
    return list(zip(c_nats.tolist(), v.tolist()))


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


class TestQInv:
    def test_median(self):
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_one_per_mille_against_bisection_oracle(self):
        lo, hi = 0.0, 6.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gaussian_tail(mid) > 1e-3:
                lo = mid
            else:
                hi = mid
        assert q_inv(1e-3) == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert q_inv(1e-3) == pytest.approx(3.0902, abs=1e-4)

    # beyond about 37.5 the tail is subnormal and loses precision
    @given(st.floats(-6.0, 37.0))
    def test_round_trip_on_x(self, x):
        assert q_inv(gaussian_tail(x)) == pytest.approx(x, rel=1e-9, abs=1e-8)

    def test_mutual_inverse_on_p(self):
        for p in np.logspace(-9, math.log10(1 - 1e-9), 50):
            assert gaussian_tail(q_inv(float(p))) == pytest.approx(float(p), rel=1e-8, abs=1e-15)

    def test_domain_error(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                q_inv(p)

    def test_non_finite_rejected(self):
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                q_inv(p)

    def test_strictly_decreasing(self):
        ps = np.logspace(-300, math.log10(1 - 1e-12), 401)
        xs = [q_inv(float(p)) for p in ps]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_antisymmetric(self):
        # p = 2**-j and 1 - p are both exact doubles, so Q^-1(1 - p) = -Q^-1(p)
        for j in range(1, 53):
            p = 2.0**-j
            assert q_inv(1.0 - p) == pytest.approx(-q_inv(p), rel=1e-12, abs=1e-15)

    def test_extreme_tails_are_finite(self):
        # the smallest subnormal and the largest double below 1
        assert q_inv(5e-324) == pytest.approx(38.4674, abs=1e-4)
        assert q_inv(1.0 - 2.0**-53) == pytest.approx(-8.2095, abs=1e-4)
        assert gaussian_tail(q_inv(1e-300)) == pytest.approx(1e-300, rel=1e-8)


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


class TestBatchedQuadrature:
    """_info_density_stats evaluates many SNRs in one pass, and each row is
    the float of the one-SNR pass in fbl_reference."""

    GRID_DB = np.concatenate([
        np.arange(-400.0, 40.0 + 1e-9, 0.05),
        np.random.default_rng(20261019).uniform(-400.0, 40.0, 500),
    ])

    @pytest.mark.parametrize("nodes", [32, 64, 128, 200])
    def test_rows_equal_the_one_snr_pass(self, nodes):
        stats = fblmath._info_density_stats
        rhos = [fblmath._linear(float(db)) for db in self.GRID_DB]
        want = [fbl_reference.info_density_stats(rho, nodes) for rho in rhos]
        stats.cache_clear()
        assert stats_pairs(rhos, nodes) == want
        stats.cache_clear()
        assert [stats_pairs([rho], nodes)[0] for rho in rhos] == want
        assert all(a.dtype == np.float64 and a.shape == (len(rhos),) for a in stats(rhos, nodes))

    def test_ends_of_the_linear_scale(self):
        # -2 rho is -inf past about 3075 dB, as in the one-SNR pass, and warns of nothing
        rhos = [Snr(db).linear for db in (-3236.0, -1000.0, 3075.0, 3076.0, 3082.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_nats, v = fblmath._quadrature(rhos, QUADRATURE_NODES)
        want = [fbl_reference.info_density_stats(rho, QUADRATURE_NODES) for rho in rhos]
        assert list(zip(c_nats.tolist(), v.tolist())) == want

    def test_grid_entries_equal_the_one_snr_pass(self):
        # required_snr reads the grid's floats where a search would compute them
        dbs, c_nats, v = fblmath._grid()
        for db, c, var in zip(dbs.tolist(), c_nats.tolist(), v.tolist()):
            one_c, one_v = fblmath._quadrature([fblmath._linear(db)], QUADRATURE_NODES)
            assert (c, var) == (one_c[0], one_v[0]) == fbl_reference.info_density_stats(
                fblmath._linear(db), QUADRATURE_NODES), db

    def test_grid_points(self):
        dbs = fblmath._grid()[0].tolist()
        lattice = [fblmath._START_DB[0] - fblmath._STEP_DB * j for j in range(1, 18)][::-1]
        steps = [fblmath._START_DB[0] + fblmath._GRID_STEP_DB * j for j in range(101)]
        assert dbs == lattice + steps
        assert dbs[0] == fblmath._FLOOR_DB and dbs[-1] == fblmath._START_DB[1]

    @pytest.fixture
    def passes(self, monkeypatch):
        """The SNRs of each numpy pass _info_density_stats makes."""
        seen = []
        quadrature = fblmath._quadrature

        def recorded(rhos, nodes):
            seen.append(list(rhos))
            return quadrature(rhos, nodes)

        monkeypatch.setattr(fblmath, "_quadrature", recorded)
        fblmath._info_density_stats.cache_clear()
        yield seen
        fblmath._info_density_stats.cache_clear()

    def test_cache_counts_quadratures(self, passes):
        stats = fblmath._info_density_stats
        a, b = Snr(1.0).linear, Snr(2.0).linear
        # a repeat within a call is computed once and then hit
        first = stats_pairs([a, b, a])
        assert first[0] == first[2]
        # nothing is kept between calls
        assert stats_pairs([b, a]) == first[1:]
        assert passes == [[a, b], [b, a]]
        assert stats.cache_info() == fblmath.CacheInfo(hits=1, misses=4)
        assert stats_pairs([]) == []
        stats.cache_clear()
        assert stats.cache_info() == (0, 0)


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
        with pytest.raises(ValueError, match="blocklength"):
            required_snr(0, 1e-3, 0.5)
        # an empty sequence still has its epsilon checked
        for epsilon in (2.0, math.nan):
            with pytest.raises(ValueError, match="error probability"):
                required_snr([], epsilon, [])

    def test_lower_end_steps_down(self):
        # eps > 1/2 makes the backoff negative, so -60 dB already reaches
        # this rate; the bracket is the lattice's [-80, -60] dB
        assert normal_approx_rate(400000, 0.99, Snr(-60.0)) >= 2.5e-6
        assert -80.0 < required_snr(400000, 0.99, 2.5e-6).db < -60.0

    def test_rate_reached_down_to_the_floor(self):
        # the exact rate at -400 dB is about 1.8e-20 bits
        with pytest.raises(ValueError, match="every SNR down to -400 dB"):
            required_snr(1, 0.9, 1e-21)

    def test_low_snr_root_above_the_rounding(self):
        # at low SNR the rate is about -Qinv(eps) sqrt(rho) log2(e) bits, and
        # the centred dispersion keeps its rounding far below 1e-12 bits
        epsilon, target = 0.9, 1e-12
        with recording() as tried:
            got = required_snr(1, epsilon, target).db
        assert got == pytest.approx(20.0 * math.log10(target / (-q_inv(epsilon) * fblmath.LOG2E)), abs=0.01)
        assert_contract(1, epsilon, target, got, tried)


@contextlib.contextmanager
def recording():
    """The list of SNRs in dB that the searches inside the block evaluate."""
    tried, linear = [], fblmath._linear

    def recorded(db):
        tried.append(db)
        return linear(db)

    fblmath._linear = recorded
    try:
        yield tried
    finally:
        fblmath._linear = linear


def assert_contract(n, epsilon, target, got, tried):
    """The oracle's rate at got reaches the target, and at an SNR in tried,
    or a point of the bracket grid that the search reads instead of
    evaluating, no more than _TOL_DB below got it does not."""
    assert fbl_reference.rate(n, epsilon, Snr(got)) >= target, (n, epsilon, target, got)
    tried = np.concatenate([tried, fblmath._grid()[0]])
    below = tried[(tried < got) & (got - tried <= fblmath._TOL_DB)].tolist()
    assert any(fbl_reference.rate(n, epsilon, Snr(a)) < target for a in below), (n, epsilon, target, got)


def check_against_oracle(n, epsilon, target):
    """required_snr raises what the oracle's checks raise, or returns an SNR
    inside the oracle's first bracket that meets the contract."""
    try:
        lower = fbl_reference.lower_start(n, epsilon, target)
    except ValueError as exc:
        assert _outcome(required_snr, n, epsilon, target) == (type(exc).__name__, str(exc))
        return
    with recording() as tried:
        got = required_snr(n, epsilon, target).db
    assert lower < got <= fblmath._START_DB[1]
    assert_contract(n, epsilon, target, got, tried)


def _outcome(search, *args):
    """The SNR in dB a search returns, or the type and text of what it raises."""
    try:
        return search(*args).db
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _rates():
    near_zero = st.floats(-12.0, -1.0).map(lambda e: 10.0**e)
    near_one = st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e)
    return st.one_of(near_zero, near_one, st.floats(0.01, 0.99))


class TestRequiredSnrContract:
    """required_snr's result meets its contract against the rates of
    fbl_reference, and fails as the oracle's checks fail."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 128), st.integers(1, 10**6)),
        epsilon=st.floats(-12.0, math.log10(0.99)).map(lambda e: 10.0**e),
        rate=_rates(),
    )
    @example(n=500, epsilon=1e-3, rate=0.5)
    @example(n=400000, epsilon=0.99, rate=2.5e-6)
    @example(n=1, epsilon=0.99, rate=1e-6)
    @example(n=10**6, epsilon=1e-12, rate=1e-12)
    @example(n=3, epsilon=0.5, rate=0.9999999)
    @example(n=1, epsilon=0.9, rate=1e-12)
    @example(n=1, epsilon=0.9, rate=1e-21)
    @example(n=128, epsilon=2.0, rate=0.0)
    @example(n=0, epsilon=1e-3, rate=1.5)
    def test_meets_the_contract(self, n, epsilon, rate):
        check_against_oracle(n, epsilon, rate)

    @given(
        n=st.one_of(st.integers(1, 128), st.integers(1, 10**9)),
        epsilon=st.floats(-12.0, math.log10(0.999999)).map(lambda e: 10.0**e),
    )
    @example(n=1, epsilon=0.999999)
    @example(n=10**9, epsilon=1e-12)
    def test_upper_start_reaches_every_rate(self, n, epsilon):
        # required_snr never moves its upper end, and the oracle never steps
        # its own up: the rate before the clamp is exactly 1 at 40 dB
        assert fblmath._rate_gap(n, q_inv(epsilon), [Snr(fblmath._START_DB[1]).linear], 0.0)[0] == 1.0

    def test_every_k_over_n_of_small_blocklengths(self):
        # one sequence call per (n, epsilon); test_meets_the_contract and the
        # alone-against-together tests cover the scalar call
        for epsilon in (1e-1, 1e-3, 1e-9):
            for n in range(2, 65):
                with recording() as tried:
                    got = required_snr([n] * (n - 1), epsilon, [k / n for k in range(1, n)])
                for k, snr in enumerate(got, start=1):
                    assert_contract(n, epsilon, k / n, snr.db, tried)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(1, 10**6), _rates()), max_size=8),
        epsilon=st.floats(-12.0, math.log10(0.99)).map(lambda e: 10.0**e),
    )
    @example(pairs=[(500, 0.5), (1, 1e-21), (128, 1.0)], epsilon=0.9)
    @example(pairs=[(64, 0.5), (64, 0.5), (2, 0.5)], epsilon=1e-3)
    def test_sequences_match_each_pair(self, pairs, epsilon):
        """The sequence form returns each pair's scalar result, or raises what
        the first failing pair raises on its own."""
        ns, rates = [n for n, _ in pairs], [rate for _, rate in pairs]
        alone = [_outcome(required_snr, n, epsilon, rate) for n, rate in pairs]
        failures = [outcome for outcome in alone if isinstance(outcome, tuple)]
        with recording() as tried:
            try:
                together = [snr.db for snr in required_snr(ns, epsilon, rates)]
            except ValueError as exc:
                together = (type(exc).__name__, str(exc))
        assert together == (failures[0] if failures else alone)
        if not failures:
            for (n, rate), got in zip(pairs, together):
                assert_contract(n, epsilon, rate, got, tried)

    def test_first_failing_pair_in_order_raises(self):
        # the floor's error surfaces rounds after the rate-1 pair fails, and
        # still wins: a loop over the pairs would raise it first
        with pytest.raises(ValueError, match="every SNR down to -400 dB") as caught:
            required_snr([500, 1, 128], 0.9, [0.5, 1e-21, 1.0])
        assert type(caught.value) is ValueError
        with pytest.raises(InfeasibleError):
            required_snr([500, 128, 1], 0.9, [0.5, 1.0, 1e-21])

    def test_width_bounds_each_round(self, monkeypatch):
        # pairs past the block wait for the block before them, so a round's
        # arrays stay bounded however long the sweep, and each pair keeps
        # its float and the error order holds
        rounds = []
        stats = fblmath._info_density_stats

        def counted(rhos, nodes):
            rounds.append(len(rhos))
            return stats(rhos, nodes)

        monkeypatch.setattr(fblmath, "_info_density_stats", counted)
        ns, rates = [2, 64, 128, 500, 1000, 10**5, 7], [0.5, 0.1, 0.9, 0.5, 0.25, 0.99, 3 / 7]
        want = [required_snr(n, 1e-3, rate) for n, rate in zip(ns, rates)]
        for rows in (3, 1):
            monkeypatch.setattr(fblmath, "_ROWS", rows)
            # the grid's one pass, rebuilt here, goes straight to _quadrature and is no round
            fblmath._grid.cache_clear()
            rounds.clear()
            assert required_snr(ns, 1e-3, rates) == want
            assert max(rounds) == rows
            with pytest.raises(ValueError, match="every SNR down to -400 dB"):
                required_snr([500, 1, 128], 0.9, [0.5, 1e-21, 1.0])

    @pytest.mark.parametrize("epsilon", [1e-12, 1e-3, 0.9])
    def test_long_sequences_in_small_blocks(self, monkeypatch, epsilon):
        """300 pairs in blocks of 7 give each pair's own float, which meets
        the contract, or raise the first failing pair's error."""
        rng = np.random.default_rng(round(-math.log10(epsilon)))
        ns = [int(n) for n in np.round(10.0 ** rng.uniform(0.0, 6.0, 300))]
        rates = [float(r) for r in np.concatenate([
            10.0 ** rng.uniform(-12.0, -1.0, 100),
            1.0 - 10.0 ** rng.uniform(-12.0, -1.0, 100),
            rng.uniform(0.01, 0.99, 100),
        ])]
        rng.shuffle(rates)
        alone = {pair: _outcome(required_snr, pair[0], epsilon, pair[1]) for pair in zip(ns, rates)}
        monkeypatch.setattr(fblmath, "_ROWS", 7)

        def together(pairs):
            try:
                return [snr.db for snr in required_snr([n for n, _ in pairs], epsilon,
                                                       [rate for _, rate in pairs])]
            except ValueError as exc:
                return type(exc).__name__, str(exc)

        def first_failure(pairs):
            return next((alone[pair] for pair in pairs if isinstance(alone[pair], tuple)), None)

        pairs = list(zip(ns, rates))
        assert together(pairs) == (first_failure(pairs) or [alone[pair] for pair in pairs])
        kept = [pair for pair in pairs if not isinstance(alone[pair], tuple)]
        with recording() as tried:
            got = together(kept)
        for (n, rate), db in zip(kept, got):
            assert_contract(n, epsilon, rate, db, tried)
        # a pair that fails at once, after an earlier one that fails rounds
        # later (at the -400 dB floor, when eps > 1/2) or at once
        early, late = ((1, 1e-21) if epsilon > 0.5 else (3, 1.5)), (64, 1.0)
        for pair in (early, late):
            alone[pair] = _outcome(required_snr, pair[0], epsilon, pair[1])
        failing = kept[:150] + [early] + kept[150:280] + [late]
        assert together(failing) == first_failure(failing) == alone[early]

    def test_sequence_shapes(self):
        assert required_snr([], 1e-3, []) == []
        assert required_snr((128,), 1e-3, (0.5,)) == [required_snr(128, 1e-3, 0.5)]
        for ns, rates in (([128, 64], [0.5]), (128, [0.5]), ([128], 0.5)):
            with pytest.raises(ValueError, match="equal length"):
                required_snr(ns, 1e-3, rates)

    def test_cold_cache_evaluations_per_call(self):
        """About 7 quadratures a call from the grid's 1 dB bracket, where
        Illinois from the 100 dB bracket [-60, 40] dB needed 16 (worst 38)
        and a bisection of it down to _TOL_DB would need about 50.  The
        grid's own pass, once per process, is not counted."""
        stats = fblmath._info_density_stats
        cases = [(n, eps, k / n) for eps in (1e-1, 1e-3, 1e-9)
                 for n in (2, 17, 64, 128, 500, 1000) for k in range(1, n, max(1, n // 7))]

        def misses(case):
            stats.cache_clear()
            required_snr(*case)
            return stats.cache_info().misses

        fblmath._grid()
        counts = [misses(case) for case in cases]
        assert statistics.median(counts) <= 7
        assert max(counts) <= 32

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 128), st.integers(1, 10**6)),
        epsilon=st.floats(-12.0, math.log10(0.99)).map(lambda e: 10.0**e),
        rate=st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e),
    )
    @example(n=373020, epsilon=0.712, rate=1 - 2.7e-8)
    def test_quadratures_near_rate_one(self, n, epsilon, rate):
        """The rate - target of a rate near 1 is flat at 1 - rate from 20 dB
        up and steep near the root.  From the 100 dB bracket Illinois halved
        the far end's value about 25 times on each flat stretch: up to 108
        quadratures a cold call, and 80 for the example.  From the grid's
        bracket the example takes 15, and 3,000 random cold calls of this
        kind took at most 43."""
        stats = fblmath._info_density_stats
        fblmath._grid()
        stats.cache_clear()
        required_snr(n, epsilon, rate)
        assert stats.cache_info().misses <= 48


def test_default_config_drops_o1n_term():
    snr = Snr(3.0)
    backoff = math.sqrt(biawgn_dispersion(snr) / 128) * q_inv(1e-3) * math.log2(math.e)
    assert normal_approx_rate(128, 1e-3, snr) == pytest.approx(
        biawgn_capacity(snr) - backoff, abs=1e-12
    )
    assert QUADRATURE_NODES >= 64


class TestRoundingError:
    """The float rate against exact arithmetic on the same float nodes,
    weights and SNR: the centred dispersion does not cancel at low SNR, where
    E[g^2] - E[g]^2 was off by 2.6e-12 bits at -100 dB."""

    @pytest.mark.parametrize("db", [-300.0, -100.0, -60.0, -20.0, -3.0, 0.0, 2.77, 8.0, 15.0])
    def test_rate_within_a_few_units_of_roundoff(self, db):
        mpmath = pytest.importorskip("mpmath")
        x, w = fblmath._hermgauss(QUADRATURE_NODES)
        mp = mpmath.mp.clone()
        mp.dps = 40
        exact = mp.mpf
        ln2, sqrt2, norm = exact(math.log(2.0)), exact(math.sqrt(2.0)), exact(1.0 / math.sqrt(math.pi))
        rho = exact(fblmath._linear(db))
        g = [mp.log(1 + mp.exp(-2 * rho - 2 * mp.sqrt(rho) * sqrt2 * exact(xi))) for xi in x]
        mean_g = norm * mp.fsum(exact(wi) * gi for wi, gi in zip(w, g))
        v = norm * mp.fsum(exact(wi) * (gi - mean_g) ** 2 for wi, gi in zip(w, g))
        c_nats = max(ln2 - mean_g, 0)
        for n, epsilon in ((1, 1e-12), (128, 1e-3), (10**6, 1e-3), (1, 0.99), (10**6, 0.99)):
            backoff = q_inv(epsilon)
            want = (c_nats - mp.sqrt(v / n) * exact(backoff)) * exact(fblmath.LOG2E)
            got = fblmath._rate_gap(n, backoff, [fblmath._linear(db)], 0.0)[0]
            assert abs(got - want) <= 16 * 2.0**-53 * max(1, abs(want)), (n, epsilon)
