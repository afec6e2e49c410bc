import dataclasses
import functools
import importlib
import itertools
import json
import math
import multiprocessing
import pickle
import re
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import osd_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from osd_reference import decode_distance

from osdlat import _gf2, codecsim
from osdlat.codecsim import (
    BlerEstimate,
    CodeSpec,
    ConstructionError,
    OsdStats,
    build_ebch,
    encode,
    estimate_bler,
    message_from_codeword,
    osd_decode,
    required_snr_sim,
    transmit,
)
from osdlat.fblmath import Snr, required_snr
from osdlat.oscomplexity import pattern_count


def all_codewords(code):
    words = []
    for bits in itertools.product((0, 1), repeat=code.k):
        words.append(encode(code, np.array(bits, dtype=np.uint8)))
    return np.array(words, dtype=np.uint8)


class TestConstruction:
    @pytest.mark.parametrize("n,k,d_min", [(8, 4, 4), (32, 16, 8), (64, 36, 12), (128, 64, 22)])
    def test_supported_codes(self, n, k, d_min):
        code = build_ebch(n, k)
        assert code.d_min == d_min
        assert code.generator.shape == (k, n)
        reduced, rows = _gf2.systematic_with_permutation(_gf2.pack(code.generator.T), k, np.arange(n)[None, :])
        assert np.array_equal(_gf2.unpack(reduced[:k, 0], k), np.eye(k, dtype=np.uint8))
        assert np.array_equal(rows[:, 0], np.r_[np.arange(k), np.full(n - k, -1)])
        assert "reduced" in vars(code)  # reduced at construction

    def test_raw_code_reduces_on_first_use(self, code84):
        code = CodeSpec(n=8, k=4, d_min=4, generator=code84.generator)
        assert "reduced" not in vars(code)
        msg = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(message_from_codeword(code, encode(code, msg)), msg)
        assert "reduced" in vars(code)

    def test_reduction_is_pickled_with_the_code(self, code6436):
        # pool workers receive the code pickled, must not reduce it again, and decode as it does
        copy = pickle.loads(pickle.dumps(code6436))
        assert "reduced" in vars(copy) and "generator_columns" in vars(copy)
        for got, want in zip((*copy.reduced, copy.generator_columns),
                             (*code6436.reduced, code6436.generator_columns)):
            assert np.array_equal(got, want)
        rng = np.random.default_rng(15)
        codewords = encode(code6436, rng.integers(0, 2, (64, code6436.k)))
        y = 1.0 - 2.0 * codewords + 0.6 * rng.standard_normal(codewords.shape)
        for got, want in zip(osd_decode(copy, y, 2), osd_decode(code6436, y, 2)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,k", [(8, 4), (64, 36), (64, 57), (128, 57), (256, 247)])
    def test_parity_checks_span_the_dual(self, n, k):
        code = build_ebch(n, k)
        checks = _gf2.unpack(code.reduced[2], n - k).T
        assert checks.shape == (n - k, n)
        assert not (code.generator.astype(np.int64) @ checks.T % 2).any()
        # full rank: n - k independent checks
        osd_reference.systematic_with_permutation(checks, np.arange(n))

    def test_overall_parity_column(self, code6436):
        g = code6436.generator
        assert np.array_equal(g[:, -1], g[:, :-1].sum(axis=1) % 2)
        assert np.all(g.sum(axis=1) % 2 == 0)

    def test_extended_hamming_weight_distribution(self, code84):
        weights = np.bincount(all_codewords(code84).sum(axis=1), minlength=9)
        assert weights[0] == 1 and weights[4] == 14 and weights[8] == 1
        assert weights.sum() == 16

    def test_unsupported_parameters(self):
        for _ in range(2):  # a failed construction is not cached: every call raises
            with pytest.raises(ConstructionError):
                build_ebch(16, 9)
        with pytest.raises(ConstructionError):
            build_ebch(10, 5)
        with pytest.raises(ConstructionError):
            build_ebch(8, 8)

    def test_roots_that_are_no_union_of_cosets(self):
        # alpha alone is not a cyclotomic coset: x - alpha has a coefficient outside GF(2)
        with pytest.raises(ConstructionError, match="non-binary"):
            codecsim._generator_poly([1], *codecsim._gf_tables(3))


class TestSharedCode:
    """build_ebch returns one code per (n, k), shared by every caller and changed by none."""

    def test_one_code_per_parameters(self):
        assert build_ebch(64, 36) is build_ebch(64, 36)

    def test_arrays_are_read_only(self, code6436):
        for array in (code6436.generator, *code6436.reduced, code6436.generator_columns):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] ^= 1

    def test_fields_cannot_be_reassigned(self, code6436):
        with pytest.raises(dataclasses.FrozenInstanceError):
            code6436.generator = code6436.generator.copy()


class TestEncode:
    def test_zero_message(self, code3216):
        assert not encode(code3216, np.zeros(16, dtype=np.uint8)).any()

    def test_linearity(self, code6436):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.integers(0, 2, 36, dtype=np.uint8)
            v = rng.integers(0, 2, 36, dtype=np.uint8)
            assert np.array_equal(encode(code6436, u ^ v), encode(code6436, u) ^ encode(code6436, v))

    def test_length_mismatch(self, code84):
        with pytest.raises(ValueError):
            encode(code84, np.zeros(5, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(3, 5), (2, 3, 4), ()])
    def test_batch_shape_mismatch(self, code84, shape):
        with pytest.raises(ValueError):
            encode(code84, np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("n,k", [(8, 4), (64, 36), (128, 64), (128, 78), (256, 131)])
    @pytest.mark.parametrize("high", [2, 256])
    def test_batch_equals_row_wise_product(self, n, k, high):
        # eBCH(128, 78) messages take two packed words and eBCH(256, 131)
        # messages three; entries above 1 count mod 2
        code = build_ebch(n, k)
        msgs = np.random.default_rng(n + high).integers(0, high, (40, k), dtype=np.uint8)
        want = msgs.astype(np.int64) @ code.generator % 2
        got = encode(code, msgs)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)
        for msg, row in zip(msgs, want):
            assert np.array_equal(encode(code, msg), row)

    def test_sampled_weights_at_least_dmin(self, code6436):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            msg = rng.integers(0, 2, 36, dtype=np.uint8)
            if msg.any():
                assert encode(code6436, msg).sum() >= code6436.d_min

    @pytest.mark.parametrize(
        "n,k,weight", [(8, 4, 4), (16, 5, 8), (16, 7, 6), (16, 11, 4), (32, 11, 12), (32, 16, 8)]
    )
    def test_exhaustive_weights_small_code(self, n, k, weight):
        code = build_ebch(n, k)
        words = all_codewords(code)
        nonzero = words[words.sum(axis=1) > 0]
        assert nonzero.sum(axis=1).min() == weight == code.d_min

    def test_d_min_is_at_most_every_minimum_weight(self):
        # the ML certificate needs d_min <= the true minimum distance; every
        # constructible eBCH code with k <= 16 is enumerated in full
        checked = []
        for m in range(3, 9):
            for k in range(1, 17):
                try:
                    code = build_ebch(1 << m, k)
                except ConstructionError:
                    continue
                messages = (np.arange(1, 1 << k)[:, None] >> np.arange(k)) & 1
                weights = (messages.astype(np.float32) @ code.generator % 2).sum(axis=1)
                assert weights.min() >= code.d_min, (code.n, k)
                checked.append((code.n, k))
        assert len(checked) == 20

    @pytest.mark.parametrize("n,k", [(128, 64), (128, 78), (256, 131)])
    def test_message_recovery_round_trip(self, n, k):
        # c_J of one, two and three packed words
        code = build_ebch(n, k)
        msgs = np.random.default_rng([n, k]).integers(0, 2, (30, k), dtype=np.uint8)
        assert np.array_equal(message_from_codeword(code, encode(code, msgs)), msgs)
        for msg in msgs[:5]:
            assert np.array_equal(message_from_codeword(code, encode(code, msg)), msg)

    @pytest.mark.parametrize("shape", [(7,), (9,), (2, 9), (2, 3, 8), ()])
    def test_recovery_shape_mismatch(self, code84, shape):
        # a length other than n is refused, not read from its first n bits
        with pytest.raises(ValueError, match=re.escape(f"shape (n,) or (B, n) with n=8, got {shape}")):
            message_from_codeword(code84, np.ones(shape, dtype=np.uint8))

    def test_rank_deficient_generator_has_no_recovery(self, code84):
        g = code84.generator.copy()
        g[3] = g[0]
        code = CodeSpec(n=8, k=4, d_min=0, generator=g)
        with pytest.raises(ValueError):
            message_from_codeword(code, encode(code, np.array([1, 0, 0, 1], dtype=np.uint8)))


class TestTransmit:
    def test_noiseless_limit(self, code3216):
        rng = np.random.default_rng(0)
        cw = encode(code3216, rng.integers(0, 2, 16, dtype=np.uint8))
        y = transmit(code3216, cw, Snr(100.0), rng)
        symbols = 1.0 - 2.0 * cw
        assert np.allclose(y, symbols, atol=1e-3)
        assert np.array_equal(np.sign(y), np.sign(symbols))

    def test_noise_variance(self, code6436):
        rho = Snr(3.0).linear
        rng = np.random.default_rng(42)
        cw = np.zeros(64, dtype=np.uint8)
        samples = []
        for _ in range(16_000):
            samples.append(transmit(code6436, cw, Snr(3.0), rng) - 1.0)
        noise = np.concatenate(samples)
        assert noise.size >= 10**6
        assert noise.var() == pytest.approx(1.0 / rho, rel=0.01)

    def test_deterministic_given_seed(self, code84):
        cw = np.zeros(8, dtype=np.uint8)
        a = transmit(code84, cw, Snr(2.0), np.random.default_rng(9))
        b = transmit(code84, cw, Snr(2.0), np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_wrong_length_codeword_rejected(self, code84):
        with pytest.raises(ValueError, match="length n=8"):
            transmit(code84, np.zeros(7, dtype=np.uint8), Snr(2.0), np.random.default_rng(9))


class TestOsdDecode:
    @pytest.mark.parametrize("n,k", [(64, 36), (256, 131)])
    def test_noiseless_recovery(self, n, k):
        # at n = 256 the hard decisions take four packed words in the syndrome product
        code = build_ebch(n, k)
        rng = np.random.default_rng(4)
        for s in (0, 1):
            msg = rng.integers(0, 2, k, dtype=np.uint8)
            cw = encode(code, msg)
            rx = transmit(code, cw, Snr(60.0), rng)
            msg_hat, cw_hat = osd_decode(code, rx, s)
            assert np.array_equal(msg_hat, msg)
            assert np.array_equal(cw_hat, cw)

    def test_full_order_equals_ml(self, code84):
        words = all_codewords(code84)
        rng = np.random.default_rng(5)
        for _ in range(500):
            msg = rng.integers(0, 2, 4, dtype=np.uint8)
            y = transmit(code84, encode(code84, msg), Snr(2.0), rng)
            _, cw_hat = osd_decode(code84, y, 4)
            ml_dist = np.sum((y - (1.0 - 2.0 * words)) ** 2, axis=1)
            assert decode_distance(y, cw_hat) == pytest.approx(float(ml_dist.min()), abs=1e-9)

    def test_candidate_superset_property(self, code3216):
        rng = np.random.default_rng(6)
        for _ in range(200):
            msg = rng.integers(0, 2, 16, dtype=np.uint8)
            rx = transmit(code3216, encode(code3216, msg), Snr(1.0), rng)
            d0 = decode_distance(rx, osd_decode(code3216, rx, 0)[1])
            d1 = decode_distance(rx, osd_decode(code3216, rx, 1)[1])
            d2 = decode_distance(rx, osd_decode(code3216, rx, 2)[1])
            assert d1 <= d0 + 1e-12
            assert d2 <= d1 + 1e-12

    def test_output_is_codeword(self, code6436):
        rng = np.random.default_rng(7)
        for _ in range(100):
            msg = rng.integers(0, 2, 36, dtype=np.uint8)
            rx = transmit(code6436, encode(code6436, msg), Snr(-2.0), rng)
            msg_hat, cw_hat = osd_decode(code6436, rx, 1)
            assert np.array_equal(encode(code6436, msg_hat), cw_hat)

    def test_pattern_counter_matches_closed_form(self, code3216):
        rng = np.random.default_rng(8)
        msg = rng.integers(0, 2, 16, dtype=np.uint8)
        rx = transmit(code3216, encode(code3216, msg), Snr(2.0), rng)
        for s in (0, 1, 2, 3):
            stats = OsdStats()
            osd_decode(code3216, rx, s, stats=stats)
            assert stats.decodes == 1
            assert stats.patterns_evaluated == pattern_count(16, s)

    @pytest.mark.parametrize("shape", [(7,), (9,), (2, 7), (2, 3, 8), ()])
    def test_shape_validation(self, code84, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape (n,) or (B, n) with n=8, got shape {shape}")):
            osd_decode(code84, np.ones(shape), 0)

    def test_order_validation(self, code84):
        rng = np.random.default_rng(9)
        rx = transmit(code84, np.zeros(8, dtype=np.uint8), Snr(2.0), rng)
        with pytest.raises(ValueError):
            osd_decode(code84, rx, 99)

    def test_deterministic(self, code6436):
        rng = np.random.default_rng(10)
        msg = rng.integers(0, 2, 36, dtype=np.uint8)
        rx = transmit(code6436, encode(code6436, msg), Snr(0.0), rng)
        first = osd_decode(code6436, rx, 2)
        second = osd_decode(code6436, rx, 2)
        assert np.array_equal(first[1], second[1])


class TestEstimateBler:
    def test_reproducible_given_seed(self, code3216):
        a = estimate_bler(code3216, 1, Snr(3.0), min_errors=40, max_trials=20000, seed=13)
        b = estimate_bler(code3216, 1, Snr(3.0), min_errors=40, max_trials=20000, seed=13)
        assert a == b

    def test_worker_count_invariance(self, code84):
        a = estimate_bler(code84, 1, Snr(3.0), min_errors=60, max_trials=20000, seed=14, workers=1)
        b = estimate_bler(code84, 1, Snr(3.0), min_errors=60, max_trials=20000, seed=14, workers=2)
        assert a == b

    def test_partial_last_batch_counted(self, code84):
        # 1300 = 512 + 512 + 276 trials; min_errors is never reached
        kwargs = dict(min_errors=10**6, max_trials=1300, seed=17)
        serial = estimate_bler(code84, 1, Snr(3.0), workers=1, **kwargs)
        pooled = estimate_bler(code84, 1, Snr(3.0), workers=2, **kwargs)
        assert serial.trials == pooled.trials == 1300
        assert serial == pooled

    def test_zero_errors_flagged_as_upper_bound(self, code84):
        est = estimate_bler(code84, 4, Snr(50.0), min_errors=10, max_trials=2000, seed=15)
        assert est.errors == 0
        assert est.bler == 0.0
        assert est.upper_bound
        assert est.ci95_halfwidth == pytest.approx(3.0 / est.trials)

    def test_bler_decreases_with_snr(self, code84):
        ests = [
            estimate_bler(code84, 1, Snr(db), min_errors=200, max_trials=60000, seed=4)
            for db in (2.0, 4.0, 6.0)
        ]
        for lo, hi in zip(ests[1:], ests):
            assert lo.bler <= hi.bler + lo.ci95_halfwidth + hi.ci95_halfwidth

    def test_higher_order_no_worse(self, code84):
        e0 = estimate_bler(code84, 0, Snr(4.0), min_errors=200, max_trials=60000, seed=4)
        e2 = estimate_bler(code84, 2, Snr(4.0), min_errors=200, max_trials=60000, seed=4)
        assert e2.bler <= e0.bler + e0.ci95_halfwidth + e2.ci95_halfwidth

    def test_stats_accumulate_pattern_counts(self, code84):
        stats = OsdStats()
        est = estimate_bler(
            code84, 2, Snr(3.0), min_errors=30, max_trials=4000, seed=16, stats=stats
        )
        assert stats.decodes == est.trials
        assert stats.patterns_evaluated == est.trials * pattern_count(4, 2)


class TestRequiredSnrSim:
    def test_reproducible_across_seeds_within_grid_step(self, code84):
        thr = [
            required_snr_sim(code84, 4, 2e-2, min_errors=80, seed=seed, start_db=2.0)
            for seed in (2, 3)
        ]
        assert all(t.reached for t in thr)
        assert abs(thr[0].snr_db - thr[1].snr_db) <= 0.25 + 1e-12

    def test_sweep_recorded_and_monotone(self, code84):
        thr = required_snr_sim(code84, 4, 2e-2, min_errors=80, seed=2, start_db=2.0)
        assert len(thr.sweep) >= 2
        assert thr.sweep[-1].snr_db == pytest.approx(thr.snr_db)
        assert thr.sweep[-1].bler <= 2e-2

    def test_sweep_ends_at_threshold_estimate(self, code84):
        thr = required_snr_sim(code84, 2, 2e-2, min_errors=80, seed=2, start_db=2.0)
        last = thr.sweep[-1]
        assert isinstance(last, BlerEstimate)
        assert last.snr_db == thr.snr_db
        assert last.order == 2

    def test_required_snr_non_increasing_in_order(self, code84):
        thr0 = required_snr_sim(code84, 0, 2e-2, min_errors=80, seed=6)
        thr1 = required_snr_sim(code84, 1, 2e-2, min_errors=80, seed=6)
        assert thr0.reached and thr1.reached
        assert thr1.snr_db <= thr0.snr_db + 1e-12

    def test_not_reached_reported(self, code84):
        # 20 trials never accept: a point without errors still carries 3/20
        thr = required_snr_sim(code84, 0, 1e-6, min_errors=20, max_trials=20, seed=8)
        assert not thr.reached
        assert math.isnan(thr.snr_db)
        assert len(thr.sweep) == int(codecsim.SWEEP_SPAN_DB / 0.25) + 1 == 61

    def test_grid_step_must_be_positive(self, code84):
        with pytest.raises(ValueError, match="grid_db must be positive, got 0"):
            required_snr_sim(code84, 0, 2e-2, grid_db=0)



class _DeferredFuture(Future):
    """Runs its call only when its result is asked for, so nothing starts unasked."""

    def __init__(self, call):
        super().__init__()
        self._call = call

    def result(self, timeout=None):
        if self.set_running_or_notify_cancel():
            self.set_result(self._call())
        return super().result(timeout)


class _DeferredPool(Executor):
    """Stands in for ProcessPoolExecutor and records every batch submitted to it."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.futures = []
        self.pending_at_shutdown = None

    def submit(self, fn, /, *args, **kwargs):
        future = _DeferredFuture(functools.partial(fn, *args, **kwargs))
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.pending_at_shutdown = [f for f in self.futures if not f.done()]


class TestProcessPool:
    """One pool per sweep or stand-alone estimate, shared by its grid points."""

    # max_trials spans 8 batches; from 0 dB the first points stop after one
    # batch with the next ones in flight, the last ones run up to 7 batches
    SWEEP = dict(grid_db=0.5, min_errors=50, max_trials=4096, seed=7, start_db=0.0)

    @pytest.fixture
    def built_pools(self, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(codecsim, "ProcessPoolExecutor", CountingPool)
        return pools

    @pytest.fixture
    def deferred_pools(self, monkeypatch):
        pools = []

        def build(max_workers):
            pools.append(_DeferredPool(max_workers))
            return pools[-1]

        monkeypatch.setattr(codecsim, "ProcessPoolExecutor", build)
        return pools

    def test_sweep_builds_one_pool(self, code84, built_pools):
        thr = required_snr_sim(code84, 0, 2e-2, workers=2, **self.SWEEP)
        assert len(thr.sweep) >= 3
        assert len(built_pools) == 1

    def test_estimate_builds_its_own_pool(self, code84, built_pools):
        estimate_bler(code84, 0, Snr(0.0), min_errors=50, max_trials=4096, seed=7, workers=2)
        assert len(built_pools) == 1

    def test_serial_runs_build_no_pool(self, code84, built_pools):
        required_snr_sim(code84, 0, 2e-2, workers=1, **self.SWEEP)
        assert built_pools == []

    def test_sweep_identical_for_any_worker_count(self, code84):
        sweeps = [required_snr_sim(code84, 0, 2e-2, workers=w, **self.SWEEP) for w in (1, 2, 3)]
        assert sweeps[0].reached
        # one point stops after one batch, another runs at least four
        batches = [-(-est.trials // codecsim.BATCH_SIZE) for est in sweeps[0].sweep]
        assert min(batches) == 1 and max(batches) >= 4
        assert sweeps[1] == sweeps[0]
        assert sweeps[2] == sweeps[0]

    def test_early_stop_cancels_its_unstarted_batches(self, code84, deferred_pools):
        serial = required_snr_sim(code84, 0, 2e-2, workers=1, **self.SWEEP)
        pooled = required_snr_sim(code84, 0, 2e-2, workers=2, **self.SWEEP)
        assert pooled == serial
        (pool,) = deferred_pools
        assert pool.pending_at_shutdown == []
        assert sum(f.cancelled() for f in pool.futures) > 0
        ran = sum(not f.cancelled() for f in pool.futures)
        assert ran == sum(-(-est.trials // codecsim.BATCH_SIZE) for est in serial.sweep)

    def test_early_stopped_estimate_cancels_before_shutdown(self, code84, deferred_pools):
        est = estimate_bler(code84, 0, Snr(0.0), min_errors=50, max_trials=4096, seed=7, workers=2)
        assert est.trials == codecsim.BATCH_SIZE
        (pool,) = deferred_pools
        assert [f.cancelled() for f in pool.futures] == [False, True, True, True]
        assert pool.pending_at_shutdown == []

    def test_no_worker_outlives_its_run(self, code84):
        required_snr_sim(code84, 0, 2e-2, workers=2, **self.SWEEP)
        assert multiprocessing.active_children() == []
        est = estimate_bler(code84, 0, Snr(0.0), min_errors=50, max_trials=4096, seed=7, workers=2)
        assert est.trials < 4096
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("max_trials", [codecsim.BATCH_SIZE, 300])
    def test_one_batch_runs_build_no_pool(self, code84, built_pools, max_trials):
        # neither the sweep nor any of its grid points builds one
        sweep = {**self.SWEEP, "max_trials": max_trials}
        pooled = required_snr_sim(code84, 0, 2e-2, workers=2, **sweep)
        assert len(pooled.sweep) >= 3
        est = estimate_bler(code84, 0, Snr(0.0), min_errors=50, max_trials=max_trials, seed=7, workers=2)
        assert built_pools == []
        assert multiprocessing.active_children() == []
        assert pooled == required_snr_sim(code84, 0, 2e-2, workers=1, **sweep)
        assert est == estimate_bler(code84, 0, Snr(0.0), min_errors=50, max_trials=max_trials, seed=7)

    def test_pool_gets_one_worker_per_batch_at_most(self, code84, deferred_pools):
        sweep = {**self.SWEEP, "max_trials": 2 * codecsim.BATCH_SIZE}
        pooled = required_snr_sim(code84, 0, 2e-2, workers=3, **sweep)
        assert pooled == required_snr_sim(code84, 0, 2e-2, workers=1, **sweep)
        (pool,) = deferred_pools
        assert pool.max_workers == 2

# (64,57) has n - k = 7 parity bits, (128,57) 71, two words per column
KERNEL_CODES = ((8, 4), (16, 7), (32, 16), (64, 36), (128, 64), (64, 57), (128, 57))


@functools.lru_cache(maxsize=None)
def kernel_code(n, k):
    return build_ebch(n, k)


@st.composite
def received_batches(draw, max_order=2, codes=KERNEL_CODES, words=(1, 5)):
    """A code, an order and a few received words y (B, n).

    A nonzero quantum rounds y to its multiples, so that |y| and candidate
    distances tie exactly and tie-breaking is exercised."""
    n, k = draw(st.sampled_from(codes))
    order = draw(st.integers(0, max_order))
    words = draw(st.integers(*words))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = 10 ** (-draw(st.floats(-3.0, 6.0)) / 20)
    quantum = draw(st.sampled_from((0.0, 0.25, 0.5)))
    code = kernel_code(n, k)
    codewords = rng.integers(0, 2, (words, k)) @ code.generator % 2
    y = 1.0 - 2.0 * codewords + sigma * rng.standard_normal((words, n))
    if quantum:
        y = np.round(y / quantum) * quantum
    return code, order, y


class TestOsdKernel:
    @settings(max_examples=120, deadline=None)
    @given(received_batches(words=(1, 8)), st.integers(1, 40), st.data())
    def test_picks_reference_codeword(self, case, score_candidates, data):
        code, order, y = case
        expected = [osd_reference.osd_decode(code.generator, word, order)[0] for word in y]
        batch_stats, stats = OsdStats(), OsdStats()
        # small candidate blocks and word slices shorter than the batch, so
        # that every block and slice boundary is crossed
        chunk_words = data.draw(st.integers(1, max(1, len(y) - 1)))
        with mock.patch.multiple(codecsim, _SCORE_CANDIDATES=score_candidates, _CHUNK_WORDS=chunk_words):
            messages, batched = osd_decode(code, y, order, batch_stats)
        singles = [osd_decode(code, word, order, stats)[1] for word in y]
        for want, message, got, single in zip(expected, messages, batched, singles):
            assert np.array_equal(got, want)
            assert np.array_equal(single, want)
            assert np.array_equal(encode(code, message), want)
        for counts in (batch_stats, stats):
            assert counts.decodes == len(y)
            assert counts.patterns_evaluated == len(y) * pattern_count(code.k, order)

    @settings(max_examples=60, deadline=None)
    @given(received_batches(max_order=3))
    def test_output_is_codeword(self, case):
        code, order, y = case
        for cw in osd_decode(code, y, order)[1]:
            assert np.array_equal(encode(code, message_from_codeword(code, cw)), cw)

    @settings(max_examples=60, deadline=None)
    @given(received_batches(max_order=0, codes=KERNEL_CODES[:3]))
    def test_distance_non_increasing_with_order(self, case):
        code, _, y = case
        for word in y:
            dists = [decode_distance(word, osd_decode(code, word, s)[1]) for s in range(4)]
            assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))

    @pytest.mark.parametrize("n,k,order,snr_db", [(16, 7, 2, 1.0), (32, 16, 1, 2.0), (64, 36, 1, 3.0)])
    def test_batch_matches_per_trial_reference(self, n, k, order, snr_db):
        code, snr = kernel_code(n, k), Snr(snr_db)
        seed, batch_index = 11, 3
        # a full batch and a partial one, both longer than one score slice
        for size in (codecsim.BATCH_SIZE, 150):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
            codewords = encode(code, rng.integers(0, 2, (size, k), dtype=np.uint8))
            received = 1.0 - 2.0 * codewords + math.sqrt(1.0 / snr.linear) * rng.standard_normal((size, n))
            errors = 0
            for cw, y in zip(codewords, received):
                errors += not np.array_equal(osd_reference.osd_decode(code.generator, y, order)[0], cw)
            assert errors > 0
            batch_errors, work = codecsim._simulate_batch(code, order, snr, seed, batch_index, size)
            assert (batch_errors, work.decodes) == (errors, size)
            assert work.patterns_evaluated == size * pattern_count(k, order)
            assert work.candidates_scored <= work.patterns_evaluated

    @pytest.mark.parametrize("quantum", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("n,k,order,offset_db", [(16, 7, 3, -4.0), (32, 16, 1, -3.0), (32, 16, 2, -3.0),
                                                     (64, 36, 3, -2.0), (64, 36, 3, -1.0), (128, 64, 2, 0.0),
                                                     (128, 64, 2, 1.0)])
    def test_skipped_weights_keep_the_reference_codeword(self, n, k, order, offset_db, quantum):
        # at these SNRs some words are certified and skip the search, others
        # skip whole weights, and on a coarse grid of y |y| and candidates
        # tie exactly, so the first minimum must survive both skips
        code = kernel_code(n, k)
        snr = Snr(required_snr(n, 1e-3, k / n).db + offset_db)
        rng = np.random.default_rng(n + order)
        codewords = rng.integers(0, 2, (48, k)) @ code.generator % 2
        y = 1.0 - 2.0 * codewords + math.sqrt(1.0 / snr.linear) * rng.standard_normal((48, n))
        if quantum:
            y = np.round(y / quantum) * quantum
        stats = OsdStats()
        # blocks small enough that every weight above 1 gets its own pass
        with mock.patch.multiple(codecsim, _SCORE_CANDIDATES=512, _CHUNK_WORDS=10):
            _, got = osd_decode(code, y, order, stats)
        for word, cw in zip(y, got):
            assert np.array_equal(cw, osd_reference.osd_decode(code.generator, word, order)[0])
        assert 0 < stats.certified < len(y)
        assert stats.candidates_scored < stats.patterns_evaluated

    def test_search_skips_weights_at_the_normal_approximation(self):
        # a silent fallback to scoring every candidate fails here
        code, stats = kernel_code(64, 36), OsdStats()
        snr = Snr(required_snr(64, 1e-3, 36 / 64).db)
        estimate_bler(code, 3, snr, min_errors=10**6, max_trials=512, seed=3, stats=stats)
        assert stats.patterns_evaluated == 512 * pattern_count(36, 3)
        assert 0 < stats.candidates_scored < stats.patterns_evaluated / 4

    def test_floors_skip_half_the_candidates_at_the_normal_approximation(self):
        # the mc_high_order point at n = 128: the weight skip alone scores
        # about 0.76 of the patterns, so a silent fallback to it fails here
        code, stats = kernel_code(128, 64), OsdStats()
        snr = Snr(required_snr(128, 1e-3, 64 / 128).db)
        estimate_bler(code, 2, snr, min_errors=10**6, max_trials=512, seed=3, stats=stats)
        assert stats.patterns_evaluated == 512 * pattern_count(64, 2)
        assert 0 < stats.candidates_scored < 0.5 * stats.patterns_evaluated

    @pytest.mark.parametrize("quantum", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("n,k,order,offset_db", [(32, 16, 3, -2.0), (64, 36, 3, -0.5), (128, 64, 2, 0.0)])
    def test_distance_floors_keep_the_reference_codeword(self, n, k, order, offset_db, quantum):
        # blocks of a few dozen candidates over slices of 7 words, so that a
        # block's live words change inside a weight and block edges cut
        # through groups; on a coarse grid of y floors and scores tie exactly
        code = kernel_code(n, k)
        snr = Snr(required_snr(n, 1e-3, k / n).db + offset_db)
        rng = np.random.default_rng([n, order, int(4 * quantum)])
        codewords = rng.integers(0, 2, (40, k)) @ code.generator % 2
        y = 1.0 - 2.0 * codewords + math.sqrt(1.0 / snr.linear) * rng.standard_normal((40, n))
        if quantum:
            y = np.round(y / quantum) * quantum
        stats = OsdStats()
        with mock.patch.multiple(codecsim, _SCORE_CANDIDATES=97, _CHUNK_WORDS=7):
            _, got = osd_decode(code, y, order, stats)
        for word, cw in zip(y, got):
            assert np.array_equal(cw, osd_reference.osd_decode(code.generator, word, order)[0])
        assert stats.candidates_scored < stats.patterns_evaluated

    def test_distance_floor_refuses_ties_and_near_ties(self):
        # the order-0 candidate differs from the hard decisions on positions
        # 1 and 2 of the least reliable basis and scores 5; the certificate's
        # bound, 2 + 3, ties it.  A weight-1 candidate differs from it in at
        # least d_min = 4 positions, at most one on the basis and two on
        # positions 1 and 2, so in one more: the floor of flipping basis
        # position 3 is 3 + |y_4| = 5, equal to the best, or above it by
        # 1e-12 relative in the second word
        code = kernel_code(8, 4)
        y = np.array([[-6.0, 2.0, -3.0, -3.0, 2.0, 3.0, 5.0, -4.0],
                      [-6.0, 2.0, -3.0, -3.0 * (1 + 1e-12), 2.0, 3.0, 5.0, -4.0]])
        # blocks of one candidate: weight 0 scores alone, and weights 1 and 2 take the floors
        for margin, scored in ((codecsim._CERTIFICATE_MARGIN, 2), (0.0, 1)):
            with mock.patch.multiple(codecsim, _SCORE_CANDIDATES=1, _CERTIFICATE_MARGIN=margin):
                for word in y:
                    stats = OsdStats()
                    got = osd_decode(code, word, 2, stats)[1]
                    assert np.array_equal(got, osd_reference.osd_decode(code.generator, word, 2)[0])
                    assert (stats.certified, stats.candidates_scored) == (0, scored)

    @pytest.mark.parametrize("n,k,order", [(32, 16, 3), (64, 36, 3), (128, 64, 2)])
    def test_zero_d_min_keeps_every_decision(self, n, k, order):
        # with d_min = 0 no floor has a distance term and no word is
        # certified: the same decisions, from more candidates
        code = kernel_code(n, k)
        bare = CodeSpec(n=n, k=k, d_min=0, generator=code.generator)
        snr = Snr(required_snr(n, 1e-3, k / n).db)
        rng = np.random.default_rng([n, k, order])
        codewords = rng.integers(0, 2, (64, k)) @ code.generator % 2
        y = 1.0 - 2.0 * codewords + math.sqrt(1.0 / snr.linear) * rng.standard_normal((64, n))
        stats, bare_stats = OsdStats(), OsdStats()
        with mock.patch.multiple(codecsim, _SCORE_CANDIDATES=512, _CHUNK_WORDS=10):
            _, got = osd_decode(code, y, order, stats)
            _, bare_got = osd_decode(bare, y, order, bare_stats)
        assert np.array_equal(bare_got, got)
        assert bare_stats.certified == 0 < stats.certified
        assert stats.candidates_scored < bare_stats.candidates_scored

    @pytest.mark.parametrize("snr_db", [-2.0, 0.0, 2.0])
    @pytest.mark.parametrize("n,k", [(8, 4), (16, 7), (16, 11)])
    def test_certified_words_are_ml_at_full_order(self, n, k, snr_db):
        # at order k every codeword is a candidate, so the search finds the
        # ML codeword: a certified word must be it; a bound one term too
        # large certifies tens of these words wrongly
        code = kernel_code(n, k)
        bare = CodeSpec(n=n, k=k, d_min=0, generator=code.generator)
        rng = np.random.default_rng([n, k, int(snr_db) + 10])
        codewords = rng.integers(0, 2, (2048, k)) @ code.generator % 2
        y = 1.0 - 2.0 * codewords + 10 ** (-snr_db / 20) * rng.standard_normal((2048, n))
        stats = OsdStats()
        assert np.array_equal(osd_decode(code, y, k, stats)[1], osd_decode(bare, y, k)[1])
        assert 0 < stats.certified < len(y)

    def test_certificate_refuses_ties_and_near_ties(self):
        # hard decisions one flip from the zero codeword, on position 4; the
        # other codewords are >= 4 flips away, so the bound is the three
        # smallest other |y|: equal to the score, or above it by 1e-12 relative
        code = kernel_code(8, 4)
        y = np.array([[5.0, 5.0, 5.0, 5.0, -3.0, 1.0, 1.0, 1.0],
                      [5.0, 5.0, 5.0, 5.0, -3.0, 1.0, 1.0, 1.0 + 3e-12]])
        stats = OsdStats()
        _, got = osd_decode(code, y, 1, stats)
        assert not got.any()
        assert stats.certified == 0
        # the near tie clears the bare comparison: only the margin holds it back
        with mock.patch.object(codecsim, "_CERTIFICATE_MARGIN", 0.0):
            stats = OsdStats()
            assert not osd_decode(code, y, 1, stats)[1].any()
        assert stats.certified == 1

    def test_search_certifies_at_the_normal_approximation(self):
        # the mc_sweep point: a silent fallback to searching every word fails here
        code, stats = kernel_code(64, 36), OsdStats()
        snr = Snr(required_snr(64, 1e-2, 36 / 64).db)
        estimate_bler(code, 1, snr, min_errors=10**6, max_trials=512, seed=3, stats=stats)
        assert stats.patterns_evaluated == 512 * pattern_count(36, 1)
        assert 0 < stats.certified < 512
        assert stats.candidates_scored < stats.patterns_evaluated

    @pytest.mark.parametrize("n,k,order", [(16, 7, 2), (64, 36, 1), (128, 64, 1)])
    def test_zero_d_min_certifies_nothing(self, n, k, order):
        # noiseless words too: their order-0 candidate scores exactly 0
        code = kernel_code(n, k)
        bare = CodeSpec(n=n, k=k, d_min=0, generator=code.generator)
        rng = np.random.default_rng(n)
        codewords = rng.integers(0, 2, (40, k)) @ code.generator % 2
        y = 1.0 - 2.0 * codewords + 0.6 * rng.standard_normal((40, n))
        y[:8] = 1.0 - 2.0 * codewords[:8]
        stats, bare_stats = OsdStats(), OsdStats()
        messages, got = osd_decode(code, y, order, stats)
        bare_messages, bare_got = osd_decode(bare, y, order, bare_stats)
        assert np.array_equal(bare_got, got)
        assert np.array_equal(bare_messages, messages)
        assert bare_stats.certified == 0 < stats.certified
        assert bare_stats.candidates_scored >= len(y)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_reliability_ties_zeros_infinities_and_nan_take_the_stable_order(self, order):
        code = kernel_code(32, 16)
        rng = np.random.default_rng(5)
        codewords = rng.integers(0, 2, (8, 16)) @ code.generator % 2
        y = 1.0 - 2.0 * codewords + 0.7 * rng.standard_normal((8, 32))
        y[0] = np.round(y[0] / 0.25) * 0.25
        y[1] = np.round(y[1] / 0.5) * 0.5
        y[2, [3, 9]] = 0.0, -0.0
        y[3, [4, 11]] = np.inf, -np.inf
        y[4, 6] = np.nan
        y[5, [1, 2]] = np.nan, np.inf
        y[6, 7] = np.inf
        stable = np.argsort(-np.abs(y), axis=1, kind="stable")[:, ::-1]
        # no adjacent |y| are equal in the NaN row, yet the unstable sort puts its NaN last
        assert not np.array_equal(np.argsort(np.abs(y[4])), stable[4])
        with (mock.patch.object(codecsim._gf2, "systematic_with_permutation",
                                wraps=_gf2.systematic_with_permutation) as spy,
              np.errstate(invalid="ignore")):
            messages, got = osd_decode(code, y, order)
            want = [osd_reference.osd_decode(code.generator, word, order)[0] for word in y]
        used = spy.call_args.args[2]
        assert np.array_equal(used, stable[:, : used.shape[1]])
        # with inf - inf in its distances the reference picks its first
        # candidate, so it decides the infinite rows at order 0 only
        for row, (cw, message) in enumerate(zip(got, messages)):
            if order == 0 or np.isfinite(y[row]).all():
                assert np.array_equal(cw, want[row])
            assert np.array_equal(encode(code, message), cw)

    @pytest.mark.parametrize("n,k", [(64, 36), (128, 64)])
    def test_order_zero_prefix_without_rank_reduces_every_column(self, n, k):
        # with no margin some word's first n - k columns are dependent, and
        # the decode must then equal the full elimination's
        code = kernel_code(n, k)
        rng = np.random.default_rng([n, k])
        codewords = rng.integers(0, 2, (64, k)) @ code.generator % 2
        y = 1.0 - 2.0 * codewords + 0.8 * rng.standard_normal((64, n))
        results, widths = [], []
        for margin in (0, n):
            stats = OsdStats()
            with (mock.patch.object(codecsim, "_ORDER0_MARGIN", margin),
                  mock.patch.object(codecsim._gf2, "systematic_with_permutation",
                                    wraps=_gf2.systematic_with_permutation) as spy):
                results.append((*osd_decode(code, y, 0, stats), stats))
            widths.append([call.args[2].shape[1] for call in spy.call_args_list])
        assert widths == [[n - k, n], [n]]
        (messages, got, stats), (full_messages, full_got, full_stats) = results
        assert np.array_equal(got, full_got)
        assert np.array_equal(messages, full_messages)
        assert stats == full_stats

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 4), st.data())
    def test_floor_bounds_every_flip_cost_of_its_weight(self, k, order, data):
        # non-increasing basis weights with exact ties and zeros, plus the
        # padding column; costs summed the way the search sums them
        order = min(order, k)
        values = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 8.0))
        weights = [sorted(data.draw(st.lists(values, min_size=k, max_size=k)), reverse=True) for _ in range(3)]
        costs = np.concatenate([np.array(weights), np.zeros((3, 1))], axis=1)
        patterns, starts = codecsim._pattern_positions(k, order)
        flip_costs = codecsim._flip_costs(costs, patterns.T)
        floors = codecsim._flip_costs(costs, patterns[[start - 1 for start in starts[1:]]].T)
        for w in range(order + 1):
            assert list(patterns[starts[w + 1] - 1]) == list(range(k - w, k)) + [k] * (max(order, 1) - w)
            assert np.array_equal(floors[:, w], flip_costs[:, starts[w + 1] - 1])
            assert (flip_costs[:, starts[w] : starts[w + 1]] >= floors[:, w, None]).all()
            if w:
                # the group of first flip i: its last pattern floors it, and
                # the floors do not increase along the groups
                firsts = patterns[starts[w] : starts[w + 1], 0]
                groups = [flip_costs[:, starts[w] + np.flatnonzero(firsts == i)] for i in range(k - w + 1)]
                assert all((group >= group[:, -1:]).all() for group in groups)
                assert (np.diff([group[:, -1] for group in groups], axis=0) <= 0).all()
        assert (np.diff(floors, axis=1) >= 0).all()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KERNEL_CODES), st.integers(0, 2**32 - 1))
    def test_parity_basis_is_complement_of_reference_basis(self, nk, seed):
        # matroid duality: H's first n-k independent columns along the reverse
        # of an order are the complement of G's first k along the order
        code = kernel_code(*nk)
        n, k = nk
        order = np.random.default_rng(seed).permutation(n)
        _, perm = osd_reference.systematic_with_permutation(code.generator, order)
        checks = code.reduced[2]
        _, rows = _gf2.systematic_with_permutation(checks, n - k, order[None, ::-1])
        basis = order[::-1][rows[:, 0] < 0][::-1]
        assert np.array_equal(basis, perm[:k])


class TestBatchDraws:
    # messages of 4 to 131 bits (one to three packed words), noise of 8 to 256 samples
    @pytest.mark.parametrize("n,k", [(8, 4), (16, 7), (32, 16), (64, 36), (64, 57), (128, 64), (128, 78),
                                     (256, 131)])
    @pytest.mark.parametrize("size", [1, 2, 5, 150, 512])
    def test_received_words_are_two_bulk_draws(self, monkeypatch, n, k, size):
        # the specification: the batch's messages in one integers call, then its noise in one
        # standard_normal call, from the batch's own SeedSequence
        code, snr, seed, batch_index = kernel_code(n, k), Snr(2.0), 5, 3
        received = []

        def capture(code, y, *args, **kwargs):
            received.append(y)
            return osd_decode(code, y, *args, **kwargs)

        monkeypatch.setattr(codecsim, "osd_decode", capture)
        codecsim._simulate_batch(code, 0, snr, seed, batch_index, size)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
        codewords = encode(code, rng.integers(0, 2, (size, k), dtype=np.uint8))
        expected = 1.0 - 2.0 * codewords + math.sqrt(1.0 / snr.linear) * rng.standard_normal((size, n))
        assert len(received) == 1
        assert received[0].shape == (size, n)
        assert np.array_equal(received[0].view(np.uint64), expected.view(np.uint64))


def test_decisions_match_stored_digests(monkeypatch):
    """osd_decode's decisions on tools/decision_diff.py's seeded words, DIGEST_WORDS per point
    (142,080 in all), against tests/decision_digests.json; a mismatch names the moved code and
    order and both builds, since the floats depend on the numpy build."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    tool = importlib.import_module("decision_diff")
    stored = json.loads(Path(__file__).with_name("decision_digests.json").read_text(encoding="utf-8"))
    got = tool.digests(tool.decide(stored["words"]))
    moved = sorted(name for name in got.keys() | stored["digests"].keys()
                   if got.get(name) != stored["digests"].get(name))
    assert moved == [], f"decisions moved at {moved}: stored on build {stored['build']}, this build is {tool.build()}"
