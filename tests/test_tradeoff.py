import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from osdlat.fblmath import required_snr
from osdlat.cli import _json_text
from osdlat.tradeoff import (
    CALIBRATION_64,
    PARAMS_64,
    EXTRAPOLATIONS,
    PARAMS_128,
    PenaltyPoint,
    TradeoffParams,
    complexity_to_penalty,
    fit_params,
    params_for_blocklength,
    params_from_json,
    penalty_to_complexity,
)


class TestLawEvaluation:
    def test_zero_penalty(self):
        assert penalty_to_complexity(0.0, PARAMS_128) == pytest.approx(
            2.0 ** (1.0 / 0.03), rel=1e-12
        )

    def test_large_penalty_asymptote(self):
        assert penalty_to_complexity(1e9, PARAMS_128) == pytest.approx(1.0, abs=1e-4)
        assert penalty_to_complexity(math.inf, PARAMS_128) == 1.0

    def test_five_db_point(self):
        # closed form: 1/(0.03 * 5^0.6 + 0.03) = 9.1915 binary digits
        c = penalty_to_complexity(5.0, PARAMS_128)
        assert math.log2(c) == pytest.approx(9.191528407104995, rel=1e-12)
        assert c == pytest.approx(584.69, rel=1e-4)

    def test_strictly_decreasing(self):
        vals = [penalty_to_complexity(d, PARAMS_64) for d in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            penalty_to_complexity(-0.1, PARAMS_128)


class TestLawInversion:
    # c runs over (1, max_complexity) on a log scale
    @given(st.sampled_from((PARAMS_64, PARAMS_128)),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_round_trip(self, params, share):
        c = params.max_complexity**share
        drho = complexity_to_penalty(c, params)
        assert penalty_to_complexity(drho, params) == pytest.approx(c, rel=1e-9)

    @given(st.sampled_from((PARAMS_64, PARAMS_128)), st.floats(1e-3, 1e3))
    def test_mutual_inverse_across_domain(self, params, drho):
        c = penalty_to_complexity(drho, params)
        assert complexity_to_penalty(c, params) == pytest.approx(drho, rel=1e-9)

    def test_boundary_clamp(self):
        assert complexity_to_penalty(PARAMS_128.max_complexity, PARAMS_128) == 0.0
        assert complexity_to_penalty(PARAMS_128.max_complexity * 10, PARAMS_128) == 0.0

    def test_at_or_below_one_signals_infinite_penalty(self):
        assert complexity_to_penalty(1.0, PARAMS_128) == math.inf
        assert complexity_to_penalty(0.5, PARAMS_128) == math.inf

    def test_order_zero_point(self):
        # per-bit cost of the (128, 64) order-0 decoder sits near 5 dB
        assert complexity_to_penalty(576.0, PARAMS_128) == pytest.approx(5.0, abs=0.05)

    def test_strictly_decreasing(self):
        cs = (2.0, 10.0, 576.0, 1e4, 1e7)
        vals = [complexity_to_penalty(c, PARAMS_128) for c in cs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestFit:
    def planted_points(self, params, drhos):
        return [
            PenaltyPoint(delta_rho_db=d, c=penalty_to_complexity(d, params)) for d in drhos
        ]

    def test_noiseless_recovery(self):
        planted = TradeoffParams(a=0.05, b=0.03, gamma_fit=0.4, n_anchor=64)
        points = self.planted_points(planted, [0.5, 1.0, 2.0, 3.5, 5.0, 8.0])
        result = fit_params(points, n_anchor=64)
        assert result.params.a == pytest.approx(0.05, abs=1e-6)
        assert result.params.b == pytest.approx(0.03, abs=1e-6)
        assert result.params.gamma_fit == pytest.approx(0.4, abs=1e-6)
        assert result.rms_residual < 1e-9

    def test_permutation_invariance(self):
        planted = TradeoffParams(a=0.03, b=0.03, gamma_fit=0.6, n_anchor=128)
        points = self.planted_points(planted, [0.4, 1.2, 2.5, 4.0, 6.0])
        shuffled = points[:]
        random.Random(0).shuffle(shuffled)
        r1 = fit_params(points, n_anchor=128)
        r2 = fit_params(shuffled, n_anchor=128)
        assert r1.params == r2.params

    def test_degenerate_points_rejected(self):
        pt = PenaltyPoint(delta_rho_db=2.0, c=100.0)
        with pytest.raises(ValueError):
            fit_params([pt, pt, pt], n_anchor=64)

    def test_too_few_points_rejected(self):
        points = self.planted_points(PARAMS_64, [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_params(points, n_anchor=64)

    @pytest.mark.parametrize("drho,c", [(math.nan, 100.0), (math.inf, 100.0), (2.0, math.nan), (2.0, math.inf)])
    def test_non_finite_point_rejected(self, drho, c):
        with pytest.raises(ValueError, match="finite"):
            PenaltyPoint(delta_rho_db=drho, c=c)

    @pytest.mark.parametrize("c", [1.0, 0.5, 0.0, -3.0])
    def test_point_at_or_below_one_rejected(self, c):
        # log2 c = 1/(a*drho^gamma + b) has no finite penalty at c = 1
        with pytest.raises(ValueError, match="complexity must be > 1"):
            PenaltyPoint(delta_rho_db=0.5, c=c)

    def test_point_just_above_one_accepted(self):
        assert PenaltyPoint(delta_rho_db=0.5, c=math.nextafter(1.0, 2.0)).c > 1


class TestCalibration64:
    """PARAMS_64 is tied to its simulated thresholds without Monte Carlo."""

    def test_refit_reproduces_anchor(self):
        points = [
            PenaltyPoint(delta_rho_db=row.delta_rho_db, c=row.c)
            for row in CALIBRATION_64
            if row.fitted
        ]
        fit = fit_params(points, n_anchor=64).params
        assert fit.a == pytest.approx(PARAMS_64.a, abs=5e-5)
        assert fit.b == pytest.approx(PARAMS_64.b, abs=5e-5)
        assert fit.gamma_fit == pytest.approx(PARAMS_64.gamma_fit, abs=5e-4)

    def test_fitted_rows_within_quarter_db_of_law(self):
        for row in CALIBRATION_64:
            if row.fitted:
                law = complexity_to_penalty(row.c, PARAMS_64)
                assert law == pytest.approx(row.delta_rho_db, abs=0.25), row

    def test_unfitted_rows_saturate_the_law(self):
        unfitted = [row for row in CALIBRATION_64 if not row.fitted]
        assert unfitted
        for row in unfitted:
            assert row.c >= PARAMS_64.max_complexity, row

    def test_penalty_is_threshold_over_normal_approximation(self):
        for row in CALIBRATION_64:
            base = required_snr(row.n, 1e-3, row.k / row.n).db
            assert row.snr_db - base == pytest.approx(row.delta_rho_db, abs=1e-3), row

    def test_seeds_disjoint_from_acceptance_gate(self):
        gate_seeds = {20260811 + s for s in (0, 1, 2)}
        assert not gate_seeds & {row.seed for row in CALIBRATION_64}


class TestParamsForBlocklength:
    def test_anchors_exact(self):
        assert params_for_blocklength(64) == PARAMS_64
        assert params_for_blocklength(128) == PARAMS_128

    def test_midpoint_interpolation(self):
        p = params_for_blocklength(91)
        lo, hi = PARAMS_64, PARAMS_128
        t = math.log2(91) - 6
        assert p.a == pytest.approx(lo.a + t * (hi.a - lo.a), abs=2e-3)
        assert p.b == pytest.approx(lo.b + t * (hi.b - lo.b), abs=1e-12)
        assert p.gamma_fit == pytest.approx(
            lo.gamma_fit + t * (hi.gamma_fit - lo.gamma_fit), abs=2e-3
        )

    def test_clamped_below(self):
        assert params_for_blocklength(16) is PARAMS_64

    def test_power_extrapolation_above(self):
        p = params_for_blocklength(256)
        assert p.a < PARAMS_128.a
        assert p.gamma_fit == PARAMS_128.gamma_fit
        assert p.b == PARAMS_128.b
        # continuous at the anchor
        assert params_for_blocklength(128.0001).a == pytest.approx(PARAMS_128.a, rel=1e-5)

    def test_clamp_mode_above(self):
        assert params_for_blocklength(512, extrapolation="clamp") is PARAMS_128

    def test_validation(self):
        with pytest.raises(ValueError):
            params_for_blocklength(1)
        with pytest.raises(ValueError):
            params_for_blocklength(128, extrapolation="spline")

    @pytest.mark.parametrize("extrapolation", EXTRAPOLATIONS)
    def test_infinite_blocklength_rejected(self, extrapolation):
        with pytest.raises(ValueError, match="finite"):
            params_for_blocklength(math.inf, extrapolation)


class TestSerialization:
    def test_round_trip(self):
        # written the way `tradeoff --fit` writes its document
        doc = _json_text(dataclasses.asdict(PARAMS_64))
        back = params_from_json(doc)
        assert back == PARAMS_64

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            params_from_json('{"n_anchor": 64, "a": 0.05, "b": 0.03, "gamma_fit": 0.4, "x": 1}')

    def test_fit_document_accepted(self):
        doc = _json_text({**dataclasses.asdict(PARAMS_64), "rms_residual": 0.01})
        assert params_from_json(doc) == PARAMS_64

    @pytest.mark.parametrize(
        "value",
        ["null", "true", "false", "[0.05]", '{"v": 0.05}', '"0.05"', "NaN", "Infinity", "1" + "0" * 400],
    )
    def test_non_numeric_value_rejected(self, value):
        doc = f'{{"n_anchor": 64, "a": {value}, "b": 0.03, "gamma_fit": 0.4}}'
        with pytest.raises(ValueError, match="'a'"):
            params_from_json(doc)

    def test_fractional_anchor_rejected(self):
        doc = '{{"n_anchor": {}, "a": 0.05, "b": 0.03, "gamma_fit": 0.4}}'
        assert params_from_json(doc.format("64.0")).n_anchor == 64
        with pytest.raises(ValueError, match="'n_anchor'"):
            params_from_json(doc.format("64.5"))

    @pytest.mark.parametrize("b", [1 / 1024, 1e-4, 5e-324])
    def test_b_with_infinite_max_complexity_rejected(self, b):
        with pytest.raises(ValueError, match="1/1024"):
            TradeoffParams(a=0.05, b=b, gamma_fit=0.4, n_anchor=64)
        with pytest.raises(ValueError, match="1/1024"):
            params_from_json(f'{{"n_anchor": 64, "a": 0.05, "b": {b!r}, "gamma_fit": 0.4}}')

    def test_smallest_b_above_1_1024_has_finite_max_complexity(self):
        params = TradeoffParams(a=0.05, b=math.nextafter(1 / 1024, 1.0), gamma_fit=0.4, n_anchor=64)
        assert math.isfinite(params.max_complexity)
        assert complexity_to_penalty(1e300, params) > 0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            TradeoffParams(a=-0.01, b=0.03, gamma_fit=0.4, n_anchor=64)
        with pytest.raises(ValueError):
            params_from_json('{"n_anchor": 64, "a": 0.05, "b": 0.0, "gamma_fit": 0.4}')
