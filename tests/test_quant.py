"""Quantizer unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adq.errors import ConfigurationError, InputError
from adq.quant import (QuantParams, RangeTracker, dequantize, fake_quant,
                       quantize, ste_mask)

from oracles import quantize_exact


class TestQuantize:
    def test_endpoints(self):
        qp = QuantParams(4, -2.0, 3.0)
        assert quantize(np.array([-2.0]), qp)[0] == 0
        assert quantize(np.array([3.0]), qp)[0] == 15

    def test_midpoint_two_bit(self):
        # 0.5 in [0,1] at k=2: round(0.5 * 3) = round(1.5) -> 2
        qp = QuantParams(2, 0.0, 1.0)
        assert quantize(np.array([0.5]), qp)[0] == 2

    def test_clamps_out_of_range(self):
        qp = QuantParams(3, 0.0, 1.0)
        levels = quantize(np.array([-5.0, 7.0]), qp)
        assert levels.tolist() == [0.0, 7.0]

    @pytest.mark.parametrize("k", list(range(1, 17)))
    def test_matches_exact_formula(self, k):
        rng = np.random.default_rng(123 + k)
        x = rng.uniform(-4.0, 4.0, 625)
        qp = QuantParams(k, -3.0, 3.5)
        got = quantize(x, qp)
        want = quantize_exact(x, k, -3.0, 3.5)
        assert np.array_equal(got, want)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            QuantParams(0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            QuantParams(17, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            QuantParams(4, 1.0, 0.0)
        # the level scale 15 / 5e-324, and the width 2e308, overflow
        with pytest.raises(ConfigurationError):
            QuantParams(4, 0.0, 5e-324)
        with pytest.raises(ConfigurationError):
            QuantParams(4, -1e308, 1e308)

    @given(st.integers(min_value=1, max_value=16),
           st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
           st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_levels_in_range_for_extreme_and_infinite_inputs(self, k, vals,
                                                             lo, width):
        # inputs span the whole float line, +-inf included; the range's
        # width and level scale (2^k - 1) / (x_max - x_min) are finite
        qp = QuantParams(k, lo, lo + width)
        x = np.asarray(vals + [np.inf, -np.inf, np.finfo(np.float64).max],
                       dtype=np.float64)
        levels = quantize(x, qp)
        assert np.all((levels >= 0) & (levels <= qp.levels))
        assert np.array_equal(levels, np.floor(levels))
        assert np.all(np.isfinite(fake_quant(x, qp)))

    def test_degenerate_range_all_zero_levels(self):
        qp = QuantParams(4, 2.5, 2.5)
        assert np.all(quantize(np.full(7, 2.5), qp) == 0)


class TestDequantize:
    def test_endpoints(self):
        qp = QuantParams(5, -1.0, 1.0)
        assert dequantize(np.array([0.0]), qp)[0] == -1.0
        assert dequantize(np.array([31.0]), qp)[0] == 1.0

    def test_two_bit_level(self):
        qp = QuantParams(2, 0.0, 1.0)
        assert dequantize(np.array([2.0]), qp)[0] == pytest.approx(2 / 3)

    def test_out_of_range_level_rejected(self):
        qp = QuantParams(2, 0.0, 1.0)
        with pytest.raises(InputError):
            dequantize(np.array([4.0]), qp)

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 12, 16])
    def test_round_trip_error_bound(self, k):
        # |x - fq(x)| <= range / (2 (2^k - 1)) for in-range x, on a dense grid
        qp = QuantParams(k, -1.0, 2.0)
        x = np.linspace(-1.0, 2.0, 3001)
        err = np.abs(x - fake_quant(x, qp))
        assert err.max() <= 3.0 / (2 * (2 ** k - 1)) + 1e-12


class TestFakeQuant:
    def test_idempotent(self):
        qp = QuantParams(3, -1.0, 1.0)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5))
        once = fake_quant(x, qp)
        assert np.array_equal(fake_quant(once, qp), once)

    def test_preserves_already_quantized(self):
        qp = QuantParams(4, 0.0, 1.0)
        grid = dequantize(np.arange(16, dtype=np.float64), qp)
        assert np.array_equal(fake_quant(grid, qp), grid)

    def test_16bit_error_tiny(self):
        qp = QuantParams(16, 0.0, 1.0)
        x = np.linspace(0, 1, 4097)
        assert np.abs(x - fake_quant(x, qp)).max() <= 1.0 / 131070

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_level_count_bound(self, k):
        rng = np.random.default_rng(11)
        x = rng.normal(size=2000)
        out = fake_quant(x, QuantParams(k, float(x.min()), float(x.max())))
        assert len(np.unique(out)) <= 2 ** k

    def test_degenerate_range_unchanged(self):
        qp = QuantParams(4, 1.5, 1.5)
        x = np.full(5, 1.5)
        assert np.array_equal(fake_quant(x, qp), x)

    @given(st.integers(min_value=1, max_value=16),
           st.lists(st.floats(-50, 50), min_size=2, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_monotone_and_idempotent(self, k, vals):
        x = np.sort(np.asarray(vals, dtype=np.float64))
        qp = QuantParams(k, -10.0, 10.0)
        q = quantize(x, qp)
        assert np.all(np.diff(q) >= 0)  # monotonicity
        fq = fake_quant(x, qp)
        assert np.array_equal(fake_quant(fq, qp), fq)


class TestSteGrad:
    def test_inside_range_passthrough(self):
        qp = QuantParams(4, -1.0, 1.0)
        g = np.ones(5)
        x = np.linspace(-0.9, 0.9, 5)
        assert np.array_equal(g * ste_mask(x, qp), g)

    def test_outside_range_zero(self):
        qp = QuantParams(4, -1.0, 1.0)
        x = np.array([-3.0, 2.0])
        assert np.array_equal(np.ones(2) * ste_mask(x, qp), np.zeros(2))

    def test_mixed_matches_mask_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 2, 200)
        g = rng.normal(size=200)
        qp = QuantParams(4, -1.0, 1.5)
        want = np.where((x >= -1.0) & (x <= 1.5), g, 0.0)
        assert np.array_equal(g * ste_mask(x, qp), want)


class TestRangeTracker:
    def test_first_observation_constant(self):
        tr = RangeTracker("minmax", 0.99)
        tr.observe(np.full(4, 3.25))
        assert tr.x_min == tr.x_max == 3.25

    def test_minmax_matches_concatenation(self):
        rng = np.random.default_rng(19)
        a, b = rng.normal(size=50), rng.normal(size=80)
        tr = RangeTracker("minmax", 0.99)
        tr.observe(a)
        tr.observe(b)
        both = np.concatenate([a, b])
        assert tr.x_min == both.min()
        assert tr.x_max == both.max()

    def test_ema_matches_scalar_recurrence(self):
        rng = np.random.default_rng(2)
        batches = [rng.normal(size=30) for _ in range(12)]
        tr = RangeTracker("ema", ema_decay=0.9)
        lo = hi = None
        for b in batches:
            tr.observe(b)
            if lo is None:
                lo, hi = b.min(), b.max()
            else:
                lo = 0.9 * lo + 0.1 * b.min()
                hi = 0.9 * hi + 0.1 * b.max()
        assert tr.x_min == pytest.approx(lo, abs=1e-12)
        assert tr.x_max == pytest.approx(hi, abs=1e-12)

    def test_bounds_ordered_after_observation(self):
        tr = RangeTracker("ema", ema_decay=0.99)
        rng = np.random.default_rng(5)
        for _ in range(20):
            tr.observe(rng.normal(size=10))
            assert tr.x_min <= tr.x_max

    def test_params_before_observation_rejected(self):
        with pytest.raises(InputError):
            RangeTracker("ema", 0.99).params(4)
