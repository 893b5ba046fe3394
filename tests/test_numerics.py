import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from ionquench import numerics
from ionquench.numerics import (
    LAGUERRE_START,
    LaguerreState,
    coupling_f,
    coupling_logabs_sequence,
    laguerre_assoc,
    lncosh,
    lnsinh,
    log_sum_exp,
    sqrt_shift,
)


def laguerre_sum_exact(n: int, m: int, x: Fraction) -> Fraction:
    """Independent oracle: the explicit finite sum in exact rational arithmetic."""
    total = Fraction(0)
    for k in range(n + 1):
        coeff = Fraction(
            (-1) ** k * math.factorial(n + m),
            math.factorial(m + k) * math.factorial(n - k) * math.factorial(k),
        )
        total += coeff * x**k
    return total


class TestLaguerre:
    def test_order_zero_is_one(self):
        for m in (0, 1, 5):
            for x in (0.0, 0.3, 7.0):
                assert laguerre_assoc(0, m, x) == 1.0

    def test_frozen_point(self):
        # Exact-rational oracle gives 3 - 6 + 2 = -1.
        assert laguerre_sum_exact(2, 1, Fraction(2)) == -1
        assert laguerre_assoc(2, 1, 2.0) == pytest.approx(-1.0, rel=1e-14)

    def test_matches_scipy(self):
        for n in (3, 17, 40):
            for m in (0, 2, 5):
                for x in (0.04, 1.7, 12.25):
                    assert laguerre_assoc(n, m, x) == pytest.approx(
                        float(eval_genlaguerre(n, m, x)), rel=1e-9, abs=1e-9
                    )

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            laguerre_assoc(3000, 0, 2500.0)

    def test_log_sequence_tracks_overflowing_values(self):
        # f_n^0(50) = e^(-1250) L_n(2500): the log sequence carries L_n past overflow.
        signs, log_mags = coupling_logabs_sequence(3000, 0, 50.0)
        assert np.isfinite(log_mags[3000])
        # Moderate entries agree with the linear recurrence.
        for n in (1, 10, 60):
            ref = laguerre_assoc(n, 0, 2500.0)
            assert signs[n] == (1 if ref > 0 else -1)
            assert log_mags[n] + 1250.0 == pytest.approx(math.log(abs(ref)), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            laguerre_assoc(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre_assoc(2, 0, -1.0)

    @pytest.mark.parametrize(
        "n, m, name",
        [(2.5, 1, "n"), (3, 1.5, "m"), (-1, 1, "n"), (3, -2, "m"), (np.int64(-1), 1, "n"), (2, np.int64(-3), "m")],
    )
    def test_bad_index_is_named_as_by_the_coupling_recurrence(self, n, m, name):
        # The check coupling_logabs_sequence makes: a fractional index used to raise TypeError (n)
        # or give a value (m = 1.5 gave 4.398).
        value = re.escape(repr(n if name == "n" else m))
        with pytest.raises(ValueError, match=rf"^Laguerre index {name} must be a nonnegative integer, got {value}$"):
            laguerre_assoc(n, m, 0.3)
        with pytest.raises(ValueError, match=rf"^coupling index {name}(_max)? must be a nonnegative integer, got {value}$"):
            coupling_logabs_sequence(n, m, 0.3)

    def test_numpy_integer_indices(self):
        assert laguerre_assoc(np.int64(3), np.int64(1), 0.3) == laguerre_assoc(3, 1, 0.3)


class TestCoupling:
    def test_carrier_at_zero_eta_is_unity(self):
        for n in (0, 4, 33):
            val = coupling_f(n, 0, 0.0)
            assert val.log_mag == 0.0 and val.sign == 1 and val.as_complex() == 1.0

    def test_ground_level_magnitude(self):
        # |f_0^m| = eta^m e^(-eta^2/2)/sqrt(m!) since the polynomial factor is 1.
        for m in (0, 1, 3):
            for eta in (0.3, 1.2):
                expected = eta**m * math.exp(-eta * eta / 2) / math.sqrt(math.factorial(m))
                assert coupling_f(0, m, eta).magnitude == pytest.approx(expected, rel=1e-13)

    def test_large_eta_exponentially_small(self):
        for n in (0, 2, 7):
            for m in (0, 1, 2):
                assert coupling_f(n, m, 50.0).log_mag < -1000.0

    def test_zero_eta_sideband_is_exact_zero(self):
        val = coupling_f(3, 2, 0.0)
        assert val.log_mag == -math.inf and val.sign == 0 and val.magnitude == 0.0

    def test_phase_is_power_of_i(self):
        assert coupling_f(1, 1, 0.4).as_complex().real == pytest.approx(0.0, abs=1e-30)
        assert coupling_f(1, 2, 0.4).as_complex().imag == pytest.approx(0.0, abs=1e-30)

    def test_magnitude_decays_with_eta_for_fixed_indices(self):
        mags = [coupling_f(2, 1, eta).magnitude for eta in (2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_carrier_tends_to_one_at_small_eta(self):
        assert coupling_f(12, 0, 1e-7).magnitude == pytest.approx(1.0, abs=1e-12)

    def test_sequence_matches_pointwise(self):
        signs, logs = coupling_logabs_sequence(25, 2, 1.3)
        for n in (0, 9, 25):
            single = coupling_f(n, 2, 1.3)
            assert signs[n] == single.sign
            assert logs[n] == pytest.approx(single.log_mag, rel=1e-14, abs=1e-14)

    def test_overflowing_eta_rejected(self):
        # eta^2 = inf would turn every log magnitude past n = 0 into NaN.
        with pytest.raises(ValueError, match=r"1e\+200"):
            coupling_logabs_sequence(3, 1, 1e200)


class TestResumedCoupling:
    """A sequence grown piecewise from a LaguerreState equals a one-shot one, bit for bit.

    A resumed call returns (log_mags, state): the magnitudes of its segment, with no sign array.
    """

    SPLITS = (39, 120, 511, 1500, 9000, 70000)

    @pytest.mark.parametrize("m", (0, 1, 4, 29))
    @pytest.mark.parametrize("eta", (0.0, 1e-3, 0.5, 3.5, 12.0, 40.0))
    def test_resumed_equals_one_shot(self, m, eta):
        _, log_mags = coupling_logabs_sequence(self.SPLITS[-1], m, eta)
        state, lo = LAGUERRE_START, 0
        for n_max in self.SPLITS:
            seg_mags, state = coupling_logabs_sequence(n_max, m, eta, resume=state)
            assert state.n == n_max
            assert seg_mags.tobytes() == log_mags[lo : n_max + 1].tobytes()
            lo = n_max + 1

    def test_split_crosses_a_rescale(self):
        # eta = 40 (x = 1600): |L_n| passes 1e250 well before n = 1500, so the
        # splits above resume across at least one rescale of (prev, curr).
        _, early = coupling_logabs_sequence(39, 0, 40.0, resume=LAGUERRE_START)
        _, late = coupling_logabs_sequence(1500, 0, 40.0, resume=early)
        assert early.offset == 0.0 and late.offset > 0.0

    def test_request_at_or_below_the_state_is_empty(self):
        _, state = coupling_logabs_sequence(50, 2, 0.7, resume=LAGUERRE_START)
        log_mags, same = coupling_logabs_sequence(50, 2, 0.7, resume=state)
        assert log_mags.size == 0 and same == state

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            coupling_logabs_sequence(-1, 0, 0.5)
        with pytest.raises(ValueError):
            coupling_logabs_sequence(5, -1, 0.0)


def _laguerre_extend_reference(state, n_max, m, x):
    """The log-domain recurrence as one loop that tests, rescales and takes each log per step."""
    signs, logabs = [], []
    k_first, prev, curr, offset = state.n + 1, state.prev, state.curr, state.offset
    if k_first == 0 and n_max >= 0:
        signs.append(1)
        logabs.append(0.0)
        prev, curr, offset = 0.0, 1.0, 0.0
        k_first = 1
    for k in range(k_first, n_max + 1):
        prev, curr = curr, ((2 * k + m - 1 - x) * curr - (k - 1 + m) * prev) / k
        a, b = abs(prev), abs(curr)
        mag = b if b > a else a
        if mag > 1e250 or 0.0 < mag < 1e-250:
            prev /= mag
            curr /= mag
            offset += math.log(mag)
        if curr == 0.0:
            signs.append(0)
            logabs.append(-math.inf)
        elif curr > 0.0:
            signs.append(1)
            logabs.append(math.log(curr) + offset)
        else:
            signs.append(-1)
            logabs.append(math.log(-curr) + offset)
    end = LaguerreState(n_max, prev, curr, offset) if n_max > state.n else state
    return np.array(signs, dtype=np.int8), np.array(logabs), end


class TestLaguerreKernel:
    """numerics._laguerre_extend has the bits of the one-loop reference, wherever that stays finite.

    It returns the rescaled values, not their signs: the signs are those of the values.
    """

    def assert_same(self, state, n_max, m, x):
        raw, logabs, end = numerics._laguerre_extend(state, n_max, m, x)
        ref_signs, ref_logabs, ref_end = _laguerre_extend_reference(state, n_max, m, x)
        assert np.array_equal(np.sign(raw), ref_signs)
        assert logabs.tobytes() == ref_logabs.tobytes()
        assert end == ref_end
        return end

    @pytest.mark.parametrize("seed", range(6))
    def test_random_resume_splits(self, seed):
        rng = np.random.default_rng(seed)
        for m in (0, 1, 4, 17, 200):
            x = float(10.0 ** rng.uniform(-4.0, 4.5))  # up to x ~ 3e4: rescales on both sides
            splits = np.sort(rng.choice(6000, size=4, replace=False)).tolist() + [6000]
            state = LAGUERRE_START
            for n_max in splits:
                state = self.assert_same(state, n_max, m, x)

    def test_exact_zero(self):
        # L_1^3(4) = 3 + 1 - 4 = 0 exactly, at eta = 2.
        raw, logabs, _ = numerics._laguerre_extend(LAGUERRE_START, 5, 3, 4.0)
        assert raw[1] == 0.0 and logabs[1] == -math.inf
        self.assert_same(LAGUERRE_START, 300, 3, 4.0)

    def test_low_side_rescale(self):
        state = LaguerreState(10, 1e-260, 1e-260, 5.0)
        _, _, end = numerics._laguerre_extend(state, 11, 2, 0.3)
        assert end.offset < 5.0  # the first step rescaled upward
        self.assert_same(state, 400, 2, 0.3)

    def test_high_side_rescale(self):
        assert self.assert_same(LAGUERRE_START, 3000, 0, 1600.0).offset > 0.0

    def test_empty_request(self):
        self.assert_same(LAGUERRE_START, -1, 2, 0.5)
        _, _, state = numerics._laguerre_extend(LAGUERRE_START, 20, 2, 0.5)
        self.assert_same(state, 20, 2, 0.5)


class TestHugeEtaCoupling:
    """x |L| overflowing inside a step must not turn the log magnitudes into nan."""

    @pytest.mark.parametrize("m", range(6))
    def test_every_log_magnitude_is_finite_or_minus_inf(self, m):
        for eta in np.logspace(-3.0, 150.0, 61).tolist():
            signs, log_mags = coupling_logabs_sequence(400, m, eta)
            assert not np.isnan(log_mags).any(), eta
            assert not np.isposinf(log_mags).any(), eta
            assert np.array_equal(log_mags == -math.inf, signs == 0), eta

    @pytest.mark.parametrize("m, eta, n_first_nan", [(2, 1e40, 4), (1, 1e100, 2)])
    def test_overflowing_step_is_redone(self, m, eta, n_first_nan):
        # Without the redo these gave nan from n_first_nan on; below it nothing changes.
        signs, log_mags = coupling_logabs_sequence(400, m, eta)
        ref_signs, ref_logabs, _ = _laguerre_extend_reference(LAGUERRE_START, 400, m, eta * eta)
        assert np.isnan(ref_logabs[n_first_nan:]).all() and not np.isnan(ref_logabs[:n_first_nan]).any()
        assert np.isfinite(log_mags).all()
        assert np.array_equal(signs[:n_first_nan], ref_signs[:n_first_nan])
        direct = coupling_logabs_sequence(n_first_nan - 1, m, eta)[1]
        assert direct.tobytes() == log_mags[:n_first_nan].tobytes()
        # For x >> n(n + m), L_n^m(x) = (-x)^n/n! to within a relative n(n + m)/x.
        x = eta * eta
        raw, logabs, _ = numerics._laguerre_extend(LAGUERRE_START, 400, m, x)
        for n in (n_first_nan, 40, 400):
            assert math.copysign(1.0, raw[n]) == (-1) ** n
            assert logabs[n] == pytest.approx(n * math.log(x) - math.lgamma(n + 1), rel=1e-12)

    def test_nan_eta_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            coupling_logabs_sequence(3, 1, math.nan)


class TestLncosh:
    def test_zero(self):
        assert lncosh(0.0) == 0.0

    def test_asymptotic(self):
        assert lncosh(1e3) == pytest.approx(1e3 - math.log(2.0), rel=1e-15)
        assert lncosh(1e308) == pytest.approx(1e308 - math.log(2.0), rel=1e-15)

    def test_reference_point(self):
        assert lncosh(1.0) == pytest.approx(0.4337808304830272, rel=1e-14)
        assert lncosh(1.0) == pytest.approx(math.log(math.cosh(1.0)), rel=1e-15)

    def test_even(self):
        assert lncosh(-2.7) == lncosh(2.7)

    def test_lnsinh_small_and_large(self):
        assert lnsinh(0.0) == -math.inf
        assert lnsinh(1e-200) == pytest.approx(math.log(1e-200), rel=1e-14)
        assert lnsinh(900.0) == pytest.approx(900.0 - math.log(2.0), rel=1e-15)
        assert lnsinh(1.3) == pytest.approx(math.log(math.sinh(1.3)), rel=1e-14)


class TestLogSumExp:
    def test_pair_identity(self):
        assert log_sum_exp([math.log(2.0), math.log(3.0)]) == pytest.approx(math.log(5.0), rel=1e-15)

    def test_neg_inf_passthrough(self):
        assert log_sum_exp([-math.inf, 1.25]) == 1.25
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf
        assert log_sum_exp([]) == -math.inf

    def test_three_zeros(self):
        assert log_sum_exp([0.0, 0.0, 0.0]) == pytest.approx(math.log(3.0), rel=1e-15)

    def test_pos_inf_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, math.inf])

    def test_deterministic_repeat(self):
        terms = list(np.random.default_rng(3).normal(scale=30.0, size=200))
        assert log_sum_exp(terms) == log_sum_exp(terms)

    @given(st.lists(st.floats(min_value=-500.0, max_value=500.0), min_size=1, max_size=40), st.randoms())
    def test_permutation_invariance(self, terms, rnd):
        a = log_sum_exp(terms)
        shuffled = list(terms)
        rnd.shuffle(shuffled)
        b = log_sum_exp(shuffled)
        assert b == pytest.approx(a, rel=1e-13, abs=1e-13)


class TestSqrtShift:
    def test_zero_coupling(self):
        assert sqrt_shift(5.0, 0.0, 3.0) == 2.0

    def test_first_order_form(self):
        w = 1e9
        u = 1.0
        assert sqrt_shift(w, u, w) == pytest.approx(u * u / (2 * w), rel=1e-9)

    def test_cancellation_regression(self):
        # Naive evaluation loses the entire signal at the shared-drive scale.
        w = 822.0 * math.pi * 1e12
        u = math.pi * 1e6
        naive = math.sqrt(w * w + u * u) - w
        safe = sqrt_shift(w, u, w)
        assert naive == 0.0
        assert safe == pytest.approx(1.9109444364901419e-3, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_shift(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            sqrt_shift(1.0, -1.0, 0.0)

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(min_value=1e-3, max_value=1e15),
        st.floats(min_value=0.0, max_value=1e12),
        st.floats(min_value=1e-3, max_value=1e15),
    )
    def test_matches_extended_precision(self, w, u, w0):
        got = sqrt_shift(w, u, w0)
        with mp.workdps(50):
            ref = float(mp.sqrt(mp.mpf(w) ** 2 + mp.mpf(u) ** 2) - mp.mpf(w0))
        # Near-exact cancellation of sqrt(w^2+u^2) against w0 leaves only an
        # absolute-accuracy guarantee at the scale of the inputs.
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * (w + u + abs(w0)))
