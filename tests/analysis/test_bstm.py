"""Tests for the BSTM / causal-impact estimator."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.bstm import (
    BstmModel,
    CausalImpact,
    fit_local_level,
    kalman_filter_local_level,
)
from tests.analysis.reference import bootstrap_draws_reference


class TestKalman:
    def test_constant_series_converges(self):
        z = np.full(50, 10.0)
        result = kalman_filter_local_level(z, sigma_obs2=1.0,
                                           sigma_level2=0.01)
        assert result.level[-1] == pytest.approx(10.0, abs=0.1)
        assert result.level_var[-1] < result.level_var[0]

    def test_handles_missing_values(self):
        z = np.full(50, 10.0)
        z[10:20] = np.nan
        result = kalman_filter_local_level(z, 1.0, 0.01)
        assert np.isfinite(result.level).all()
        assert result.level[-1] == pytest.approx(10.0, abs=0.2)

    def test_tracks_level_shift(self):
        z = np.concatenate([np.full(30, 0.0), np.full(30, 100.0)])
        result = kalman_filter_local_level(z, 1.0, 10.0)
        assert result.level[-1] == pytest.approx(100.0, abs=5.0)

    def test_loglik_prefers_right_variances(self, rng):
        z = rng.normal(0, 1.0, 200)  # pure noise, no level drift
        good = kalman_filter_local_level(z, 1.0, 1e-6)
        bad = kalman_filter_local_level(z, 1e-6, 1.0)
        assert good.loglik > bad.loglik


class TestFit:
    def test_fit_recovers_noise_scale(self, rng):
        z = rng.normal(5.0, 2.0, 300)
        result = fit_local_level(z)
        assert 1.0 < np.sqrt(result.sigma_obs2) < 4.0

    def test_fit_requires_data(self):
        with pytest.raises(ValueError):
            fit_local_level(np.array([1.0, 2.0]))


class TestBstmModel:
    def test_regression_coefficient_recovered(self, rng):
        x = rng.normal(50, 10, (100, 1))
        y = 3.0 * x[:, 0] + 7.0 + rng.normal(0, 1, 100)
        model = BstmModel().fit(y, x)
        assert model.beta[0] == pytest.approx(3.0, abs=0.2)

    def test_control_free_model(self, rng):
        y = rng.normal(10, 1, 50)
        model = BstmModel().fit(y, np.empty((50, 0)))
        mean, var = model.predict(np.empty((5, 0)), horizon=5)
        assert mean.shape == (5,)
        assert np.all(var > 0)

    def test_predict_variance_grows(self, rng):
        x = rng.normal(50, 10, (100, 1))
        y = 2.0 * x[:, 0] + rng.normal(0, 1, 100)
        model = BstmModel().fit(y, x)
        _, var = model.predict(np.full((20, 1), 50.0))
        assert var[-1] > var[0]

    def test_predict_requires_fit(self):
        with pytest.raises(RuntimeError):
            BstmModel().predict(np.zeros((5, 1)))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            BstmModel().fit(np.zeros(10), np.zeros((11, 2)))


class TestCausalImpact:
    def _data(self, rng, effect=100.0, n=120, idx=60):
        x = 50 + 10 * np.sin(np.arange(n) / 10) + rng.normal(0, 3, n)
        y = 2 * x + 20 + rng.normal(0, 5, n)
        y[idx:] += effect
        return y, x, idx

    def test_recovers_effect(self, rng):
        y, x, idx = self._data(rng)
        result = CausalImpact(rng=1).run(y, x, idx)
        assert result.average_effect == pytest.approx(100.0, abs=10.0)
        assert result.significant
        assert result.ci_low < 100.0 < result.ci_high

    def test_null_effect_not_significant(self, rng):
        y, x, idx = self._data(rng, effect=0.0)
        result = CausalImpact(rng=2).run(y, x, idx)
        assert not result.significant
        assert abs(result.average_effect) < 10.0

    def test_negative_effect(self, rng):
        y, x, idx = self._data(rng, effect=-80.0)
        result = CausalImpact(rng=3).run(y, x, idx)
        assert result.significant
        assert result.average_effect == pytest.approx(-80.0, abs=12.0)

    def test_pointwise_shape(self, rng):
        y, x, idx = self._data(rng)
        result = CausalImpact(rng=4).run(y, x, idx)
        assert len(result.pointwise) == len(y) - idx
        assert len(result.counterfactual) == len(y) - idx

    def test_relative_effect(self, rng):
        y, x, idx = self._data(rng)
        result = CausalImpact(rng=5).run(y, x, idx)
        assert result.relative_effect > 0.5

    def test_rejects_bad_intervention_index(self, rng):
        y, x, _ = self._data(rng)
        with pytest.raises(ValueError):
            CausalImpact().run(y, x, 2)
        with pytest.raises(ValueError):
            CausalImpact().run(y, x, len(y))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            CausalImpact(alpha=0.0)

    def test_multi_control(self, rng):
        n, idx = 100, 50
        x = rng.normal(50, 5, (n, 3))
        y = x @ np.array([1.0, 2.0, -1.0]) + rng.normal(0, 2, n)
        y[idx:] += 50
        result = CausalImpact(rng=6).run(y, x, idx)
        assert result.average_effect == pytest.approx(50.0, abs=8.0)


class TestSeasonalBstm:
    def _weekly_data(self, rng, n=140, effect=0.0, idx=100):
        weekly = 20 * np.sin(2 * np.pi * np.arange(n) / 7)
        x = 50 + rng.normal(0, 3, n)
        y = 2 * x + weekly + rng.normal(0, 2, n)
        y[idx:] += effect
        return y, x, idx

    def test_seasonal_model_beats_plain_on_weekly_data(self, rng):
        from repro.analysis.bstm import BstmModel, SeasonalBstmModel

        y, x, idx = self._weekly_data(rng)
        plain = BstmModel().fit(y[:idx], x[:idx, None])
        seasonal = SeasonalBstmModel(period=7).fit(y[:idx], x[:idx, None])
        mp, _ = plain.predict(x[idx:, None])
        ms, _ = seasonal.predict(x[idx:, None])
        rmse_plain = float(np.sqrt(np.mean((mp - y[idx:]) ** 2)))
        rmse_seasonal = float(np.sqrt(np.mean((ms - y[idx:]) ** 2)))
        assert rmse_seasonal < rmse_plain * 0.6

    def test_causal_impact_with_seasonality(self, rng):
        y, x, idx = self._weekly_data(rng, effect=60.0)
        result = CausalImpact(rng=7, seasonal_period=7).run(y, x, idx)
        assert result.significant
        assert result.average_effect == pytest.approx(60.0, abs=10.0)

    def test_seasonal_null_not_significant(self, rng):
        y, x, idx = self._weekly_data(rng, effect=0.0)
        result = CausalImpact(rng=8, seasonal_period=7).run(y, x, idx)
        assert abs(result.average_effect) < 12.0

    def test_fit_requires_enough_data(self):
        from repro.analysis.bstm import fit_seasonal

        with pytest.raises(ValueError):
            fit_seasonal(np.ones(5), period=7)

    def test_filter_rejects_bad_period(self):
        from repro.analysis.bstm import kalman_filter_seasonal

        with pytest.raises(ValueError):
            kalman_filter_seasonal(np.ones(10), 1.0, 1.0, 1.0, period=1)

    def test_handles_missing_values(self):
        from repro.analysis.bstm import kalman_filter_seasonal

        z = np.sin(2 * np.pi * np.arange(50) / 7) * 10
        z[10:15] = np.nan
        result = kalman_filter_seasonal(z, 1.0, 0.01, 0.01)
        assert np.isfinite(result.fitted_level).all()

    def test_predict_requires_fit(self):
        from repro.analysis.bstm import SeasonalBstmModel

        with pytest.raises(RuntimeError):
            SeasonalBstmModel().predict(np.zeros((5, 1)))


class TestBatchedBootstrap:
    """The vectorized bootstrap is the scalar reference, exactly."""

    def _inputs(self):
        rng = np.random.default_rng(21)
        pointwise = rng.normal(3.0, 2.0, size=41)
        cf_sd = np.abs(rng.normal(1.0, 0.4, size=41))
        return pointwise, cf_sd

    def test_matches_reference_bitwise(self):
        pointwise, cf_sd = self._inputs()
        estimator = CausalImpact(rng=0, n_resamples=400)
        batched = estimator.bootstrap_draws(
            pointwise, cf_sd, np.random.default_rng(77))
        reference = bootstrap_draws_reference(
            estimator, pointwise, cf_sd, np.random.default_rng(77))
        assert np.array_equal(batched, reference)

    def test_consumes_identical_stream(self):
        """Both paths leave the generator in the same state, so results
        downstream of the bootstrap cannot depend on which path ran."""
        pointwise, cf_sd = self._inputs()
        estimator = CausalImpact(rng=0, n_resamples=100)
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        estimator.bootstrap_draws(pointwise, cf_sd, rng_a)
        bootstrap_draws_reference(estimator, pointwise, cf_sd, rng_b)
        assert rng_a.integers(1 << 40) == rng_b.integers(1 << 40)

    def test_single_post_day(self):
        estimator = CausalImpact(rng=0, n_resamples=50)
        draws = estimator.bootstrap_draws(
            np.array([2.5]), np.array([0.1]), np.random.default_rng(1))
        assert draws.shape == (50,)
        assert np.all(np.isfinite(draws))


class TestImportCost:
    """Only ``scipy.optimize`` is used; ``scipy.stats`` alone costs about
    half a second of import time, so the entry points must not load it."""

    @pytest.mark.parametrize("module", ["repro.sim", "repro.experiments",
                                        "repro.observatory",
                                        "repro.__main__"])
    def test_entry_points_leave_scipy_stats_unloaded(self, module):
        code = (f"import sys, {module}\n"
                "from repro.analysis.bstm import fit_local_level\n"
                "import numpy as np\n"
                "fit_local_level(np.arange(30, dtype=float))\n"
                "print('scipy.stats' in sys.modules)")
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
