import numpy as np
import pytest

from antires.fitting import (
    FitConvergenceError,
    RankDeficiencyError,
    StarkCalibration,
    fit_arctan_phase,
    fit_nlls,
    stark_calibration,
)


def arctan_deg(x, center, width, swing, offset, tilt=0.0):
    """Phase profile in degrees: offset - (swing/pi) * atan((x-c)/w) + tilt*(x-c)."""
    return offset - (swing / np.pi) * np.arctan((x - center) / width) + tilt * (x - center)


# ------------------------------------------------------------------ fit_nlls


def exp_model(p, x):
    return p[0] * np.exp(-x / p[1]) + p[2]


def test_nlls_recovers_exact_parameters():
    x = np.linspace(0.0, 10.0, 40)
    truth = np.array([2.5, 3.0, 0.7])
    y = exp_model(truth, x)
    res = fit_nlls(exp_model, [1.0, 1.0, 0.0], x, y, model_name="exp")
    assert res.converged
    np.testing.assert_allclose(res.params, truth, rtol=1e-6)
    assert res.residual_norm < 1e-8
    assert res.model == "exp"


def test_nlls_line_fit_is_exact():
    x = np.linspace(-5.0, 5.0, 11)
    y = 0.25 * x - 3.0
    res = fit_nlls(lambda p, t: p[0] * t + p[1], [0.0, 0.0], x, y)
    np.testing.assert_allclose(res.params, [0.25, -3.0], atol=1e-10)


def test_nlls_matches_brute_force_grid():
    # one-parameter problem: the LM minimum must agree with a dense scan
    x = np.linspace(0.0, 4.0, 60)
    y = np.sin(1.7 * x) / (1.0 + x)

    def model(p, t):
        return np.sin(p[0] * t) / (1.0 + t)

    res = fit_nlls(model, [1.4], x, y)
    grid = np.linspace(1.0, 2.4, 20001)
    costs = [np.sum((model([k], x) - y) ** 2) for k in grid]
    assert res.params[0] == pytest.approx(grid[int(np.argmin(costs))], abs=1e-4)


def test_nlls_cost_trace_is_non_increasing():
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 10.0, 50)
    y = exp_model([2.0, 2.0, 0.5], x) + rng.normal(0.0, 0.05, x.size)
    res = fit_nlls(exp_model, [0.5, 5.0, 0.0], x, y)
    costs = [step["cost"] for step in res.trace]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    assert costs[-1] < costs[0]


def test_nlls_convergence_error_carries_partial_result():
    rng = np.random.default_rng(1)
    x = np.linspace(0.0, 10.0, 50)
    y = exp_model([2.0, 2.0, 0.5], x) + rng.normal(0.0, 0.05, x.size)
    with pytest.raises(FitConvergenceError) as err:
        fit_nlls(exp_model, [0.5, 5.0, 0.0], x, y, max_iter=2)
    partial = err.value.result
    assert not partial.converged
    assert partial.iterations == 2
    assert len(partial.trace) >= 1
    assert np.all(np.isfinite(partial.params))


def test_nlls_rank_deficiency_detected():
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x

    def ignores_second(p, t):
        return p[0] * t + 0.0 * p[1]

    with pytest.raises(RankDeficiencyError):
        fit_nlls(ignores_second, [1.0, 1.0], x, y)


def test_nlls_rejects_bad_weights():
    x = np.linspace(0.0, 1.0, 10)
    y = x.copy()
    with pytest.raises(ValueError):
        fit_nlls(lambda p, t: p[0] * t, [1.0], x, y, weights=np.zeros(10))
    with pytest.raises(ValueError):
        fit_nlls(lambda p, t: p[0] * t, [1.0], x, y, weights=np.ones(7))


def test_nlls_report_keys():
    x = np.linspace(0.0, 1.0, 10)
    res = fit_nlls(lambda p, t: p[0] * t + p[1], [1.0, 0.0], x, 2.0 * x + 1.0)
    rep = res.to_report()
    assert set(rep) >= {
        "model",
        "parameters",
        "standard_errors",
        "residual_norm",
        "iterations",
        "converged",
    }
    assert len(rep["parameters"]) == 2 == len(rep["standard_errors"])


# ----------------------------------------------------------- arctan profile


TRUE = dict(center=-3.0, width=3.0, swing=150.0, offset=-75.0)


def test_arctan_fit_recovers_exact_profile():
    x = np.linspace(-20.0, 20.0, 81)
    y = arctan_deg(x, **TRUE)
    fit = fit_arctan_phase(x, y)
    assert fit.center == pytest.approx(TRUE["center"], abs=1e-6)
    assert fit.width == pytest.approx(TRUE["width"], rel=1e-6)
    assert fit.swing_deg == pytest.approx(TRUE["swing"], rel=1e-6)
    assert fit.offset_deg == pytest.approx(TRUE["offset"], abs=1e-6)
    assert fit.residual_norm < 1e-6
    assert fit.warnings == ()
    # the observable contrast is the curve's spread on this grid
    assert fit.span_deg == pytest.approx(np.ptp(y), abs=1e-6)
    assert fit.span_deg < TRUE["swing"]


def test_arctan_fit_with_linear_background():
    x = np.linspace(-18.0, 22.0, 101)
    y = arctan_deg(x, tilt=0.8, **TRUE)
    fit = fit_arctan_phase(x, y, background="linear")
    assert fit.center == pytest.approx(TRUE["center"], abs=1e-5)
    assert fit.width == pytest.approx(TRUE["width"], rel=1e-5)
    assert fit.tilt == pytest.approx(0.8, rel=1e-5)


def test_arctan_fit_descending_axis():
    x = np.linspace(-20.0, 20.0, 81)
    y = arctan_deg(x, **TRUE)
    up = fit_arctan_phase(x, y)
    down = fit_arctan_phase(x[::-1], y[::-1])
    assert down.center == pytest.approx(up.center, abs=1e-9)
    assert down.width == pytest.approx(up.width, rel=1e-9)
    assert down.swing_deg == pytest.approx(up.swing_deg, rel=1e-9)


def test_arctan_fit_axis_rescaling():
    # exact reparameterization x -> x/1000 (MHz -> GHz): center and width
    # scale with the axis, swing and offset do not
    x = np.linspace(-20.0, 20.0, 81)
    y = arctan_deg(x, **TRUE)
    mhz = fit_arctan_phase(x, y)
    ghz = fit_arctan_phase(x / 1000.0, y)
    assert ghz.center == pytest.approx(mhz.center / 1000.0, rel=1e-6)
    assert ghz.width == pytest.approx(mhz.width / 1000.0, rel=1e-6)
    assert ghz.swing_deg == pytest.approx(mhz.swing_deg, rel=1e-8)
    assert ghz.offset_deg == pytest.approx(mhz.offset_deg, rel=1e-8)
    assert ghz.span_deg == pytest.approx(mhz.span_deg, rel=1e-8)


def test_arctan_fit_noise_recovery_within_errors():
    x = np.linspace(-20.0, 20.0, 41)
    clean = arctan_deg(x, **TRUE)
    good = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean + rng.normal(0.0, 1.0, x.size)
        try:
            fit = fit_arctan_phase(x, noisy)
        except FitConvergenceError:
            continue
        ok = (
            abs(fit.center - TRUE["center"]) <= 3.0 * fit.center_err
            and abs(fit.width - TRUE["width"]) <= 3.0 * fit.width_err
            and abs(fit.swing_deg - TRUE["swing"]) <= 3.0 * fit.swing_err
        )
        good += ok
    assert good >= 95


def test_arctan_fit_validation():
    x = np.linspace(-5.0, 5.0, 5)
    with pytest.raises(ValueError):
        fit_arctan_phase(x, np.zeros(5))  # too few points
    x = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        fit_arctan_phase(x, np.zeros(6))  # not strictly monotone
    x = np.linspace(-5.0, 5.0, 21)
    with pytest.raises(ValueError):
        fit_arctan_phase(x, arctan_deg(x, **TRUE), background="quadratic")


def test_arctan_fit_warns_on_interior_wiggle():
    x = np.linspace(-20.0, 20.0, 161)
    y = arctan_deg(x, **TRUE) + 40.0 * np.exp(-((x - TRUE["center"]) ** 2) / 0.5)
    fit = fit_arctan_phase(x, y)
    assert fit.warnings, "expected a non-monotone-core warning"


# ------------------------------------------------------- stark calibration


def test_stark_two_points_exact():
    cal = stark_calibration([(1000.0, 0.0), (1400.0, 12.0)])
    assert cal.slope == pytest.approx(0.03, abs=1e-12)
    assert cal.intercept == pytest.approx(-30.0, abs=1e-9)
    assert cal.power_to_detuning(1000.0) == pytest.approx(0.0, abs=1e-9)
    assert cal.detuning_to_power(12.0) == pytest.approx(1400.0, abs=1e-6)


def test_stark_collinear_third_point_changes_nothing():
    two = stark_calibration([(1000.0, 0.0), (1400.0, 12.0)])
    three = stark_calibration([(1000.0, 0.0), (1200.0, 6.0), (1400.0, 12.0)])
    assert three.slope == pytest.approx(two.slope, rel=1e-12)
    assert three.intercept == pytest.approx(two.intercept, rel=1e-12)
    assert max(abs(r) for r in three.residuals) < 1e-9


def test_stark_reference_points():
    cal = stark_calibration([(1400.0, 12.0), (950.0, -5.0), (700.0, -14.0)])
    assert cal.slope == pytest.approx(0.03721854304635764, rel=1e-12)
    assert cal.intercept == pytest.approx(-40.1721854304636, rel=1e-12)
    assert abs(cal.intercept - (-40.0)) < 2.0
    assert max(abs(r) for r in cal.residuals) < 1.0


def test_stark_round_trip():
    cal = stark_calibration([(1400.0, 12.0), (950.0, -5.0), (700.0, -14.0)])
    powers = np.linspace(450.0, 1700.0, 17)
    back = cal.detuning_to_power(cal.power_to_detuning(powers))
    np.testing.assert_allclose(back, powers, rtol=1e-9)


def test_stark_degenerate_inputs():
    with pytest.raises(ValueError):
        stark_calibration([(1000.0, 0.0)])
    with pytest.raises(RankDeficiencyError):
        stark_calibration([(1000.0, 0.0), (1000.0, 5.0), (1000.0, 9.0)])


def test_stark_weighting_pulls_towards_tight_points():
    # third point is an outlier with a huge error bar: the weighted fit
    # should land on the line through the two tight points
    pts = [(1000.0, 0.0), (1400.0, 12.0), (1200.0, 40.0)]
    cal = stark_calibration(pts, uncertainties=[0.01, 0.01, 1000.0])
    assert cal.slope == pytest.approx(0.03, abs=1e-4)
    assert cal.intercept == pytest.approx(-30.0, abs=0.2)
    with pytest.raises(ValueError):
        stark_calibration(pts, uncertainties=[0.01, -1.0, 1.0])


def test_stark_report_round_trips_the_points():
    cal = stark_calibration([(1400.0, 12.0), (950.0, -5.0)])
    rep = cal.to_report()
    assert rep["model"] == "stark_affine"
    assert rep["points"][0] == {"power_nw": 1400.0, "detuning_mhz": 12.0}
    assert isinstance(cal, StarkCalibration)
