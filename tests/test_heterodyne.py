import csv
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from antires.heterodyne import (
    MAX_BINS,
    MAX_SAMPLES_PER_WINDOW,
    MAX_WINDOWS,
    BeatNoteConfig,
    ConfigError,
    LeakageWarning,
    accumulate_histogram,
    circular_mean,
    iq_law_windows,
    synthesize,
    write_trace_csv,
)

from helpers import demodulate, iq_windows


def circ_err(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


# ------------------------------------------------------------------- config


def test_config_defaults_are_consistent():
    cfg = BeatNoteConfig()
    assert cfg.samples_per_window == 500
    assert cfg.periods_per_window == pytest.approx(10.0)
    assert cfg.noise_sigma == 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        BeatNoteConfig(sample_rate_msps=1.5)  # Nyquist violation
    with pytest.raises(ConfigError):
        BeatNoteConfig(window_us=10.01)  # non-integer sample count
    with pytest.raises(ConfigError):
        BeatNoteConfig(window_us=3.0)  # fewer than 5 beat periods
    with pytest.raises(ConfigError):
        BeatNoteConfig(window_us=-1.0)
    with pytest.raises(ConfigError):
        BeatNoteConfig(snr_per_window=0.0)
    with pytest.raises(ConfigError):
        BeatNoteConfig(reference_amplitude=0.0)
    with pytest.raises(ConfigError):
        BeatNoteConfig(if_freq_mhz=0.0)
    with pytest.raises(ConfigError):
        BeatNoteConfig(snr_per_window=math.nan)
    for field in ("if_freq_mhz", "sample_rate_msps", "window_us", "reference_amplitude"):
        for value in (math.nan, math.inf, True, "10"):
            with pytest.raises(ConfigError, match=field):
                BeatNoteConfig(**{field: value})
    for value in (True, "5", math.inf, math.nan, -1.0):
        with pytest.raises(ConfigError, match="snr_per_window"):
            BeatNoteConfig(snr_per_window=value)
    BeatNoteConfig(snr_per_window=None)
    # a per-sample sigma that overflows is refused, checked in Python floats so
    # that numpy does not warn first; a reference amplitude can tip it over too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for snr, amplitude in ((1e-308, 1.0), (5e-324, 1.0), (1e-300, np.float64(1e10))):
            with pytest.raises(ConfigError, match="snr_per_window"):
                BeatNoteConfig(snr_per_window=snr, reference_amplitude=amplitude)
        assert math.isfinite(BeatNoteConfig(snr_per_window=1e-305).noise_sigma)
    BeatNoteConfig(window_us=MAX_SAMPLES_PER_WINDOW / 50.0)
    for window_us in (MAX_SAMPLES_PER_WINDOW / 50.0 + 0.02, 1e300):
        with pytest.raises(ConfigError, match="window_us"):
            BeatNoteConfig(window_us=window_us)


def test_noise_sigma_from_snr():
    cfg = BeatNoteConfig(snr_per_window=10.0)
    # amplitude SNR of 10 on a 500-sample window
    assert cfg.noise_sigma == pytest.approx(np.sqrt(250.0) / 10.0)


# -------------------------------------------------------------- round trips


def test_noiseless_round_trip_grid():
    cfg = BeatNoteConfig()
    rng = np.random.default_rng(0)  # never drawn from: no noise
    for amp in (0.2, 0.7, 1.0, 1.6, 2.0):
        for deg in range(-175, 181, 40):
            field = amp * np.exp(1j * np.radians(deg))
            amps, phases = demodulate(synthesize(field, cfg, 1, rng), cfg)
            assert amps[0] == pytest.approx(amp, rel=1e-12)
            assert circ_err(phases[0], np.radians(deg))[()] < 1e-9


def test_recovered_phase_is_principal_valued():
    cfg = BeatNoteConfig()
    rng = np.random.default_rng(8)
    for _ in range(25):
        field = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        _, phases = demodulate(synthesize(field, cfg, 1, rng), cfg)
        assert -np.pi <= phases[0] <= np.pi


def test_amplitude_linearity():
    cfg = BeatNoteConfig()
    rng = np.random.default_rng(0)  # never drawn from: no noise
    field = 1.3 * np.exp(0.4j)
    a1, p1 = demodulate(synthesize(field, cfg, 1, rng), cfg)
    a2, p2 = demodulate(synthesize(field / 2.0, cfg, 1, rng), cfg)
    assert a2[0] == pytest.approx(a1[0] / 2.0, rel=1e-12)
    assert p2[0] == pytest.approx(p1[0], abs=1e-12)


def test_quarter_period_delay_equals_minus_ninety_degrees():
    cfg = BeatNoteConfig(sample_rate_msps=40.0)  # 40 samples per beat period
    rng = np.random.default_rng(0)  # never drawn from: no noise
    lead = synthesize(1.0 + 0j, cfg, 1, rng)
    lag = synthesize(np.exp(-1j * np.pi / 2.0), cfg, 1, rng)
    quarter = 10  # samples
    np.testing.assert_allclose(lag[quarter:], lead[:-quarter], atol=1e-12)
    _, phases = demodulate(lag, cfg)
    assert phases[0] == pytest.approx(-np.pi / 2.0, abs=1e-9)


# -------------------------------------------------------------------- noise


def test_zero_field_trace_is_pure_noise_of_the_right_size():
    cfg = BeatNoteConfig(snr_per_window=10.0)
    trace = synthesize(0.0, cfg, 2000, np.random.default_rng(13))
    assert trace.size == 1_000_000
    assert trace.mean() == pytest.approx(0.0, abs=5e-3)
    assert trace.var() == pytest.approx(cfg.noise_sigma**2, rel=0.05)


def test_phase_noise_tracks_one_over_snr():
    cfg = BeatNoteConfig(snr_per_window=10.0)
    field = np.exp(0.7j)  # amplitude equal to the reference
    _, phases = demodulate(synthesize(field, cfg, 4000, np.random.default_rng(21)), cfg)
    spread = circ_err(phases, 0.7)
    std = np.sqrt(np.mean(spread**2))
    assert std == pytest.approx(1.0 / 10.0, rel=0.1)
    # and the estimate is unbiased to within 3 standard errors of the mean
    bias = np.mean(np.angle(np.exp(1j * (phases - 0.7))))
    assert abs(bias) < 3.0 * std / np.sqrt(phases.size)


def test_windows_are_reproducible_and_independent():
    cfg = BeatNoteConfig(snr_per_window=5.0)

    def draw(windows, seed=3):
        return synthesize(1.0 + 0j, cfg, windows, np.random.default_rng(seed))

    one, two = draw(1), draw(2)
    np.testing.assert_array_equal(two[: one.size], one)  # a longer trace extends a shorter one
    assert not np.array_equal(two[one.size :], one)  # window 1 draws its own noise
    np.testing.assert_array_equal(draw(2), two)  # the same generator state, the same trace
    assert not np.array_equal(draw(2, seed=4), two)


def test_demodulation_matches_per_window_reference():
    cfg = BeatNoteConfig(snr_per_window=4.0)
    trace = synthesize(0.7 * np.exp(-2.1j), cfg, 50, np.random.default_rng(11))
    n = cfg.samples_per_window
    phase = 2.0 * math.pi * cfg.if_freq_mhz * np.arange(n) / cfg.sample_rate_msps
    amp_ref, phase_ref = [], []
    for w in range(50):
        seg = trace[w * n : (w + 1) * n]
        i, q = float(seg @ np.cos(phase)), float(seg @ np.sin(phase))
        amp_ref.append(2.0 * math.hypot(i, q) / n)
        phase_ref.append(math.atan2(-q, i))
    iq = iq_windows(trace, cfg)
    assert iq.shape == (50, 2)
    amp, ph = demodulate(trace, cfg)
    np.testing.assert_allclose(amp, amp_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ph, phase_ref, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------ exact IQ law

# 10 periods; 10.5 periods, which leak with a diagonal covariance; and 7.3
# and 5.2 periods, which leak with I and Q correlated by 2% and 12%
_PERIODS = [
    pytest.param({}, id="10-periods"),
    pytest.param({"window_us": 10.5}, id="10.5-periods"),
    pytest.param({"window_us": 7.3}, id="7.3-periods"),
    pytest.param({"window_us": 5.2, "sample_rate_msps": 2.5}, id="5.2-periods-13-samples"),
]


def _law_covariance(cfg):
    t = np.arange(cfg.samples_per_window) / cfg.sample_rate_msps
    phase = 2.0 * math.pi * cfg.if_freq_mhz * t
    basis = np.stack([np.cos(phase), np.sin(phase)])
    return cfg.noise_sigma**2 * basis @ basis.T


@pytest.mark.filterwarnings("ignore::antires.heterodyne.LeakageWarning")
@pytest.mark.parametrize("timing", _PERIODS)
def test_noiseless_law_equals_demodulated_synthesis(timing):
    cfg = BeatNoteConfig(**timing)
    rng = np.random.default_rng(0)
    for field in (1.0 + 0j, 0.7 * np.exp(-2.1j), 1.9 * np.exp(0.4j), 1e-3j):
        want = iq_windows(synthesize(field, cfg, 60, rng), cfg)
        got = iq_law_windows(field, cfg, 60, rng)
        assert got.shape == (60, 2)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.filterwarnings("ignore::antires.heterodyne.LeakageWarning")
@pytest.mark.parametrize("timing", _PERIODS)
def test_law_noise_matches_synthesized_noise(timing):
    # Residuals about the noiseless sums, W = 2000 windows a path.  Each
    # path's mean is within 4 standard errors sigma_i / sqrt(W) of zero, and
    # each covariance entry within 4 standard errors sqrt((C_ii C_jj +
    # C_ij^2) / W) of the exact C; path against path the errors are sqrt(2)
    # larger.  The two paths draw from independent streams.
    windows = 2000
    cfg = BeatNoteConfig(snr_per_window=5.0, **timing)
    field = 0.8 * np.exp(0.6j)
    trace_rng, law_rng = map(np.random.default_rng, np.random.SeedSequence(17).spawn(2))
    exact = iq_windows(synthesize(field, replace(cfg, snr_per_window=None), windows, trace_rng),
                       cfg)
    trace = iq_windows(synthesize(field, cfg, windows, trace_rng), cfg) - exact
    law = iq_law_windows(field, cfg, windows, law_rng) - exact
    cov = _law_covariance(cfg)
    mean_se = np.sqrt(np.diag(cov) / windows)
    cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / windows)
    for r in (trace, law):
        assert np.all(np.abs(r.mean(axis=0)) <= 4.0 * mean_se)
        assert np.all(np.abs(np.cov(r.T) - cov) <= 4.0 * cov_se)
    assert np.all(np.abs(law.mean(axis=0) - trace.mean(axis=0)) <= 4.0 * np.sqrt(2.0) * mean_se)
    assert np.all(np.abs(np.cov(law.T) - np.cov(trace.T)) <= 4.0 * np.sqrt(2.0) * cov_se)


@pytest.mark.filterwarnings("ignore::antires.heterodyne.LeakageWarning")
def test_law_noise_keeps_the_correlation_of_a_leaking_window():
    # The exact correlation is -0.118; over 10^5 windows a sample correlation
    # has a standard error of (1 - rho^2) / sqrt(W) = 0.003, so a diagonal
    # covariance would miss it by some 37 standard errors.
    windows = 100_000
    cfg = BeatNoteConfig(snr_per_window=5.0, window_us=5.2, sample_rate_msps=2.5)
    cov = _law_covariance(cfg)
    rho = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    se = (1.0 - rho**2) / math.sqrt(windows)
    assert abs(rho) > 30.0 * se
    noise = iq_law_windows(0.0, cfg, windows, np.random.default_rng(4))
    assert abs(np.corrcoef(noise.T)[0, 1] - rho) <= 4.0 * se


@pytest.mark.filterwarnings("ignore::antires.heterodyne.LeakageWarning")
@pytest.mark.parametrize("timing", _PERIODS)
def test_law_windows_extend_a_shorter_record(timing):
    cfg = BeatNoteConfig(snr_per_window=5.0, **timing)

    def draw(windows, seed=(3, 1, 0)):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return iq_law_windows(0.4 - 0.9j, cfg, windows, rng)

    full = draw(4000)
    for k in (1, 2, 7, 64, 1000, 3999):
        np.testing.assert_array_equal(draw(k), full[:k])
    assert not np.array_equal(draw(64, seed=(3, 1, 1)), full[:64])


def test_law_windows_warn_about_leakage():
    rng = np.random.default_rng(0)
    with pytest.warns(LeakageWarning) as record:
        iq_law_windows(1.0 + 0j, BeatNoteConfig(window_us=10.5), 3, rng)
    assert record[0].filename == __file__  # the warning points at the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error", LeakageWarning)
        iq_law_windows(1.0 + 0j, BeatNoteConfig(), 3, rng)


def test_window_counts_must_be_integers_within_the_cap():
    cfg = BeatNoteConfig(snr_per_window=5.0)
    rng = np.random.default_rng(0)
    for windows in (True, 2.0, 2.5, "2", 0, -1, MAX_WINDOWS + 1):
        with pytest.raises(ValueError, match="windows"):
            iq_law_windows(1.0 + 0j, cfg, windows, rng)
        with pytest.raises(ValueError, match="windows"):
            synthesize(1.0 + 0j, cfg, windows, rng)
    assert iq_law_windows(1.0 + 0j, cfg, np.int64(3), rng).shape == (3, 2)
    assert synthesize(1.0 + 0j, cfg, np.int64(2), rng).size == 2 * cfg.samples_per_window


# --------------------------------------------------------------- histogram


def test_histogram_of_identical_phases_is_a_single_bin():
    hist = accumulate_histogram(np.full(300, 0.4), 0.4)
    assert hist.counts.sum() == 300.0
    assert np.count_nonzero(hist.counts) == 1
    k = int(np.argmax(hist.counts))
    assert hist.edges[k] <= 0.0 < hist.edges[k + 1]


def test_histogram_constant_offset_lands_in_the_right_bin():
    hist = accumulate_histogram(np.full(50, np.radians(30.0) + 1.1), 1.1)
    k = int(np.argmax(hist.counts))
    assert hist.edges[k] <= 30.0 < hist.edges[k + 1]
    assert hist.counts[k] == 50.0


def test_histogram_wraps_differences():
    # +170 deg versus -170 deg reference is a -20 deg difference, not +340
    hist = accumulate_histogram(np.array([np.radians(170.0)]), np.radians(-170.0))
    k = int(np.argmax(hist.counts))
    assert hist.centers[k] == pytest.approx(-17.5)  # the bin holding -20 deg


def test_histogram_validation():
    with pytest.raises(ValueError):
        accumulate_histogram(np.array([]), 0.0)
    for bins in (3, True, 36.0, 36.5, "36", MAX_BINS + 1):
        with pytest.raises(ValueError, match="bins"):
            accumulate_histogram(np.array([0.1]), 0.0, bins=bins)
    hist = accumulate_histogram(np.array([0.1]), 0.0, bins=np.int64(MAX_BINS))
    assert hist.counts.size == MAX_BINS


def test_histogram_accepts_per_sample_reference():
    phases = np.linspace(-3.0, 3.0, 100)
    hist = accumulate_histogram(phases, phases - np.radians(12.0))
    k = int(np.argmax(hist.counts))
    assert hist.edges[k] <= 12.0 < hist.edges[k + 1]
    assert hist.counts[k] == 100.0


# ------------------------------------------------------------ circular mean


def test_circular_mean_recovers_a_known_mean():
    # a wrapped normal's circular standard deviation is its sigma exactly,
    # and the mean's standard error is sigma / sqrt(N) to first order
    rng = np.random.default_rng(42)
    samples = np.radians(rng.normal(170.0, 30.0, 20000))
    est = circular_mean(samples, 0.0)
    assert abs(est.mean_deg - 170.0) <= 3.0 * est.mean_err_deg
    assert est.sd_deg == pytest.approx(30.0, abs=0.5)
    assert est.mean_err_deg == pytest.approx(30.0 / math.sqrt(20000), rel=0.05)


def test_circular_mean_near_the_seam_is_reported_wrapped():
    # the same distribution placed at +-180 degrees is estimated just as well
    rng = np.random.default_rng(43)
    for mean in (178.0, -179.5, 180.0):
        samples = np.radians(rng.normal(mean, 12.0, 8000))
        est = circular_mean(samples + 0.3, 0.3)
        assert -180.0 <= est.mean_deg < 180.0
        assert circ_err(np.radians(est.mean_deg), np.radians(mean)) <= np.radians(0.5)
        assert est.sd_deg == pytest.approx(12.0, abs=0.5)
    assert circular_mean([math.pi], 0.0).mean_deg == -180.0


def test_circular_mean_rotates_with_its_phases():
    rng = np.random.default_rng(44)
    samples = np.radians(rng.normal(-40.0, 25.0, 10000))
    base = circular_mean(samples, 0.0)
    for delta in (35.0, -150.0, 7.3):
        turned = circular_mean(samples + np.radians(delta), 0.0)
        want = (base.mean_deg + delta + 180.0) % 360.0 - 180.0
        assert turned.mean_deg == pytest.approx(want, abs=1e-9)
        assert turned.mean_err_deg == pytest.approx(base.mean_err_deg, rel=1e-9)
        assert turned.sd_deg == pytest.approx(base.sd_deg, rel=1e-9)


def test_circular_mean_of_identical_phases_is_exact():
    est = circular_mean(np.full(300, 0.4), np.full(300, 0.4 - math.radians(25.0)))
    assert est.mean_deg == pytest.approx(25.0, abs=1e-12)
    assert est.mean_err_deg == 0.0
    assert est.sd_deg == pytest.approx(0.0, abs=1e-6)


def test_circular_mean_of_no_phases_is_refused():
    with pytest.raises(ValueError, match="empty"):
        circular_mean(np.array([]), 0.0)


# ------------------------------------------------------------------- files


def test_trace_csv_round_trip(tmp_path):
    cfg = BeatNoteConfig(snr_per_window=8.0)
    trace = synthesize(0.9 * np.exp(0.3j), cfg, 1, np.random.default_rng(5))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, cfg, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_us", "current"]
    assert len(rows) == trace.size + 1
    got = np.array([float(r[1]) for r in rows[1:]])
    np.testing.assert_array_equal(got, trace)
    assert float(rows[2][0]) == pytest.approx(1.0 / cfg.sample_rate_msps)
