"""Synthetic heterodyne beat notes and boxcar IQ demodulation.

A transmitted field of complex amplitude ``field`` beats against a local
oscillator at the intermediate frequency, giving the digitised voltage

    v(t_n) = |field| * cos(2 pi f_if t_n + arg field) + noise

Demodulation is a plain boxcar IQ sum over each window; with an integer
number of beat periods per window this is the maximum-likelihood amplitude
and phase estimator for white noise.  Phases are always used relative to a
reference channel, so the arbitrary demodulation epoch cancels.

Randomness enters one way: the caller passes a ``numpy.random.Generator``.
:func:`iq_law_windows` draws each window's (I, Q) sums from their exact law.
The sums are linear in the trace, so under white Gaussian noise a window's
pair is itself exactly Gaussian: its mean is the sum of the noiseless trace
and its covariance is ``sigma^2 [[sum cos^2, sum cos sin], [sum cos sin, sum
sin^2]]`` over one window's carrier phases (not diagonal when the window
leaks).  That takes time linear in the window count plus the window length,
with no trace; the CLI estimates its phases this way.  :func:`synthesize`
builds the digitised trace itself, for the CLI's example trace and as the
tests' reference for the law.

:func:`circular_mean` estimates a probe's phase from its windows: the
argument of the mean phasor of the phase differences, with its standard
error and the circular standard deviation (N. I. Fisher, *Statistical
Analysis of Circular Data*, 1993; Mardia & Jupp, *Directional Statistics*,
2000).  :func:`accumulate_histogram` bins the same differences for display.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .network import _count, _real
from .output import write_csv


class ConfigError(ValueError):
    """Invalid configuration: an acquisition setting here, or a CLI config file."""


class LeakageWarning(UserWarning):
    """Non-integer beat periods per window: IQ sums pick up spectral leakage."""


# Size caps, checked before an array of that size is allocated: samples in
# one window, windows in one record, and histogram bins.
MAX_SAMPLES_PER_WINDOW = 10**6
MAX_WINDOWS = 10**6
MAX_BINS = 3600
# Fewest windows the CLI estimates a phase from: the standard error of a
# circular mean is a large-sample result.
MIN_WINDOWS = 10


@dataclass(frozen=True)
class BeatNoteConfig:
    """Acquisition settings for one heterodyne record.

    ``snr_per_window`` is the amplitude signal-to-noise ratio that a field
    of magnitude ``reference_amplitude`` achieves in a single window; the
    per-sample noise sigma is derived from it.  ``None`` disables noise.
    The defaults (1 MHz beat, 50 MS/s, 10 us windows) give 500 samples and
    exactly 10 beat periods per window; a window holds at most
    ``MAX_SAMPLES_PER_WINDOW`` samples.
    """

    if_freq_mhz: float = 1.0
    sample_rate_msps: float = 50.0
    window_us: float = 10.0
    snr_per_window: float | None = None
    reference_amplitude: float = 1.0

    def __post_init__(self) -> None:
        try:
            for name in ("if_freq_mhz", "sample_rate_msps", "window_us", "reference_amplitude"):
                _real(name, getattr(self, name), 0.0, strict=True)
            if self.snr_per_window is not None:  # None: noiseless
                _real("snr_per_window", self.snr_per_window, 0.0, strict=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.sample_rate_msps <= 2.0 * self.if_freq_mhz:
            raise ConfigError(
                f"sample rate {self.sample_rate_msps} MS/s does not satisfy Nyquist for a "
                f"{self.if_freq_mhz} MHz beat"
            )
        if self.if_freq_mhz * self.window_us < 5.0:
            raise ConfigError(
                f"window must span at least 5 beat periods, got "
                f"{self.if_freq_mhz * self.window_us}"
            )
        n = self.window_us * self.sample_rate_msps
        if not n <= MAX_SAMPLES_PER_WINDOW:
            raise ConfigError(
                f"window_us * sample_rate_msps gives {n:g} samples per window, above "
                f"the cap of {MAX_SAMPLES_PER_WINDOW}"
            )
        if abs(n - round(n)) > 1e-9 or round(n) < 2:
            raise ConfigError(
                f"window must hold an integer number (>= 2) of samples, got {n}"
            )
        if not math.isfinite(self.noise_sigma):
            raise ConfigError(f"snr_per_window {self.snr_per_window!r} overflows the noise "
                              f"sigma (reference amplitude {self.reference_amplitude:g})")

    @property
    def samples_per_window(self) -> int:
        return round(self.window_us * self.sample_rate_msps)

    @property
    def periods_per_window(self) -> float:
        return self.if_freq_mhz * self.window_us

    @property
    def noise_sigma(self) -> float:
        """Per-sample noise sigma implied by the per-window amplitude SNR."""
        if self.snr_per_window is None:
            return 0.0
        n = self.samples_per_window
        # in Python floats, which overflow to inf without a numpy warning
        return float(self.reference_amplitude) * math.sqrt(n / 2.0) / float(self.snr_per_window)


def synthesize(
    field: complex, config: BeatNoteConfig, windows: int, rng: np.random.Generator
) -> np.ndarray:
    """Digitised beat-note trace for a steady field, ``windows`` windows long.

    The noise is one ``rng.normal`` draw in sample order, so a longer trace
    from the same generator state extends a shorter one.
    """
    windows = _count("windows", windows, 1, MAX_WINDOWS)
    t = np.arange(windows * config.samples_per_window) / config.sample_rate_msps  # us
    trace = abs(field) * np.cos(2.0 * math.pi * config.if_freq_mhz * t + np.angle(field))
    sigma = config.noise_sigma
    if sigma > 0.0:
        trace += rng.normal(0.0, sigma, size=trace.size)
    return trace


def iq_law_windows(
    field: complex, config: BeatNoteConfig, windows: int, rng: np.random.Generator
) -> np.ndarray:
    """IQ sums of ``windows`` noisy windows, drawn from their exact law.

    The ``(windows, 2)`` boxcar (I, Q) sums of ``synthesize(field, config,
    windows, rng)``'s windows in distribution, without building the trace:
    window ``w``'s mean is ``Re(field * exp(i omega w T) * u)`` with ``T``
    the window length and ``u = [sum e^{i phi} cos phi, sum e^{i phi} sin phi]``
    over the window's carrier phases ``phi``, and its noise is
    ``rng.standard_normal((windows, 2))`` mapped through the Cholesky factor
    of the sums' covariance.  Row ``w`` depends only on the generator's
    stream and ``w``, so a longer record extends a shorter one.  Warns with
    :class:`LeakageWarning` when the window does not hold an integer number
    of beat periods: the sums then leak a bias of order 1/periods into
    amplitude and phase.
    """
    windows = _count("windows", windows, 1, MAX_WINDOWS)
    p = config.periods_per_window
    if abs(p - round(p)) > 1e-9:
        warnings.warn(
            f"{p} beat periods per window is not an integer; IQ sums will leak",
            LeakageWarning,
            stacklevel=2,
        )
    t = np.arange(config.samples_per_window) / config.sample_rate_msps
    phase = 2.0 * math.pi * config.if_freq_mhz * t
    basis = np.stack([np.cos(phase), np.sin(phase)])
    u = basis @ np.exp(1j * phase)
    t0 = np.arange(windows) * config.samples_per_window / config.sample_rate_msps
    iq = (field * np.exp(1j * (2.0 * math.pi * config.if_freq_mhz * t0))[:, None] * u).real
    sigma = config.noise_sigma
    if sigma > 0.0:
        # sigma scales the factor, not the matrix: sigma**2 under- or
        # overflows at SNRs that sigma itself survives
        chol = sigma * np.linalg.cholesky(basis @ basis.T)
        z = rng.standard_normal((windows, 2))
        # z @ chol.T, written out so that no row depends on the row count
        iq += z[:, :1] * chol[:, 0] + z[:, 1:] * chol[:, 1]
    return iq


def write_trace_csv(trace: np.ndarray, config: BeatNoteConfig, path: str | Path) -> None:
    """Write a digitised trace as (t_us, current) rows."""
    t = np.arange(len(trace)) / config.sample_rate_msps
    write_csv(path, ["t_us", "current"], [t, np.asarray(trace, dtype=float)])


class PhaseHistogram(NamedTuple):
    """Histogram of phases (degrees) over one full 360-degree period."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def accumulate_histogram(
    phases_rad: Iterable[float],
    reference_rad: Iterable[float] | float,
    bins: int = 72,
) -> PhaseHistogram:
    """Histogram of phase differences (signal minus reference) in degrees.

    Differences are wrapped into [-180, 180); the edges always span exactly
    that period so histograms from different runs can be added bin-wise.
    """
    phases = np.atleast_1d(np.asarray(phases_rad, dtype=float))
    reference = np.asarray(reference_rad, dtype=float)
    if phases.size == 0:
        raise ValueError("cannot histogram an empty phase record")
    bins = _count("bins", bins, 4, MAX_BINS)
    diff_deg = np.degrees(phases - reference)
    wrapped = (diff_deg + 180.0) % 360.0 - 180.0
    edges = np.linspace(-180.0, 180.0, bins + 1)
    counts, _ = np.histogram(wrapped, bins=edges)
    return PhaseHistogram(edges=edges, counts=counts.astype(float))


class CircularMean(NamedTuple):
    """Phase estimate from a record of phase differences, all in degrees."""

    mean_deg: float  # in [-180, 180)
    mean_err_deg: float  # standard error of mean_deg
    sd_deg: float  # circular standard deviation of one difference


def circular_mean(
    phases_rad: Iterable[float], reference_rad: Iterable[float] | float
) -> CircularMean:
    """Circular mean of the phase differences (signal minus reference).

    With ``m = mean(exp(i theta))`` over the N differences ``theta``, the
    mean is ``arg m``, its standard error ``sqrt((1 - R2) / (2 N)) / |m|``
    with ``R2 = mean cos 2(theta - arg m)``, and the circular standard
    deviation ``sqrt(-2 ln |m|)``.  Raises ``ValueError`` for an empty
    record.
    """
    theta = np.atleast_1d(
        np.asarray(phases_rad, dtype=float) - np.asarray(reference_rad, dtype=float)
    )
    if theta.size == 0:
        raise ValueError("cannot average an empty phase record")
    m = np.mean(np.exp(1j * theta))
    r = abs(m)
    mean = math.atan2(m.imag, m.real)
    r2 = float(np.mean(np.cos(2.0 * (theta - mean))))
    return CircularMean(
        mean_deg=(math.degrees(mean) + 180.0) % 360.0 - 180.0,
        mean_err_deg=math.degrees(math.sqrt((1.0 - r2) / (2 * theta.size)) / r),
        # |m| can exceed 1 by a rounding error when every phase is equal
        sd_deg=math.degrees(math.sqrt(max(0.0, -2.0 * math.log(r)))),
    )
