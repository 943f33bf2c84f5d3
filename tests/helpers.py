"""Shared builders for the test suite.

Everything here is deliberately independent of the library internals: the
eigenvalue cross-checks use closed-form quadratics or raw numpy.linalg
calls so the tests act as a second implementation rather than a mirror of
the code under test.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from antires.network import Mode, ModeNetwork


def two_mode_network(
    delta_er: float = -3.0,
    coupling: float = 16.0,
    gamma: float = 3.0,
    kappa: float = 1.5,
    drive: str = "cavity",
    eta: complex = 1.0,
) -> ModeNetwork:
    modes = (
        Mode("cavity", "resonator", 0.0, kappa),
        Mode("atom", "emitter", delta_er, gamma),
    )
    couplings = np.array([[0.0, coupling], [coupling, 0.0]])
    vec = np.zeros(2, dtype=complex)
    vec[0 if drive == "cavity" else 1] = eta
    return ModeNetwork(modes=modes, couplings=couplings, drive=vec)


def random_network(
    rng: np.random.Generator,
    n_modes: int | None = None,
    coupling_range: tuple[float, float] = (5.0, 10.0),
    decay_range: tuple[float, float] = (0.4, 2.0),
) -> ModeNetwork:
    """Random connected network with well-separated mode frequencies.

    Frequencies are spaced by at least 8 MHz.  The default couplings are
    comparable to that spacing on purpose: weakly coupled networks leave
    every antiresonance sitting almost on top of a pole (near-cancelled,
    hence invisible), which is useless for exercising dip detection.
    """
    if n_modes is None:
        n_modes = int(rng.integers(3, 6))
    freqs = np.cumsum(rng.uniform(8.0, 16.0, size=n_modes))
    freqs -= freqs.mean()
    decays = rng.uniform(*decay_range, size=n_modes)
    kinds = ["resonator"] + [
        str(rng.choice(["emitter", "resonator"])) for _ in range(n_modes - 1)
    ]
    modes = tuple(
        Mode(f"m{i}", kinds[i], float(freqs[i]), float(decays[i]))
        for i in range(n_modes)
    )
    couplings = np.zeros((n_modes, n_modes))
    # chain backbone keeps the graph connected
    for i in range(n_modes - 1):
        g = float(rng.uniform(*coupling_range))
        couplings[i, i + 1] = couplings[i + 1, i] = g
    # sprinkle a few extra weak edges
    for _ in range(int(rng.integers(0, n_modes))):
        i, j = rng.choice(n_modes, size=2, replace=False)
        g = float(rng.uniform(0.5, 2.0))
        couplings[i, j] = couplings[j, i] = g
    drive = np.zeros(n_modes, dtype=complex)
    drive[0] = 1.0
    return ModeNetwork(modes=modes, couplings=couplings, drive=drive)


def quadratic_eigs(f1, d1, f2, d2, g):
    """Eigenvalues of [[f1 - i d1, g], [g, f2 - i d2]] by the quadratic formula."""
    z1 = f1 - 1j * d1
    z2 = f2 - 1j * d2
    disc = np.sqrt((z1 - z2) ** 2 / 4.0 + g * g)
    mid = (z1 + z2) / 2.0
    return mid - disc, mid + disc


def dense_mode_matrix(network: ModeNetwork) -> np.ndarray:
    """Independent reconstruction of the mode matrix for eigen cross-checks."""
    n = len(network.modes)
    a = np.array(network.couplings, dtype=complex)
    for i, mode in enumerate(network.modes):
        a[i, i] = mode.frequency - 1j * mode.decay
    assert a.shape == (n, n)
    return a


def iq_windows(trace: np.ndarray, config) -> np.ndarray:
    """Boxcar (I, Q) sums of each window of a digitised heterodyne trace: the
    trace-path reference for ``iq_law_windows``, as a ``(windows, 2)`` array."""
    n = config.samples_per_window
    phase = 2.0 * math.pi * config.if_freq_mhz * np.arange(n) / config.sample_rate_msps
    segments = np.asarray(trace, dtype=float).reshape(-1, n)
    return np.stack([segments @ np.cos(phase), segments @ np.sin(phase)], axis=1)


def demodulate(trace: np.ndarray, config) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes and phases (radians) of every window of a digitised trace."""
    iq = iq_windows(trace, config)
    i, q = iq[:, 0], iq[:, 1]
    return 2.0 * np.hypot(i, q) / config.samples_per_window, np.arctan2(-q, i)


def traced_peak(call):
    """``call()``'s result and the peak bytes that ``tracemalloc`` saw it hold
    above what was allocated before it started."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
