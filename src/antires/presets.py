"""Ready-made networks used by the command line tool and the test suite."""

from __future__ import annotations

import numpy as np

from .network import Mode, ModeNetwork, _real

# (power_nw, detuning_mhz) calibration anchors for the light-shift scan
STARK_CALIBRATION_POINTS: tuple[tuple[float, float], ...] = (
    (1400.0, 12.0),
    (950.0, -5.0),
    (700.0, -14.0),
)


def emitter_resonator(
    delta_er: float = -3.0,
    coupling: float = 16.0,
    gamma: float = 3.0,
    kappa: float = 1.5,
    drive: str = "cavity",
    eta: complex = 1.0,
) -> ModeNetwork:
    """Single emitter coupled to a single driven resonator.

    The resonator sits at frequency 0 (the rotating-frame origin); the
    emitter sits at ``delta_er`` relative to it.  Rates default to the
    strongly coupled fiber-cavity regime: ``g = 16`` against half-widths
    ``gamma = 3.0`` and ``kappa = 1.5`` MHz, deep in the regime where the
    antiresonance is far narrower than either normal mode.
    """
    modes = (
        Mode(label="cavity", kind="resonator", frequency=0.0, decay=kappa),
        Mode(label="atom", kind="emitter", frequency=delta_er, decay=gamma),
    )
    coupling = _real("coupling", coupling)
    couplings = np.array([[0.0, coupling], [coupling, 0.0]])
    net = ModeNetwork(modes=modes, couplings=couplings, drive=np.zeros(2, dtype=complex))
    return net.with_drive_on(drive, eta)


def five_node_demo(lossy: str = "n3", decay_scale: float = 10.0) -> ModeNetwork:
    """Five coupled resonators with one deliberately lossy node.

    A ring of five modes with two chords, uniform baseline decay 0.6 MHz,
    and the ``lossy`` node's decay multiplied by ``decay_scale``.  Driving
    each node in turn and comparing mean antiresonance widths singles the
    lossy node out.
    """
    labels = ("n1", "n2", "n3", "n4", "n5")
    if lossy not in labels:
        raise ValueError(f"lossy must be one of {labels}, got {lossy!r}")
    freqs = (-14.0, -6.0, 0.0, 7.0, 15.0)
    base = 0.6
    decay_scale = _real("decay_scale", decay_scale)
    modes = tuple(
        Mode(
            label=lab,
            kind="resonator",
            frequency=f,
            decay=base * decay_scale if lab == lossy else base,
        )
        for lab, f in zip(labels, freqs)
    )
    c = np.zeros((5, 5))
    ring = [(0, 1, 9.0), (1, 2, 11.0), (2, 3, 8.0), (3, 4, 10.0), (4, 0, 7.0)]
    chords = [(0, 2, 4.0), (1, 4, 5.0)]
    for j, k, g in ring + chords:
        c[j, k] = c[k, j] = g
    net = ModeNetwork(modes=modes, couplings=c, drive=np.zeros(5, dtype=complex))
    return net.with_drive_on("n1")


NETWORK_PRESETS = {
    "emitter-resonator": emitter_resonator,
    "five-node-demo": five_node_demo,
}
