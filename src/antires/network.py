"""Driven, damped coupled-mode networks and their linear steady state.

All frequencies and rates are cyclic quantities (omega / 2 pi) expressed in
MHz.  ``decay`` is the amplitude half-width of a mode: the emitter dipole
decay rate or the resonator field decay rate.  The steady state of the
linear equations of motion solves ``M(probe) @ amplitudes = drive`` with

    M[j, j] = (probe - frequency_j) + 1j * decay_j
    M[j, k] = -couplings[j, k]          for j != k

so a two-mode emitter/resonator system driven on the resonator reduces to

    a = eta * (d_pe + 1j*gamma) / ((d_pe + 1j*gamma)*(d_pr + 1j*kappa) - g**2)

with ``d_pe``/``d_pr`` the probe detunings from the emitter and resonator.

Every solve goes through one mode matrix ``A = diag(frequency - 1j*decay) +
couplings`` as ``M(probe) = probe*I - A``.  :func:`steady_state_family`
solves it for a *family* of networks sharing one topology -- per-member
frequency shifts and emitter coupling scales -- in stacked chunks over
members and probes.  A chunk's working set, its ``N x N`` response matrices
plus LAPACK's ``N``-vector solutions (``16*N*(N+1)`` bytes a system), stays
under 1 MiB.  The single-network solvers are its one-member views.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .output import write_json

MODE_KINDS = ("emitter", "resonator")

# Bound on the working set of one stacked family solve: its response
# matrices and their solutions, 16*N*(N+1) bytes per (member, probe) system.
_CHUNK_BYTES = 2**20


class InvalidNetworkError(ValueError):
    """Raised when a network description violates a structural constraint."""


class SingularResponseError(RuntimeError):
    """Raised when the steady-state solve hits an exactly singular matrix."""


def _finite_real(value: object) -> bool:
    """Whether ``value`` is an int or a float, never a bool, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _seed_value(value: object) -> bool:
    """Whether ``value`` is a non-negative int, never a bool: a valid RNG seed."""
    return (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0
    )


def _count(name: str, value: object, low: int, high: int | None = None) -> int:
    """``value`` as a Python int if it is an integer in ``[low, high]`` (numpy's too,
    never a bool; ``high=None``: no bound); else a ValueError naming ``name``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _json_number(value: object, key: str) -> float:
    """A network file's number as a float; strings, bools and nulls are refused."""
    if not _finite_real(value):
        raise InvalidNetworkError(f"{key} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Mode:
    """A single bosonic or two-level mode in the linear (weak drive) regime.

    Parameters
    ----------
    label : str
        Unique name used in drive vectors, reports, and CSV headers.
    kind : str
        Either ``"emitter"`` or ``"resonator"``.  The distinction matters
        only to motion/ensemble averaging, which perturbs emitter couplings
        and frequencies.
    frequency : float
        Mode frequency in MHz, relative to the common rotating frame.
    decay : float
        Amplitude decay half-width in MHz; must be positive so the network
        is strictly dissipative and the steady state unique.
    """

    label: str
    kind: str
    frequency: float
    decay: float

    def __post_init__(self) -> None:
        if not (isinstance(self.label, str) and self.label):
            raise InvalidNetworkError(f"mode label must be a non-empty string, got {self.label!r}")
        if self.kind not in MODE_KINDS:
            raise InvalidNetworkError(
                f"mode {self.label!r}: kind must be one of {MODE_KINDS}, got {self.kind!r}"
            )
        if not _finite_real(self.frequency):
            raise InvalidNetworkError(
                f"mode {self.label!r}: frequency must be a finite number, got {self.frequency!r}"
            )
        if not (_finite_real(self.decay) and self.decay > 0.0):
            raise InvalidNetworkError(
                f"mode {self.label!r}: decay must be a positive number, got {self.decay!r}"
            )


@dataclass(frozen=True)
class ModeNetwork:
    """An N-mode network: mode list, symmetric coupling matrix, drive vector.

    ``couplings[j, k]`` is the coherent exchange rate between modes j and k
    in MHz; the matrix must be real symmetric with zero diagonal.  ``drive``
    is the complex drive amplitude applied to each mode.  Instances are
    immutable; use :meth:`with_drive_on` / ``dataclasses.replace`` to derive
    variants.  Labels, frequencies, decays, the mode matrix's diagonal and
    the driven mode are derived once, at construction.
    """

    modes: tuple[Mode, ...]
    couplings: np.ndarray
    drive: np.ndarray

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        n = len(modes)
        if n == 0:
            raise InvalidNetworkError("network must contain at least one mode")
        labels = tuple([m.label for m in modes])
        if len(set(labels)) != n:
            raise InvalidNetworkError(f"duplicate mode labels: {sorted(labels)}")

        c = np.array(self.couplings, dtype=float)
        if c.shape != (n, n):
            raise InvalidNetworkError(
                f"couplings must be ({n}, {n}) for {n} modes, got {c.shape}"
            )
        # np.count_nonzero: the cheapest reduction for arrays this small
        if np.count_nonzero(np.isfinite(c)) != c.size:
            raise InvalidNetworkError("couplings must be finite")
        if np.count_nonzero(c.diagonal()):
            raise InvalidNetworkError("self couplings (nonzero diagonal) are not allowed")
        # a matrix bit-equal to its transpose needs no elementwise compare (a
        # ufunc on a transposed view costs microseconds); 0.0 == -0.0 still holds
        if c.tobytes() != c.T.tobytes() and np.count_nonzero(c != c.T):
            raise InvalidNetworkError("coupling matrix must be symmetric")

        d = np.array(self.drive, dtype=complex)
        if d.shape != (n,):
            raise InvalidNetworkError(f"drive must have shape ({n},), got {d.shape}")
        amps = d.tolist()  # Python complexes: cheaper to test than a numpy ufunc at n ~ 2
        if not all(map(cmath.isfinite, amps)):
            raise InvalidNetworkError("drive amplitudes must be finite")

        # diagonal of the mode matrix, frequency - 1j*decay
        diagonal = np.array([complex(m.frequency, -m.decay) for m in modes])
        decays = -diagonal.imag
        for a in (c, d, diagonal, decays):
            a.setflags(write=False)
        driven = int(np.abs(d).argmax())  # ties: first in order
        vars(self).update(  # a frozen dataclass refuses plain attribute writes
            modes=modes,
            couplings=c,
            drive=d,
            _labels=labels,
            _frequencies=diagonal.real,
            _decays=decays,
            _diagonal=diagonal,
            _driven=driven if amps[driven] else None,
        )

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def frequencies(self) -> np.ndarray:
        return self._frequencies

    @property
    def decays(self) -> np.ndarray:
        return self._decays

    @property
    def emitter_mask(self) -> np.ndarray:
        """Boolean mask of the emitter modes, in mode order: the modes that
        motional perturbations shift and whose couplings they scale."""
        return np.array([m.kind == "emitter" for m in self.modes])

    def index(self, label: str) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"no mode labelled {label!r} (have {self.labels})") from None

    def driven_label(self) -> str:
        """Label of the most strongly driven mode (ties: first in order)."""
        if self._driven is None:
            raise InvalidNetworkError("drive vector is identically zero")
        return self._labels[self._driven]

    def with_drive_on(self, label: str, amplitude: complex = 1.0) -> "ModeNetwork":
        """Copy of the network driven only on ``label`` with ``amplitude``."""
        d = np.zeros(len(self), dtype=complex)
        d[self.index(label)] = amplitude
        return replace(self, drive=d)


@dataclass(frozen=True)
class ProbeGrid:
    """Uniform probe-frequency grid in MHz: ``points`` samples on [start, stop]."""

    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise ValueError(f"grid {name} must be a finite number, got {value!r}")
        if self.stop <= self.start:
            raise ValueError(f"grid requires stop > start, got [{self.start}, {self.stop}]")
        object.__setattr__(self, "points", _count("grid.points", self.points, 2))

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.points - 1)

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SteadyState:
    """Steady-state complex amplitudes of every mode at one probe frequency."""

    probe: float
    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.labels.index(label)])


def _mode_matrix(network: ModeNetwork) -> np.ndarray:
    """Mode matrix ``A = diag(frequency - 1j*decay) + couplings``.

    Poles are ``eig(A)``, zeros its principal minors' eigenvalues, and the
    steady state solves ``(probe*I - A) @ a = drive``.
    """
    a = network.couplings.astype(complex)
    a.ravel()[:: len(network) + 1] = network._diagonal
    return a


def steady_state(network: ModeNetwork, probe: float) -> SteadyState:
    """Solve M(probe) @ a = drive for the complex mode amplitudes.

    The one-member, one-probe case of :func:`steady_state_family`, without
    its stacking overhead.
    """
    network.driven_label()  # validates the drive is not identically zero
    m = -_mode_matrix(network)
    m.ravel()[:: len(network) + 1] += probe
    try:
        amps = np.linalg.solve(m, network.drive)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - strictly lossy => regular
        raise SingularResponseError(f"singular response matrix at probe={probe}") from exc
    return SteadyState(probe=float(probe), labels=network.labels, amplitudes=amps)


def _chunk_systems(n_modes: int) -> int:
    """Systems of size ``n_modes`` per stacked solve under the module bound
    (at least one)."""
    return max(1, _CHUNK_BYTES // (16 * n_modes * (n_modes + 1)))


def family_chunk(probes: int, n_modes: int) -> int:
    """Family members per stacked solve: keeps the response matrices and
    solutions of ``members x probes`` systems of size ``n_modes`` under the
    module bound (at least one member, whose probes are then chunked too)."""
    return max(1, _chunk_systems(n_modes) // max(probes, 1))


def steady_state_family(
    network: ModeNetwork,
    freq_shifts: np.ndarray,
    coupling_scale: np.ndarray,
    probes: np.ndarray,
) -> np.ndarray:
    """Steady-state amplitudes of a family of perturbed copies of ``network``.

    Member ``b`` shifts every mode frequency by ``freq_shifts[b]`` (shape
    ``(B, n_modes)``) and multiplies every coupling touching an emitter mode
    by ``coupling_scale[b]`` (shape ``(B,)``).  Returns a complex array of
    shape ``(B, len(probes), n_modes)``.  Systems are solved in stacked
    chunks of :func:`family_chunk` members, and when one member's probes
    alone exceed the module bound, of as many of its probes as fit; each
    chunk builds its own members' mode matrices.  Besides the result, a
    call holds about one chunk, at most ``_CHUNK_BYTES``.  Each member's
    result is bit-identical to solving its perturbed network on its own.
    """
    network.driven_label()
    shifts = np.asarray(freq_shifts, dtype=float)
    scales = np.asarray(coupling_scale, dtype=float)
    probes = np.asarray(probes, dtype=float).ravel()
    n = len(network)
    if shifts.ndim != 2 or shifts.shape[1] != n or scales.shape != shifts.shape[:1]:
        raise ValueError(
            f"freq_shifts must be (B, {n}) and coupling_scale (B,), got "
            f"{shifts.shape} and {scales.shape}"
        )
    emitter = network.emitter_mask
    rows, cols = np.nonzero((emitter[:, None] | emitter[None, :]) & ~np.eye(n, dtype=bool))
    base = _mode_matrix(network)

    step = family_chunk(probes.size, n)
    probe_step = max(1, min(probes.size, _chunk_systems(n)))
    out = np.empty((len(scales), probes.size, n), dtype=complex)
    for lo in range(0, len(scales), step):
        members = slice(lo, lo + step)
        a = np.repeat(base[None], len(scales[members]), axis=0)
        a.reshape(-1, n * n)[:, :: n + 1] += shifts[members]
        a[:, rows, cols] *= scales[members, None]
        for p in range(0, probes.size, probe_step):
            grid = slice(p, p + probe_step)
            out[members, grid] = _solve_stacked(a, probes[grid], network.drive)
    return out


def _solve_stacked(a: np.ndarray, probes: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Solve ``(probe*I - a[b]) @ x = drive`` for every member and probe.

    A function of its own so the stacked matrices are freed before the
    caller copies the result out: peak memory is one chunk plus its result.
    """
    b, n, _ = a.shape
    ms = np.repeat(-a[:, None], probes.size, axis=1)
    ms.reshape(b, probes.size, n * n)[..., :: n + 1] += probes[:, None]
    rhs = np.broadcast_to(drive, ms.shape[:-1])[..., None]
    try:
        return np.linalg.solve(ms, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - strictly lossy => regular
        raise SingularResponseError("singular response matrix in family solve") from exc


def steady_state_batch(network: ModeNetwork, probes: np.ndarray) -> np.ndarray:
    """Steady-state amplitudes for many probe frequencies at once.

    Returns a complex array of shape ``(len(probes), n_modes)``: the
    unperturbed one-member view of :func:`steady_state_family`.
    """
    n = len(network)
    return steady_state_family(network, np.zeros((1, n)), np.ones(1), probes)[0]


def closed_form_two_mode(
    delta_pe: np.ndarray | float,
    delta_pr: np.ndarray | float,
    gamma: float,
    kappa: float,
    g: float,
    eta: complex = 1.0,
) -> np.ndarray | complex:
    """Resonator amplitude of the emitter/resonator pair, driven on the resonator.

    ``delta_pe`` / ``delta_pr`` are probe detunings from the emitter and the
    resonator.  Broadcasts over array arguments.  This closed form is the
    independent cross-check for the generic matrix solve.
    """
    scalar = np.isscalar(delta_pe) and np.isscalar(delta_pr)
    # numpy scalars do the same arithmetic as 0-d arrays without their per-op overhead
    as_number = np.float64 if scalar else np.asarray
    emitter = as_number(delta_pe) + 1j * gamma
    out = eta * emitter / (emitter * (as_number(delta_pr) + 1j * kappa) - g * g)
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def network_to_dict(network: ModeNetwork) -> dict:
    pairs = []
    n = len(network)
    for j in range(n):
        for k in range(j + 1, n):
            g = network.couplings[j, k]
            if g != 0.0:
                pairs.append(
                    {"a": network.modes[j].label, "b": network.modes[k].label, "g_mhz": g}
                )
    drive = [
        {"label": m.label, "re": network.drive[i].real, "im": network.drive[i].imag}
        for i, m in enumerate(network.modes)
        if network.drive[i] != 0.0
    ]
    return {
        "modes": [
            {
                "label": m.label,
                "kind": m.kind,
                "frequency_mhz": m.frequency,
                "decay_mhz": m.decay,
            }
            for m in network.modes
        ],
        "couplings": pairs,
        "drive": drive,
    }


def network_from_dict(data: dict) -> ModeNetwork:
    try:
        raw_modes = data["modes"]
    except (KeyError, TypeError):
        raise InvalidNetworkError("network description must contain a 'modes' list")
    if not isinstance(raw_modes, list) or not raw_modes:
        raise InvalidNetworkError("'modes' must be a non-empty list")
    modes = []
    for entry in raw_modes:
        try:
            modes.append(
                Mode(
                    label=entry["label"],
                    kind=entry["kind"],
                    frequency=_json_number(entry["frequency_mhz"], "frequency_mhz"),
                    decay=_json_number(entry["decay_mhz"], "decay_mhz"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidNetworkError(f"bad mode entry {entry!r}: {exc}") from exc
    lut = {m.label: i for i, m in enumerate(modes)}  # duplicates: ModeNetwork refuses them
    couplings, drive = data.get("couplings", []), data.get("drive", [])
    for key, value in (("couplings", couplings), ("drive", drive)):
        if not isinstance(value, list):
            raise InvalidNetworkError(f"{key!r} must be a list, got {value!r}")

    n = len(modes)
    c = np.zeros((n, n))
    for entry in couplings:
        try:
            a, b, g = entry["a"], entry["b"], _json_number(entry["g_mhz"], "g_mhz")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidNetworkError(f"bad coupling entry {entry!r}: {exc}") from exc
        if not all(isinstance(end, str) and end in lut for end in (a, b)):
            raise InvalidNetworkError(f"coupling references unknown mode: {entry!r}")
        if a == b:
            raise InvalidNetworkError(f"self coupling on {a!r} is not allowed")
        j, k = lut[a], lut[b]
        if c[j, k] != 0.0:
            raise InvalidNetworkError(f"duplicate coupling between {a!r} and {b!r}")
        c[j, k] = c[k, j] = g

    d = np.zeros(n, dtype=complex)
    for entry in drive:
        try:
            lab = entry["label"]
            amp = complex(
                _json_number(entry.get("re", 0.0), "re"), _json_number(entry.get("im", 0.0), "im")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidNetworkError(f"bad drive entry {entry!r}: {exc}") from exc
        if not (isinstance(lab, str) and lab in lut):
            raise InvalidNetworkError(f"drive references unknown mode {lab!r}")
        d[lut[lab]] += amp

    return ModeNetwork(modes=tuple(modes), couplings=c, drive=d)


def save_network(network: ModeNetwork, path: str | Path) -> None:
    write_json(network_to_dict(network), path)


def load_network(path: str | Path) -> ModeNetwork:
    return network_from_dict(json.loads(Path(path).read_text()))
