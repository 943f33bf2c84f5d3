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
solves it for a *family* sharing one topology -- copies of ``network``, each
averaged over members with their own frequency shifts and emitter coupling
scales -- in one loop of chunks, each chunk's working set under 1 MiB.
:func:`_solve` builds every chunk's systems, with one array across the chunk
for each entry of ``M`` that differs between them.  One or two modes are
solved by Gaussian elimination with partial pivoting written over those
arrays, larger networks by one LAPACK solve per system.  A single
:func:`steady_state` is :func:`_solve` on one system, or up to two modes the
same elimination on numpy scalars; either way it gives a batch's bits.
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

# Bound on the working set of one chunk of a family solve (see _system_bytes).
_CHUNK_BYTES = 2**20

# Networks of at most this many modes are solved by _eliminate over entry arrays,
# larger ones by one LAPACK call per system.  Up to two modes LAPACK's per-call
# overhead is most of a solve, and a batch by elimination is about 3x faster.  A
# single steady_state must give a batch's bits, so it runs the same elimination
# on numpy scalars, one ufunc call per product: 5-11 us a call, against 13 us at
# one mode and 40 at two for _solve on one system.  Elimination written for n
# modes was measured too (2-core Xeon): in batches it gained up to five modes and
# lost from seven, but a single three-mode solve took about twice one LAPACK call
# (33 vs 17 us), so it is written out for one and two modes only.
_ELIMINATION_MAX_MODES = 2


class InvalidNetworkError(ValueError):
    """Raised when a network description violates a structural constraint."""


class SingularResponseError(RuntimeError):
    """Raised when a steady-state solve has no finite solution: the matrix is
    singular, or so nearly so (a mode with a subnormal decay, probed at its own
    frequency) that the solution overflows."""


def _finite_real(value: object) -> bool:
    """Whether ``value`` is an int or a float, never a bool, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _count(name: str, value: object, low: int, high: int | None = None) -> int:
    """``value`` as a Python int if it is an integer in ``[low, high]`` (numpy's too,
    never a bool; ``high=None``: no bound); else a ValueError naming ``name``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _real(name: str, value: object, low: float | None = None, *, strict: bool = False):
    """``value`` unchanged if it is a finite int or float (numpy's too, never a bool)
    ``>= low`` (``> low`` when ``strict``; ``low`` is None, no bound, or 0); else a
    ValueError naming ``name``.  The message is built only on failure."""
    if _finite_real(value) and (low is None or (value > low if strict else value >= low)):
        return value
    sign = "" if low is None else "positive " if strict else "non-negative "
    raise ValueError(f"{name} must be a finite {sign}number, got {value!r}")


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
        try:
            _real("frequency", self.frequency)
            _real("decay", self.decay, 0.0, strict=True)
        except ValueError as exc:
            raise InvalidNetworkError(f"mode {self.label!r}: {exc}") from None


@dataclass(frozen=True)
class ModeNetwork:
    """An N-mode network: mode list, symmetric coupling matrix, drive vector.

    ``couplings[j, k]`` is the coherent exchange rate between modes j and k
    in MHz; the matrix must be real symmetric with zero diagonal.  ``drive``
    is the complex drive amplitude applied to each mode.  Instances are
    immutable; use :meth:`with_drive_on` / ``dataclasses.replace`` to derive
    variants.  Construction derives the read-only ``labels``, ``frequencies``
    and ``decays`` (in mode order) and ``matrix``, the mode matrix ``A =
    diag(frequency - 1j*decay) + couplings`` that every solve, pole, zero and
    oracle lift reads.
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
        # Python floats: cheaper to test than numpy ufuncs for the few modes of a
        # network built in a loop
        entries = c.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise InvalidNetworkError("couplings must be finite")
        if any(entries[:: n + 1]):
            raise InvalidNetworkError("self couplings (nonzero diagonal) are not allowed")
        # a matrix bit-equal to its transpose needs no elementwise compare (a
        # ufunc on a transposed view costs microseconds); 0.0 == -0.0 still holds
        if c.tobytes() != c.T.tobytes() and np.count_nonzero(c != c.T):
            raise InvalidNetworkError("coupling matrix must be symmetric")

        d = np.array(self.drive, dtype=complex)
        if d.shape != (n,):
            raise InvalidNetworkError(f"drive must have shape ({n},), got {d.shape}")
        amps = d.tolist()  # Python complexes, as for the couplings
        if not all(map(cmath.isfinite, amps)):
            raise InvalidNetworkError("drive amplitudes must be finite")

        matrix = c.astype(complex)
        matrix.ravel()[:: n + 1] = [complex(m.frequency, -m.decay) for m in modes]
        matrix.setflags(write=False)
        diagonal = matrix.diagonal()  # a read-only view
        frequencies, decays = diagonal.real, -diagonal.imag
        for a in (c, d, decays):
            a.setflags(write=False)
        driven = amps.index(max(amps, key=abs))  # ties: first in order
        vars(self).update(  # a frozen dataclass refuses plain attribute writes
            modes=modes,
            couplings=c,
            drive=d,
            labels=labels,
            frequencies=frequencies,
            decays=decays,
            matrix=matrix,
            _driven=driven if amps[driven] else None,
        )

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def emitter_mask(self) -> np.ndarray:
        """Boolean mask of the emitter modes, in mode order: the modes that
        motional perturbations shift and whose couplings they scale."""
        return np.array([m.kind == "emitter" for m in self.modes])

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no mode labelled {label!r} (have {self.labels})") from None

    def driven_label(self) -> str:
        """Label of the most strongly driven mode (ties: first in order)."""
        if self._driven is None:
            raise InvalidNetworkError("drive vector is identically zero")
        return self.labels[self._driven]

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
        _real("grid start", self.start)
        _real("grid stop", self.stop)
        if self.stop <= self.start:
            raise ValueError(f"grid requires stop > start, got [{self.start}, {self.stop}]")
        object.__setattr__(self, "points", _count("grid.points", self.points, 2))
        # a span that overflows, or a step that underflows to 0, has no uniform grid
        step = _real("grid step", self.step, 0.0, strict=True)
        # np.linspace rounds probe k as start + k*step, product then sum, and puts
        # stop last.  Products round by up to ulp(last) and sums by ulp(end), or not
        # at all below 2**-1021: a step over both puts each probe above the last one
        last, end = (self.points - 2) * step, max(abs(self.start), abs(self.stop))
        rounding = 0.0 if max(end, last) < 2.0**-1021 else math.ulp(last) + math.ulp(end)
        if not (step > rounding and last + self.start < self.stop
                and math.isfinite((self.points - 1) * step + self.start)):
            raise ValueError(f"grid step {step!r} cannot make {self.points} finite, strictly "
                             f"increasing float probes on [{self.start!r}, {self.stop!r}]")

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.points - 1)

    def frequencies(self) -> np.ndarray:
        return np.linspace(float(self.start), float(self.stop), self.points)  # ints past int64 too


@dataclass(frozen=True)
class SteadyState:
    """Steady-state complex amplitudes of every mode at one probe frequency."""

    probe: float
    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.labels.index(label)])


def steady_state(network: ModeNetwork, probe: float) -> SteadyState:
    """Solve M(probe) @ a = drive for the complex mode amplitudes.

    The one-member, one-probe case of :func:`steady_state_family`: its
    :func:`_solve` on one system, except that up to ``_ELIMINATION_MAX_MODES``
    modes it runs the same elimination on numpy scalars, for the same bits.
    """
    network.driven_label()  # validates the drive is not identically zero
    probe = float(_real("probe", probe))
    n = len(network)
    a = network.matrix
    if n <= _ELIMINATION_MAX_MODES:
        # the diagonal entries are numpy scalars, so each division _eliminate
        # makes meets one; -complex(g) is the family's (-g, -0.0)
        b = network.drive.tolist()
        if n == 1:
            rows = [[probe - a[0, 0], b[0]]]
        else:
            g = -complex(a[0, 1])
            rows = [[probe - a[0, 0], g, b[0]], [g, probe - a[1, 1], b[1]]]
        with np.errstate(all="ignore"):  # an overflowing solve is refused below
            amps = np.array(_eliminate(rows))
    else:
        amps = _solve(network, np.zeros((1, n)), np.ones(1), np.zeros(1, dtype=int),
                      np.array([probe]))[0]
    if not all(map(cmath.isfinite, amps.tolist())):  # an overflowing solve does not raise
        raise SingularResponseError(f"singular response matrix at probe={probe}")
    return SteadyState(probe=probe, labels=network.labels, amplitudes=amps)


def steady_state_family(
    network: ModeNetwork,
    freq_shifts: np.ndarray,
    coupling_scale: np.ndarray,
    probes: np.ndarray,
) -> np.ndarray:
    """Steady-state amplitudes of ``G`` copies of ``network``, each the mean
    over its ``M >= 1`` members, shape ``(G, len(probes), n_modes)``.

    Member ``m`` of copy ``g`` shifts every mode frequency by ``freq_shifts[g, m]``
    (shape ``(G, M, n_modes)``) and scales every coupling touching an emitter
    by ``coupling_scale[g, m]`` (shape ``(G, M)``).  All systems are solved
    member-major in chunks of at most ``_CHUNK_BYTES``, which may end part-way
    through a member.  Member 0 is assigned and the rest added in order, then
    divided by ``M``: with ``M = 1`` each result is its system's own solution,
    bit for bit, and a mean equals averaging the members one by one.
    """
    network.driven_label()
    shifts = np.asarray(freq_shifts, dtype=float)
    scales = np.asarray(coupling_scale, dtype=float)
    probes = np.asarray(probes, dtype=float).ravel()
    if not np.isfinite(probes).all():  # refused naming the first non-finite probe
        _real("probe", float(probes[~np.isfinite(probes)][0]))
    n = len(network)
    if shifts.ndim != 3 or shifts.shape[2] != n or scales.shape != shifts.shape[:2]:
        raise ValueError(
            f"freq_shifts must be (G, M, {n}) and coupling_scale (G, M), got "
            f"{shifts.shape} and {scales.shape}"
        )
    copies, members = scales.shape
    _count("family members", members, 1)
    # one row per unit, a (member, copy) network, member-major
    shifts = np.moveaxis(shifts, 1, 0).reshape(-1, n)
    scales = scales.T.ravel()

    out = np.empty((copies, probes.size, n), dtype=complex)
    sums = out.reshape(-1, n)  # one row per (copy, probe) system of a member
    per_member = len(sums)
    total = members * per_member
    step = max(1, _CHUNK_BYTES // _system_bytes(n))
    for lo in range(0, total, step):  # system s: unit s // P, probe s % P
        hi = min(lo + step, total)
        unit, probe = np.divmod(np.arange(lo, hi), probes.size)
        units = slice(unit[0], unit[-1] + 1)
        x = _solve(network, shifts[units], scales[units], unit - unit[0], probes.take(probe))
        if not np.isfinite(x).all():  # a near-singular solve overflows without raising
            bad = probes[probe[np.isfinite(x).all(axis=1).argmin()]]
            raise SingularResponseError(f"singular response matrix at probe={bad}")
        for m in range(lo // per_member, (hi - 1) // per_member + 1):
            start = m * per_member
            first, last = max(lo, start), min(hi, start + per_member)
            if m:
                sums[first - start:last - start] += x[first - lo:last - lo]
            else:
                sums[first - start:last - start] = x[first - lo:last - lo]
        del x  # freed before the next chunk is built
    if members > 1:
        out /= members
    return out


def _system_bytes(n: int) -> int:
    """Bytes of one system of ``n`` modes in a family chunk, which sizes the chunks."""
    if n <= _ELIMINATION_MAX_MODES:
        # [M | drive]'s entries four times over: the entries, their pivoted copies,
        # the products and the solution; a chunk at n = 2 peaks near 260 bytes a
        # system.  The slack keeps chunks small enough that the heap they free is
        # reused: at half this count glibc gave it back to the system after every
        # chunk, and faulting it in again cost more than the solve
        return 64 * n * (n + 1)
    return 16 * n * (n + 1)  # the stacked matrix and its solution


def _solve(network: ModeNetwork, shifts: np.ndarray, scales: np.ndarray, unit: np.ndarray,
           probes: np.ndarray) -> np.ndarray:
    """Solve ``(probes[s]*I - a[unit[s]]) @ x = drive`` for every system ``s``, where
    ``a[u]`` is ``network.matrix`` with its diagonal shifted by ``shifts[u]`` and every
    coupling that touches an emitter scaled by ``scales[u]``.  Those entries of ``M``
    are built once, one array over the systems, and one at a time, so a chunk holds
    at most one beside its stacked matrices; the rest are the shared ``-A[j, k]``.
    A function of its own so a chunk's arrays are freed before the caller folds its
    solutions into its result.
    """
    a = network.matrix
    n = len(a)
    emitter = network.emitter_mask.tolist()

    def varying():  # M is symmetric: one array serves both (j, k) and (k, j)
        for j in range(n):
            yield j, j, probes - (a[j, j] + shifts[:, j]).take(unit)
            for k in range(j + 1, n):
                if emitter[j] or emitter[k]:
                    yield j, k, np.negative(a[j, k] * scales).take(unit)

    if n <= _ELIMINATION_MAX_MODES:
        rows = [[-a[j, k] for k in range(n)] + [network.drive[j]] for j in range(n)]
        for j, k, entry in varying():
            rows[j][k] = rows[k][j] = entry
        with np.errstate(all="ignore"):  # a solution that overflows is refused by the caller
            return np.stack(_eliminate(rows), axis=-1)
    ms = np.empty((unit.size, n, n), dtype=complex)
    ms[:] = -a
    for j, k, entry in varying():
        ms[:, j, k] = ms[:, k, j] = entry
    rhs = np.broadcast_to(network.drive, ms.shape[:-1])[..., None]
    try:
        return np.linalg.solve(ms, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularResponseError("singular response matrix in family solve") from exc


def _eliminate(rows: list) -> list:
    """Solve ``M @ x = b`` for one or two modes by Gaussian elimination with partial
    pivoting, where ``rows[i]`` is row ``i`` of ``[M | b]``: each entry one array
    over many systems or a scalar.

    The pivot is the larger ``|re| + |im|``, row 0 on a tie.  Every product goes
    through ``np.multiply``, whose scalar call rounds as its array loop does (a
    scalar ``*`` does not: that loop fuses multiply and add), so a system solved
    alone gives the bits it gets in a batch.  numpy's scalar ``/`` and ``-`` round
    as its loops do; Python's complex division does not, so every division must
    meet an array or a numpy scalar.
    """
    if len(rows) == 1:
        ((m, b),) = rows
        return [b / m]
    upper, lower = rows
    swap = _weight(lower[0]) > _weight(upper[0])
    if isinstance(swap, np.ndarray):
        upper, lower = ([np.where(swap, b, a) for a, b in zip(upper, lower)],
                        [np.where(swap, a, b) for a, b in zip(upper, lower)])
    elif swap:
        upper, lower = lower, upper
    (p, q, c), (r, s, d) = upper, lower
    factor = r / p
    x1 = (d - np.multiply(factor, c)) / (s - np.multiply(factor, q))
    return [(c - np.multiply(q, x1)) / p, x1]


def _weight(z):
    """``|re| + |im|``: the size by which a pivot is chosen, as LAPACK's ``izamax``."""
    return abs(z.real) + abs(z.imag)


def steady_state_batch(network: ModeNetwork, probes: np.ndarray) -> np.ndarray:
    """Steady-state amplitudes for many probe frequencies at once.

    Returns a complex array of shape ``(len(probes), n_modes)``: the
    unperturbed one-copy, one-member view of :func:`steady_state_family`.
    """
    n = len(network)
    return steady_state_family(network, np.zeros((1, 1, n)), np.ones((1, 1)), probes)[0]


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
                    frequency=float(_real("frequency_mhz", entry["frequency_mhz"])),
                    decay=float(_real("decay_mhz", entry["decay_mhz"])),
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
            a, b, g = entry["a"], entry["b"], _real("g_mhz", entry["g_mhz"])
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
            amp = complex(_real("re", entry.get("re", 0.0)), _real("im", entry.get("im", 0.0)))
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
