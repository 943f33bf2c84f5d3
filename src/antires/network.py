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
scales -- by one pipeline at any mode count.  :func:`_reduce` writes each
(member, copy) unit's ``A`` once, a block of units at a time, as upper
Hessenberg ``A = Q H Q^H`` (Laub, IEEE Trans. Automat. Control 26, 1981, 407;
below three modes ``H = A``, ``Q = I``).  :func:`_solve` takes the block in
chunks of units x probes under 1 MiB: up to two modes by the adjugate, ``x =
adj(M) @ b / det(M)``, and from three by :func:`_eliminate`, ``(p*I - H) y = Q^H
b`` with pivoting between neighbouring rows, O(n^2) a probe, then ``x = Q y``.
A single :func:`steady_state` is a one-probe :func:`steady_state_batch`, or up to
two modes the same adjugate on numpy scalars; either way it gives a batch's bits.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .output import write_json

MODE_KINDS = ("emitter", "resonator")

# Bound on the working set of one chunk of a family solve (see _system_bytes).
_CHUNK_BYTES = 2**20

# Networks of at most this many modes are solved by _adjugate from their block's
# _reduce rows, in which no reflector has acted (H = A, Q = I); larger ones by an
# O(n^2) elimination a probe of the reduced rows.  At 3, 5 and 7 modes a reduction
# costs about 0.5, 2.4 and 4.3 us a unit in a block of 256 units (80, 200 and 350
# us for one unit alone), and a probe 0.10, 0.26 and 0.49 us, against 0.41, 0.67
# and 1.1 us for one LAPACK call a system (20,001-probe sweeps, 2-core Xeon).  Few
# probes a unit cost more than LAPACK did: a single solve 0.12-0.37 ms against
# 0.04-0.06 ms.  Up to two modes the closed form beats both.
_ADJUGATE_MAX_MODES = 2
_TINY = np.finfo(float).tiny  # a smaller |det(M)| is refused


class InvalidNetworkError(ValueError):
    """Raised when a network description violates a structural constraint."""


class SingularResponseError(RuntimeError):
    """Raised when a steady-state solve has no trustworthy solution: the matrix is
    singular, or so nearly so (a mode with a subnormal decay, probed at its own
    frequency) that the solution or ``det(M)`` overflows or ``det(M)`` is subnormal,
    or the drive is so large that a finite solve's amplitudes overflow."""


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
    and ``decays`` (in mode order), ``emitter_mask`` (the modes that motional
    perturbations shift and whose couplings they scale) and ``matrix``, the
    mode matrix ``A = diag(frequency - 1j*decay) + couplings`` that every
    solve, pole, zero and oracle lift reads.
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
        emitter_mask = np.array([m.kind == "emitter" for m in modes])
        for a in (c, d, decays, emitter_mask):
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
            emitter_mask=emitter_mask,
            _driven=driven if amps[driven] else None,
        )

    def __len__(self) -> int:
        return len(self.modes)

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
        """Copy of the network driven only on ``label`` with ``amplitude``, a nonzero
        finite int, float or complex (numpy's too, never a bool or a string)."""
        if not (_finite_real(amplitude) or (isinstance(amplitude, (complex, np.complexfloating))
                                            and cmath.isfinite(amplitude))) or amplitude == 0:
            raise InvalidNetworkError(f"drive amplitude on {label!r} must be a nonzero finite "
                                      f"int, float or complex, got {amplitude!r}")
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

    The one-probe row of :func:`steady_state_batch`, except that up to two
    modes it runs the same adjugate on numpy scalars, for the same bits.
    """
    network.driven_label()  # validates the drive is not identically zero
    probe = float(_real("probe", probe))
    n = len(network)
    a = network.matrix
    if n <= _ADJUGATE_MAX_MODES:
        # numpy scalars, as the family's shared entries are: each division
        # _adjugate makes meets one, and np.multiply takes them without a cast
        b = network.drive
        if n == 1:
            rows = [[probe - a[0, 0], b[0]]]
        else:
            rows = [[probe - a[0, 0], -a[0, 1], b[0]], [-a[1, 0], probe - a[1, 1], b[1]]]
        with np.errstate(all="ignore"):  # a singular solve is refused below
            det, x = _adjugate(rows)
        if not (_TINY <= abs(det) < math.inf and all(map(cmath.isfinite, x))):
            raise SingularResponseError(
                f"no finite steady state (singular response or overflowing amplitudes) "
                f"at probe={probe}")
        amps = np.array(x)
    else:
        amps = steady_state_batch(network, [probe])[0]
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
    by ``coupling_scale[g, m]`` (shape ``(G, M)``).  Each (member, copy) network
    is a unit.  At any mode count :func:`_reduce` prepares the units, member-major,
    a block at a time: whole members while one member's copies fit, else part of
    one member's.  :func:`_solve` takes each block in chunks of units times probes
    of at most ``_CHUNK_BYTES`` with what the block keeps: whole units while one
    unit's probes fit, else part of one unit's.  Member 0 is assigned and the rest
    added in order, then divided by ``M``: with ``M = 1`` each result is its
    system's own solution, bit for bit, and a mean equals averaging the members one by one.
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
    out = np.empty((copies, probes.size, n), dtype=complex)
    if not out.size:
        return out
    # member-major views: unit u is member u // copies of copy u % copies
    shifts, scales = np.moveaxis(shifts, 1, 0), scales.T
    system, (reduction, kept) = _system_bytes(n), _unit_bytes(n)
    # a block of units is reduced once, within the budget, and its chunks of units x
    # probes share the budget with what the reduction keeps
    block = min(max(1, _CHUNK_BYTES // reduction), scales.size)
    room = _CHUNK_BYTES - block * kept
    width = min(probes.size, max(1, room // system))  # whole units while a unit's probes fit
    units = min(max(1, room // (width * system)), block)
    # one set of the adjugate's work arrays for every chunk: arrays allocated and
    # freed chunk by chunk were handed back to the system and faulted in again, which
    # cost about as much as the solve (12k page faults a 512 x 1001 family)
    work = () if n > _ADJUGATE_MAX_MODES else (
        np.empty((2 * n - 1, units, width), dtype=complex),  # M's diagonals, det(M)
        np.empty((units, width, n), dtype=complex))
    reduced = np.empty((2 * n, n + 1, block), dtype=complex)  # every block's _reduce
    # a block is whole members while a member's copies fit, else part of one member's
    span, stride = min(block, copies), max(1, block // copies)
    for member, copy in itertools.product(range(0, members, stride), range(0, copies, span)):
        taken = np.s_[member:member + stride, copy:copy + span]
        h, q = _reduce(network, shifts[taken].reshape(-1, n), scales[taken].ravel(), reduced)
        base = member * copies + copy
        end = base + q.shape[-1]
        for lo in range(base, end, units):
            hi = min(lo + units, end)
            rows, modal = h[..., lo - base:hi - base], q[..., lo - base:hi - base]
            for first in range(0, probes.size, width):
                part = slice(first, first + width)
                x = _solve(rows, modal, probes[part], work)
                for m in range(lo // copies, (hi - 1) // copies + 1):
                    start, stop = max(lo, m * copies), min(hi, (m + 1) * copies)
                    sums = out[start - m * copies:stop - m * copies, part]
                    if m:
                        sums += x[start - lo:stop - lo]
                    else:
                        sums[...] = x[start - lo:stop - lo]
                del x  # a chunk's solution is freed before the next one is built
    if members > 1:
        out /= members
    return out


def _system_bytes(n: int) -> int:
    """Bytes of one system of ``n`` modes in a :func:`_solve` chunk, beside what its
    block's :func:`_reduce` keeps (see :func:`_unit_bytes`), which sizes the chunks."""
    if n <= _ADJUGATE_MAX_MODES:
        # the adjugate's work arrays of 16 * (3n - 1), then |det| and the probes: a
        # chunk's traced peak is 93-107 bytes at two modes, 43-59 at one
        return 128
    # _eliminate keeps the pivoted rows of [M | c], (n + 1)(n + 2)/2 - 3 entries, then
    # the solution y: its traced peak is (n + 1)(n + 2)/2 + n + 3.1 entries a system
    # from 6 to 30 modes, at the first back substitution step, and + 9.5 at three to
    # five (tracemalloc, one unit of 20,000 probes to 2,000 units of 10)
    return 16 * ((n + 1) * (n + 2) // 2 + n + 8)


def _unit_bytes(n: int) -> tuple:
    """Bytes of one unit's :func:`_reduce` in a family: its peak, and what it keeps
    while the unit's probes are solved."""
    # it keeps H's and Q's rows, 2n(n + 1) entries; from three modes its largest
    # temporary is the first right-hand reflection's 2n(n - 1).  Over 4,000 units the
    # traced peak is 5.1 and 14.6 entries a unit at one and two modes and 4n^2 + 6n +
    # 3.6 from 3 to 30, over twice what is kept, so a block leaves its chunks at
    # least half the budget.  Fewer units add numpy's iteration buffers, <= 256 KiB
    return 16 * (4 * n * n + 6 * n + 4), 32 * n * (n + 1)


def _solve(rows: np.ndarray, q: np.ndarray, probes: np.ndarray, work: tuple) -> np.ndarray:
    """Solutions of every unit's ``(p*I - a[u]) @ x = drive`` at every probe ``p``,
    shape ``(units, probes, n)``, from the units' :func:`_reduce` ``rows = [-H | c]``
    and ``Q``.  Up to two modes, where ``H = a[u]``, ``c = drive`` and ``Q = I``, the
    adjugate solves them in ``work``, arrays every chunk reuses: the diagonals and
    ``det(M)``, mode-major, then the solutions, which the result views.  From three
    modes :func:`_eliminate` solves each probe.  A system with no trustworthy
    solution is refused naming its probe."""
    n, units = len(q), q.shape[-1]
    if n <= _ADJUGATE_MAX_MODES:
        entries, x = work[0][:, :units, :probes.size], work[1][:units, :probes.size]
        diagonal = probes.astype(complex)  # the same bits as the cast a float + complex makes
        # [p*I - H | c] by broadcasting; Q = I, so c is the drive: one number a row
        m = [[rows[j, k, :, None] for k in range(n)] + [rows[j, n, 0]] for j in range(n)]
        for j in range(n):
            m[j][j] = np.add(diagonal, m[j][j], out=entries[j])
        with np.errstate(all="ignore"):  # a singular system is refused below
            det, _ = _adjugate(m, entries[-1], *x.transpose(2, 0, 1))
        size = np.abs(det)  # steady_state's test: a NaN fails both bounds
        x[~((_TINY <= size) & (size < math.inf))] = np.nan
        parts = x.view(float)
    else:
        with np.errstate(all="ignore"):  # a zero pivot or an overflow is refused below
            modal = _eliminate(rows, q, probes)
        parts, x = modal.view(float), np.moveaxis(modal, 0, -1)
    if not (-math.inf < parts.min() and parts.max() < math.inf):  # a NaN fails both
        bad = probes[np.isfinite(x).all(axis=-1).argmin() % probes.size]
        raise SingularResponseError(
            f"no finite steady state (singular response or overflowing amplitudes) "
            f"at probe={bad}")
    return x


def _reduce(network: ModeNetwork, shifts: np.ndarray, scales: np.ndarray,
            out: np.ndarray) -> tuple:
    """Every unit's ``a[u]``, ``network.matrix`` with its diagonal shifted by ``shifts[u]``
    and every coupling that touches an emitter scaled by ``scales[u]``, reduced to upper
    Hessenberg form ``H = Q^H a[u] Q`` by Householder reflectors, none below three modes,
    batched over units (Laub, 1981): ``-H`` with ``c = Q^H drive`` appended as column ``n``,
    ``(n, n + 1, units)``, and ``Q``, ``(n, n, units)``, views of the C-contiguous ``out``,
    ``(2n, n + 1, >= units)``.  Every sum is a Python loop of elementwise ufuncs, with no
    BLAS call, so a unit's bits do not depend on the units beside it.  Entries below the
    subdiagonal are left as rounding made them and never read.  Entries near the largest
    double may overflow here, and the solve refuses what that leaves non-finite."""
    a = network.matrix
    n, units = len(a), len(scales)
    hq = out[..., :units]  # H's rows over Q's: P acts on both
    h, q = hq[:n], hq[n:, :n]
    h[:, :n] = a[:, :, None]
    h[:, n] = network.drive[:, None]
    q[...] = np.eye(n)[:, :, None]
    # a shift moves a frequency, the real part of H's diagonal, which is every (n + 2)th
    # entry of its rows (a float added to a complex leaves -decay as it is)
    out[:n].reshape(n * (n + 1), -1)[::n + 2, :units].real += shifts.T
    emitter = network.emitter_mask
    scaled = np.logical_or.outer(emitter, emitter)
    np.fill_diagonal(scaled, False)
    h[:, :n].real[scaled] = network.couplings[scaled][:, None] * scales
    with np.errstate(all="ignore"):  # an overflow is refused by _solve
        for k in range(n - 2):
            m = n - k - 1
            # P = I - beta u u^H maps column k below the diagonal onto its first entry.
            # It is scaled by its largest modulus first, as LAPACK's zlarfg does, so that
            # no square overflows or underflows to 0
            v = h[k + 1:, k] / np.maximum(np.abs(h[k + 1:, k]).max(axis=0), _TINY)
            squares = v.real * v.real + v.imag * v.imag
            norm = squares[0]
            for i in range(1, m):
                norm = norm + squares[i]
            norm = np.sqrt(norm)
            size = np.abs(v[0])
            phase = np.divide(v[0], size, out=np.ones(units, dtype=complex), where=size > 0)
            v[0] += phase * norm  # u = v + phase |v| e_1 cancels nothing
            beta = np.divide(1.0, norm * (norm + size), out=np.zeros(units), where=norm > 0)
            u = v.conj()
            w = u[0] * h[k + 1, k:]  # H := P H, rows k + 1 on
            for i in range(1, m):
                w += u[i] * h[k + 1 + i, k:]
            w *= beta
            h[k + 1:, k:] -= v[:, None] * w
            z = hq[:, k + 1] * v[0]  # H := H P and Q := Q P, columns k + 1 to n - 1
            for j in range(1, m):
                z += hq[:, k + 1 + j] * v[j]
            z *= beta
            hq[:, k + 1:n] -= z[:, None] * u
    np.negative(h[:, :n].view(float), out=h[:, :n].view(float))  # faster than complex
    return h, q


def _eliminate(rows: np.ndarray, q: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Solutions ``Q y``, shape ``(n, units, probes)``, where ``y`` solves ``(p*I - H)
    @ y = c`` for every unit's :func:`_reduce` ``rows = [-H | c]`` and ``Q``, and probe
    ``p``.  Gaussian elimination with partial pivoting, which on a Hessenberg matrix
    compares rows ``k`` and ``k + 1`` only and grows entries by at most a factor
    ``n`` (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    chapter 9), then back substitution.  The remaining row is one ``(columns,
    units, probes)`` array, so a step costs the same few ufunc calls at any ``n``."""
    n, units = len(q), q.shape[-1]
    top = np.empty((n + 1, units, probes.size), dtype=complex)
    top[...] = rows[0, :, :, None]
    np.add(probes, rows[0, 0, :, None], out=top[0])
    pivoted = []
    for k in range(n - 1):
        below = rows[k + 1, k:, :, None]  # row k + 1 from column k, less p on its diagonal
        diagonal = np.add(probes, below[1])
        swap = np.abs(below[0]) > np.abs(top[0])
        upper, lower = np.where(swap, below, top), np.where(swap, top, below)
        upper[1], lower[1] = np.where(swap, diagonal, top[1]), np.where(swap, top[1], diagonal)
        ratio = lower[0] / upper[0]
        top = lower[1:]
        top -= ratio * upper[1:]
        pivoted.append(upper)
    y = np.empty((n, units, probes.size), dtype=complex)
    np.divide(top[1], top[0], out=y[-1])
    del top
    for k in range(n - 2, -1, -1):
        upper = pivoted.pop()  # the pivot, row k of the triangle, then its right-hand side
        terms = upper[1:-1] * y[k + 1:]
        np.subtract(upper[-1], terms[0], out=y[k])
        for term in terms[1:]:
            y[k] -= term
        y[k] /= upper[0]
    x = np.empty_like(y)  # Q's first row and column are e_0: no reflection touches mode 0
    x[0] = y[0]
    np.multiply(q[1:, 1, :, None], y[1], out=x[1:])
    for j in range(2, n):
        x[1:] += q[1:, j, :, None] * y[j]
    return x


def _adjugate(rows: list, *out: np.ndarray) -> tuple:
    """``det(M)`` and the solution of ``M @ x = b`` for one or two modes as ``adj(M)
    @ b / det(M)``, forward stable at 2x2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 1.10.1).  ``rows[i]`` is row ``i``
    of ``[M | b]``, each entry one array over many systems, written into ``out``
    (``det``, then the solutions), or a numpy scalar, with no ``out`` (an ``out=None``
    doubles the cost of a ufunc call on scalars).

    Every product goes through ``np.multiply``, whose scalar call rounds as its
    array loop does (a scalar ``*`` does not: that loop fuses multiply and add), so
    a system solved alone gives the bits it gets in a batch.  numpy's scalar ``/``
    and ``-`` round as its loops do; Python's complex division does not, so every
    division must meet an array or a numpy scalar.
    """
    if len(rows) == 1:
        ((m, b),) = rows
        return m, [np.divide(b, m, *out[1:])]
    (p, q, c), (r, s, d) = rows
    det = np.multiply(p, s, *out[:1])
    det -= np.multiply(q, r)
    first = np.multiply(s, c, *out[1:2])
    first -= np.multiply(q, d)
    first /= det
    second = np.multiply(p, d, *out[2:])
    second -= np.multiply(r, c)
    second /= det
    return det, [first, second]


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
    return network_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
