"""Spectral sweeps, pole/zero extraction, motional averaging, loss location.

The driven response of a strictly dissipative mode network is a rational
function of the probe frequency: its poles are the complex eigenvalues of
the full mode matrix, while the zeros seen on the *driven* mode are the
eigenvalues of the submatrix with the driven row and column deleted.  Each
complex eigenvalue ``z`` maps to a spectral feature at ``center = Re z``
with amplitude half-width ``-Im z`` (our sign convention places eigenvalues
in the lower half plane).

Antiresonances -- the zeros -- are the workhorse here: their half-widths
reflect only the decay of the *undriven* modes, so comparing zero widths
across drive ports localises where in a network the loss lives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .network import (
    ModeNetwork,
    ProbeGrid,
    _count,
    _real,
    steady_state_batch,
    steady_state_family,
)
from .output import write_csv

_MAG_FLOOR = 1e-300  # keeps log magnitudes finite at an exact zero crossing
_MIN_ACCEPTANCE = 1e-6  # smallest truncation-window probability a MotionEnsemble accepts
_PROBE_TOL = 1e-6  # largest gap, in grid steps, between a read probe and its grid point


class AmbiguityError(RuntimeError):
    """Loss localisation could not separate the leading candidates.

    Attributes
    ----------
    candidates : tuple[str, ...]
        Drive labels whose mean antiresonance widths are within tolerance
        of the minimum, in ascending width order.
    """

    def __init__(self, candidates: tuple[str, ...], widths: dict[str, float]):
        self.candidates = candidates
        self.widths = widths
        msg = ", ".join(f"{c}: {widths[c]:.6g} MHz" for c in candidates)
        super().__init__(f"ambiguous loss localisation, tied candidates -> {msg}")


@dataclass(frozen=True)
class ComplexSpectrum:
    """Complex amplitudes of every mode over a probe grid.

    Derived channels (magnitude, excitation, unwrapped phase) are computed
    on demand from the stored complex amplitudes; they are never stored, so
    they cannot drift out of sync.
    """

    grid: ProbeGrid
    labels: tuple[str, ...]
    amplitudes: np.ndarray  # (points, n_modes) complex

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.points, len(self.labels)):
            raise ValueError(
                f"amplitudes must have shape ({self.grid.points}, {len(self.labels)}), "
                f"got {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def probes(self) -> np.ndarray:
        return self.grid.frequencies()

    def column(self, label: str) -> np.ndarray:
        return self.amplitudes[:, self.labels.index(label)]

    def magnitude(self, label: str) -> np.ndarray:
        return np.abs(self.column(label))

    def excitation(self, label: str) -> np.ndarray:
        return np.abs(self.column(label)) ** 2

    def phase_unwrapped(self, label: str) -> np.ndarray:
        """Unwrapped phase in radians, anchored at the low-frequency end."""
        return np.unwrap(np.angle(self.column(label)))


@dataclass(frozen=True)
class ResonancePole:
    center: float
    half_width: float
    multiplicity: int = 1


@dataclass(frozen=True)
class AntiresonanceZero:
    drive_label: str
    center: float
    half_width: float
    at_boundary: bool = False


def _group_eigenvalues(
    values: np.ndarray, tol: float = 1e-6
) -> list[tuple[float, float, int]]:
    """``(center, half_width, multiplicity)`` by ascending center.

    Values are visited in (center, half_width) order, and each joins the
    first group whose leading value is within ``tol`` in both, so the
    groups do not depend on the order of ``values``.
    """
    order = np.lexsort((-values.imag, values.real))
    grouped: list[list] = []
    for z in values[order]:
        c, w = float(z.real), float(-z.imag)
        for g in grouped:
            if abs(g[0] - c) <= tol and abs(g[1] - w) <= tol:
                g[2] += 1
                break
        else:
            grouped.append([c, w, 1])
    return [tuple(g) for g in grouped]


def resonances(network: ModeNetwork) -> list[ResonancePole]:
    """Poles of the driven response: eigenvalues of the full mode matrix.

    The matrix whose eigenvalues we take is ``probe*I - M(probe)``, which is
    probe-independent; every strictly dissipative network therefore has all
    its poles strictly below the real axis (half_width > 0).  Degenerate
    eigenvalues (within 1e-6 in both center and width) are merged with a
    multiplicity count.
    """
    vals = np.linalg.eigvals(network.matrix)
    return [ResonancePole(c, w, m) for c, w, m in _group_eigenvalues(vals)]


def antiresonances(network: ModeNetwork, drive_label: str) -> list[AntiresonanceZero]:
    """Zeros of the driven-mode response when driving ``drive_label``.

    These are the eigenvalues of the mode matrix with the driven row and
    column deleted, i.e. the complex frequencies of the undriven subnetwork.
    An N-mode network therefore shows N-1 zeros (counted with multiplicity),
    and their widths involve only the decays of the undriven modes.
    """
    i = network.index(drive_label)
    keep = [j for j in range(len(network)) if j != i]
    vals = np.linalg.eigvals(network.matrix[np.ix_(keep, keep)])  # none for one mode
    out = []
    for c, w, m in _group_eigenvalues(vals):
        out.extend([AntiresonanceZero(drive_label, c, w)] * m)
    return out


def cancel_pole_zero_pairs(
    poles: Sequence[ResonancePole],
    zeros: Sequence[AntiresonanceZero],
    tol: float = 1e-9,
) -> tuple[list[ResonancePole], list[AntiresonanceZero]]:
    """Drop pole/zero pairs that coincide within ``tol`` (both center and width).

    A zero sitting exactly on a pole cancels out of the driven response and
    produces no observable feature -- e.g. a decoupled emitter contributes a
    pole and a zero at its own complex frequency.  Reports of *observable*
    structure should use the reduced sets.
    """
    _real("tol", tol, 0.0)  # NaN cancels nothing
    zs = list(zeros)
    out_poles: list[ResonancePole] = []
    for p in poles:
        mult = p.multiplicity
        survivors = []
        for z in zs:
            if mult > 0 and abs(z.center - p.center) <= tol and abs(z.half_width - p.half_width) <= tol:
                mult -= 1
            else:
                survivors.append(z)
        zs = survivors
        if mult > 0:
            out_poles.append(ResonancePole(p.center, p.half_width, mult))
    return out_poles, zs


# ---------------------------------------------------------------------------
# Numeric antiresonance detection
# ---------------------------------------------------------------------------

def _nearest_hits(mask: np.ndarray, i: int) -> tuple[int, int]:
    """Nearest indices strictly left and strictly right of ``i`` where
    ``mask`` holds; -1 and ``mask.size`` stand for no hit on that side."""
    hits = np.flatnonzero(mask)
    k = int(np.searchsorted(hits, i))
    left = int(hits[k - 1]) if k > 0 else -1
    k = int(np.searchsorted(hits, i, side="right"))
    return left, int(hits[k]) if k < hits.size else mask.size


def _prominent_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` whose prominence is >= ``prominence``.

    A flat top counts once, at its middle rounded down; a maximum touching
    either end of ``x`` is no peak; and a peak's prominence is its height
    above the higher of the two lowest samples met walking out on each side
    until a sample is strictly higher than the peak (or the array ends).
    These are the rules of the usual ``find_peaks(x, prominence=...)``.
    """
    if x.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])  # runs of equal samples
    level = x[starts]
    runs = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = []
    for i in (starts[runs] + starts[runs + 1] - 1) // 2:
        lo, hi = _nearest_hits(x > x[i], i)
        if x[i] - max(x[lo + 1 : i + 1].min(), x[i:hi].min()) >= prominence:
            peaks.append(i)
    return np.array(peaks, dtype=np.intp)


def _parabolic_vertex(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Vertex abscissa of the parabola through points i-1, i, i+1."""
    if i <= 0 or i >= len(x) - 1:
        return float(x[i])
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom <= 0.0:
        return float(x[i])
    delta = 0.5 * (y0 - y2) / denom
    return float(x[i] + np.clip(delta, -1.0, 1.0) * (x[i + 1] - x[i]))


def _doubling_halfwidth(probes: np.ndarray, excitation: np.ndarray, i: int) -> float | None:
    """Half-width estimate from the excitation doubling points.

    Near a simple zero ``|a|^2 = B((probe-c)^2 + w^2)``, so the excitation
    reaches twice its dip value one half-width away on either side.  Taking
    the smaller of the two offsets keeps slanted backgrounds from inflating
    the estimate.  Returns None when no sample on either side doubles.
    """
    left, right = _nearest_hits(excitation >= 2.0 * excitation[i], i)
    offsets = []
    if left >= 0:
        offsets.append(probes[i] - probes[left])
    if right < probes.size:
        offsets.append(probes[right] - probes[i])
    return float(min(offsets)) if offsets else None


def _rational_zero_refine(
    probes: np.ndarray,
    column: np.ndarray,
    center0: float,
    width0: float,
    span_factor: float = 2.0,
) -> tuple[float, float] | None:
    """Refine (center, half_width) with a local degree-[2/2] rational fit.

    Within a window of a few half-widths the driven response is accurately
    ``(n0 + n1 x + n2 x^2) / (1 + d1 x + d2 x^2)`` with ``x`` the probe
    offset from the crude center.  Multiplying through by the denominator
    turns this into a *linear* least-squares problem for the five
    coefficients; the zero is the numerator root nearest the window center.
    Exact for two-mode networks, and pole contamination stays quadratic
    rather than biasing the extracted width as interval rules do.
    """
    mask = np.abs(probes - center0) <= span_factor * width0
    if mask.sum() < 7:
        # widen to the 7 nearest grid points so the system stays overdetermined
        idx = np.argsort(np.abs(probes - center0))[:7]
        mask = np.zeros_like(mask)
        mask[idx] = True
    x = probes[mask] - center0
    a = column[mask]
    span = float(np.max(np.abs(x)))
    design = np.column_stack(
        [np.ones_like(a), x.astype(complex), (x * x).astype(complex), -x * a, -(x * x) * a]
    )
    coef, *_ = np.linalg.lstsq(design, a, rcond=None)
    n0, n1, n2 = coef[:3]
    if abs(n2) < 1e-14 * max(abs(n0), abs(n1), 1e-30):
        if abs(n1) == 0.0:
            return None
        root = -n0 / n1
    else:
        roots = np.roots([n2, n1, n0])
        root = roots[np.argmin(np.abs(roots))]
    if not np.isfinite(root) or abs(root) > 2.0 * span or root.imag >= 0.0:
        return None
    return center0 + float(root.real), float(-root.imag)


def _refine_iteratively(
    probes: np.ndarray,
    column: np.ndarray,
    center0: float,
    width0: float,
    step: float,
) -> tuple[float, float] | None:
    """Repeat the rational refinement, re-sizing the window from each result.

    The initial width estimate only has to be the right order of magnitude:
    each pass re-centres the fit window on the previous answer, which walks
    the estimate onto the true zero even when the dip minimum is displaced
    by a sloping background (common in dense networks).
    """
    c, w = center0, max(width0, step)
    best = None
    for _ in range(4):
        ref = _rational_zero_refine(probes, column, c, w)
        if ref is None:
            break
        c_new, w_new = ref
        if not (probes[0] <= c_new <= probes[-1]):
            break
        moved = abs(c_new - c)
        c, w = c_new, max(w_new, 0.5 * step)
        best = (c, w)
        if moved <= 0.02 * max(w, step):
            break
    return best


def detect_antiresonances_numeric(
    spectrum: ComplexSpectrum,
    drive_label: str,
    prominence_db: float = 3.0,
) -> list[AntiresonanceZero]:
    """Locate antiresonance dips in a sampled spectrum of the driven mode.

    Pipeline: dips are candidate minima of the log-magnitude with at least
    ``prominence_db`` of prominence, a dip's prominence being its depth below
    the lower of the two highest levels met walking out on each side until
    the spectrum falls below the dip or the grid ends; each candidate gets a
    parabolic center estimate plus a width seed (the excitation-doubling
    span, or two grid steps when no sample doubles), then both are walked
    onto the zero by an iterated local rational fit of the complex amplitude,
    which re-sizes its own window (see :func:`_refine_iteratively`), so the
    seed need only be the right order of magnitude.  Minima pressed against
    either end of the grid are reported with ``at_boundary=True``, a NaN
    width, and no refinement -- the grid does not contain enough of the
    feature.

    Zeros nearly cancelled by a pole leave sub-prominence wiggles rather
    than dips and are invisible to any magnitude-based detector; callers
    comparing against algebraic zero lists must expect those to be absent.

    The grid should resolve the narrowest expected feature with at least
    ~10 points per half-width; coarser grids degrade the initial estimates
    the refinement starts from.
    """
    _real("prominence_db", prominence_db, 0.0)

    probes = spectrum.probes
    col = spectrum.column(drive_label)
    logmag = 20.0 * np.log10(np.maximum(np.abs(col), _MAG_FLOOR))
    dips = _prominent_peaks(-logmag, prominence_db)

    found: list[AntiresonanceZero] = []
    step = spectrum.grid.step
    excitation = np.abs(col) ** 2
    for i in dips:
        center0 = _parabolic_vertex(probes, logmag, int(i))
        width0 = _doubling_halfwidth(probes, excitation, int(i))
        if width0 is None:
            width0 = 2.0 * step
        refined = _refine_iteratively(probes, col, center0, width0, step)
        if refined is None:
            found.append(AntiresonanceZero(drive_label, center0, width0))
        else:
            found.append(AntiresonanceZero(drive_label, refined[0], refined[1]))

    # A dip bottom cut off by the grid edge: the lowest sample of the scan
    # sits on the boundary AND the phase there falls steeply (the zero's
    # signature -- pole tails and plain rolloff have rising or gentle phase).
    imin = int(np.argmin(logmag))
    if imin in (0, logmag.size - 1):
        slopes = np.gradient(np.unwrap(np.angle(col)), probes)
        if slopes[imin] < -2.0 * float(np.median(np.abs(slopes))):
            edge = AntiresonanceZero(drive_label, float(probes[imin]), math.nan, at_boundary=True)
            found.insert(0 if imin == 0 else len(found), edge)
    return found


# ---------------------------------------------------------------------------
# Sweeps and motional ensemble averaging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MotionEnsemble:
    """Quasi-static motional blur of the emitter modes.

    Each ensemble member rescales every emitter coupling by a single scale
    factor drawn from a Gaussian truncated to ``scale_bounds`` (rejection
    sampling: thermal position spread samples the standing-wave envelope,
    which can only reduce the coupling), and shifts each emitter frequency
    by an independent Gaussian of width ``frequency_jitter`` (residual
    differential light shifts).  Averaging the complex amplitudes over the
    ensemble models a measurement slow compared to the motion.

    Defaults reproduce the phase-swing compression seen on the reference
    emitter/resonator system: full contrast 150 deg reduced to ~140 deg.
    A window the Gaussian reaches with probability below 1e-6 is rejected
    at construction, since rejection sampling could not leave it.
    """

    scale_mean: float = 0.80
    scale_sigma: float = 0.12
    scale_bounds: tuple[float, float] = (0.5, 1.0)
    frequency_jitter: float = 1.0
    samples: int = 512
    seed: int = 2024

    def __post_init__(self) -> None:
        _real("scale_mean", self.scale_mean)
        _real("scale_sigma", self.scale_sigma, 0.0)
        _real("frequency_jitter", self.frequency_jitter, 0.0)
        if len(self.scale_bounds) != 2:
            raise ValueError(f"scale_bounds must hold two numbers, got {self.scale_bounds!r}")
        lo, hi = (_real("scale_bounds", bound) for bound in self.scale_bounds)
        if not (0.0 < lo < hi <= 1.0):
            raise ValueError(
                f"scale_bounds must satisfy 0 < lo < hi <= 1 (a coupling can only be "
                f"reduced), got {self.scale_bounds}"
            )
        object.__setattr__(self, "samples", _count("samples", self.samples, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        if self.scale_sigma > 0.0:
            # the rejection sampler needs ~1/acceptance normal draws per member
            spread = self.scale_sigma * math.sqrt(2.0)
            acceptance = 0.5 * (
                math.erf((hi - self.scale_mean) / spread) - math.erf((lo - self.scale_mean) / spread)
            )
            if not acceptance >= _MIN_ACCEPTANCE:
                raise ValueError(
                    f"scale window {self.scale_bounds} is unreachable from "
                    f"N({self.scale_mean}, {self.scale_sigma}): acceptance "
                    f"{acceptance:.3g} < {_MIN_ACCEPTANCE:g}"
                )

    def _member(self, index: int, emitters: int) -> tuple[float, np.ndarray]:
        """Coupling scale and emitter shifts of member ``index``, drawn from
        ``SeedSequence((seed, index))``: the scale first, then one shift per
        emitter in mode order."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, index)))
        lo, hi = self.scale_bounds
        if self.scale_sigma == 0.0:
            scale = min(max(self.scale_mean, lo), hi)
        else:
            while True:  # rejection sampling of the truncated Gaussian
                scale = rng.normal(self.scale_mean, self.scale_sigma)
                if lo < scale <= hi:
                    break
        if self.frequency_jitter:
            return scale, rng.normal(0.0, self.frequency_jitter, size=emitters)
        return scale, np.zeros(emitters)

    def members(self, network: ModeNetwork) -> tuple[np.ndarray, np.ndarray]:
        """Coupling scales ``(samples,)`` and frequency shifts ``(samples, N)``
        of every member: the member axis of :func:`steady_state_family`."""
        emitter = network.emitter_mask
        emitters = int(emitter.sum())
        scales = np.empty(self.samples)
        shifts = np.zeros((self.samples, len(network)))
        for k in range(self.samples):
            scales[k], shifts[k, emitter] = self._member(k, emitters)
        return scales, shifts

    def draw(self, network: ModeNetwork, index: int) -> ModeNetwork:
        """The ``index``-th perturbed network; deterministic in (seed, index).

        A one-member view of :meth:`members`: every coupling touching an
        emitter is scaled and every emitter frequency shifted.
        """
        emitter = network.emitter_mask
        scale, shifts = self._member(index, int(emitter.sum()))
        touched = emitter[:, None] | emitter[None, :]
        couplings = np.where(touched, scale * network.couplings, network.couplings)
        shift = iter(shifts.tolist())
        modes = tuple(
            replace(m, frequency=m.frequency + next(shift)) if m.kind == "emitter" else m
            for m in network.modes
        )
        return replace(network, modes=modes, couplings=couplings)


def ensemble_mean_family(
    network: ModeNetwork,
    freq_offsets: np.ndarray,
    probes: np.ndarray,
    ensemble: MotionEnsemble | None,
) -> np.ndarray:
    """Ensemble means for ``G`` copies of ``network``, shape ``(G, P, N)``.

    Copy ``g`` offsets every mode frequency by ``freq_offsets[g]`` (shape
    ``(G, N)``) before the members' shifts apply, so all copies share the
    same ensemble draws.  The ensemble is the member axis of one
    :func:`steady_state_family` call, which sums members in order: the
    result is bit-identical to averaging the members one by one.  With no
    ensemble each copy is its one unperturbed member.
    """
    offsets = np.asarray(freq_offsets, dtype=float)
    if ensemble is None:
        return steady_state_family(network, offsets[:, None], np.ones((len(offsets), 1)), probes)
    scales, shifts = ensemble.members(network)
    family_scales = np.broadcast_to(scales, (len(offsets), scales.size))
    return steady_state_family(network, offsets[:, None] + shifts[None], family_scales, probes)


def sweep(
    network: ModeNetwork, grid: ProbeGrid, ensemble: MotionEnsemble | None = None
) -> ComplexSpectrum:
    """Steady-state spectrum of every mode over the grid, averaged over the
    motional ``ensemble`` when one is given."""
    if ensemble is None:
        amps = steady_state_batch(network, grid.frequencies())
    else:
        offsets = np.zeros((1, len(network)))
        amps = ensemble_mean_family(network, offsets, grid.frequencies(), ensemble)[0]
    return ComplexSpectrum(grid=grid, labels=network.labels, amplitudes=amps)


# ---------------------------------------------------------------------------
# Loss localisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossyVerdict:
    label: str
    mean_widths: dict[str, float]
    widths: dict[str, tuple[float, ...]]


def lossy_component_identify(
    network: ModeNetwork,
    candidates: Sequence[str] | None = None,
    *,
    spectra: Mapping[str, ComplexSpectrum] | None = None,
    rel_tol: float = 1e-3,
) -> LossyVerdict:
    """Identify the lossiest mode by driving each candidate in turn.

    The mean antiresonance half-width under drive port p equals the mean
    decay of the *other* modes (the trace of the reduced mode matrix), so it
    is smallest when the lossy mode itself is driven.  Widths come from the
    algebraic zeros of ``network``, or -- when ``spectra`` maps drive labels
    to measured spectra -- from numeric dip detection on those spectra.

    Raises :class:`AmbiguityError` when the runner-up mean width is within
    ``rel_tol`` (relative, ``>= 0``) of the minimum.
    """
    _real("rel_tol", rel_tol, 0.0)  # a negative one ties nothing
    if candidates is None:
        candidates = network.labels
    if len(candidates) < 2:
        raise ValueError("need at least two candidate drive ports to compare")

    widths: dict[str, tuple[float, ...]] = {}
    for label in candidates:
        if spectra is not None:
            if label not in spectra:
                raise KeyError(f"no spectrum supplied for drive port {label!r}")
            zeros = detect_antiresonances_numeric(spectra[label], label)
            ws = tuple(z.half_width for z in zeros if not z.at_boundary)
            if not ws:
                raise ValueError(
                    f"no interior antiresonances detected for drive {label!r}; "
                    "grid too coarse or too narrow"
                )
        else:
            ws = tuple(z.half_width for z in antiresonances(network, label))
            if not ws:
                raise ValueError(f"network has no antiresonances under drive {label!r}")
        widths[label] = ws

    means = {lab: float(np.mean(ws)) for lab, ws in widths.items()}
    ranked = sorted(means, key=means.get)
    best = ranked[0]
    tied = tuple(lab for lab in ranked if means[lab] <= means[best] * (1.0 + rel_tol))
    if len(tied) > 1:
        raise AmbiguityError(tied, means)
    return LossyVerdict(label=best, mean_widths=means, widths=widths)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_spectrum_csv(spectrum: ComplexSpectrum, path: str | Path) -> None:
    """Write the spectrum with all derived channels, one row per probe;
    :func:`read_spectrum_csv` reads the complex amplitudes back exactly."""
    header = ["probe_mhz"]
    for lab in spectrum.labels:
        header += [
            f"{lab}_re",
            f"{lab}_im",
            f"{lab}_magnitude",
            f"{lab}_excitation",
            f"{lab}_phase_unwrapped_rad",
        ]
    cols = [spectrum.probes]
    for lab in spectrum.labels:
        col = spectrum.column(lab)
        cols += [
            col.real,
            col.imag,
            spectrum.magnitude(lab),
            spectrum.excitation(lab),
            spectrum.phase_unwrapped(lab),
        ]
    write_csv(path, header, cols)


def read_spectrum_csv(path: str | Path) -> ComplexSpectrum:
    """Read a spectrum CSV back.  Every row must hold as many fields as the
    header, and ``probe_mhz`` needs 2 or more rows, each within ``_PROBE_TOL``
    steps of the uniform grid from the first probe to the last."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [""])  # an empty file has an unrecognised header
        if header[0] != "probe_mhz" or (len(header) - 1) % 5 != 0:
            raise ValueError(f"unrecognised spectrum CSV header: {header[:6]}...")
        rows = []
        for row in filter(None, reader):  # blank lines skipped
            if len(row) != len(header):
                raise ValueError(f"spectrum CSV line {reader.line_num} holds {len(row)} "
                                 f"fields, its header {len(header)}")
            rows.append([float(v) for v in row])
    if len(rows) < 2:
        raise ValueError(f"probe_mhz must hold at least 2 rows, got {len(rows)}")
    labels = tuple(h[: -len("_re")] for h in header[1::5])
    data = np.asarray(rows)
    probes = data[:, 0]
    grid = ProbeGrid(start=float(probes[0]), stop=float(probes[-1]), points=len(probes))
    off = np.abs(probes - grid.frequencies()).max() / grid.step
    if not off <= _PROBE_TOL:  # NaN probes too
        raise ValueError(f"probe_mhz is not a uniform grid: a probe lies {off:.3g} steps off it")
    amps = np.empty((len(rows), len(labels)), dtype=complex)
    for i in range(len(labels)):
        amps[:, i] = data[:, 1 + 5 * i] + 1j * data[:, 2 + 5 * i]
    return ComplexSpectrum(grid=grid, labels=labels, amplitudes=amps)


def poles_zeros_report(
    poles: Sequence[ResonancePole], zeros: Sequence[AntiresonanceZero]
) -> dict:
    return {
        "poles": [
            {"center_mhz": p.center, "half_width_mhz": p.half_width, "multiplicity": p.multiplicity}
            for p in poles
        ],
        "antiresonances": [
            {
                "drive_label": z.drive_label,
                "center_mhz": z.center,
                "half_width_mhz": None if math.isnan(z.half_width) else z.half_width,
                "at_boundary": z.at_boundary,
            }
            for z in zeros
        ],
    }
