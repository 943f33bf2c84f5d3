"""Exact steady state of a driven mode network (small Hilbert space).

This module is the quantum oracle the linear coupled-mode solver is checked
against.  It solves the Lindblad steady state of the same
:class:`~antires.network.ModeNetwork` the linear core solves -- emitters as
two-level systems, resonators as photon ladders truncated at ``cutoff`` --
and reports moments of the exact state.  In the weak-drive limit every mean
field must approach the coupled-mode amplitude; at finite drive the photon
statistics (g2) distinguish the antiresonance -- where single emitter
excitations block the resonator -- from the hybridised normal modes.

The network's mode matrix ``A = diag(frequency - 1j*decay) + couplings``,
read from :attr:`antires.network.ModeNetwork.matrix` as every linear solve
reads it, and its drive ``d`` are lifted onto the Fock space as

    K = -i (sum_jk A_jk a_j^dag a_k + sum_j (d_j a_j^dag + conj(d_j) a_j))

with collapse operators ``sqrt(2 decay_j) a_j``.  Frequencies are detunings
from the probe, in the rotating frame; all rates are cyclic frequencies in
MHz and decays are amplitude half-widths, as in :mod:`antires.network`.
For the emitter-resonator pair this is the Jaynes-Cummings model that
:class:`JCParams` describes.

Basis rule: an emitter holds at most one excitation, a resonator at most
``cutoff`` photons, and the total at most ``cutoff`` plus the number of
emitters.  States are listed with the first mode slowest (for
:attr:`JCParams.network`: emitter tensor resonator, photon index fastest).

The Liouvillian is never formed as one matrix.  Every density-matrix entry
rho[i, j] carries the excitation difference D = m_i - m_j (total
excitations), and only the drive changes D, by one: couplings and
detunings conserve m, and each decay lowers it on both sides of rho.  So
the Liouvillian is block tridiagonal in D.  The steady state is Hermitian,
so block -D holds the conjugate transposes of block D's entries, and only
the rows of the blocks D >= 0 are written, from the nonzeros of the
operators.  The blocks D = M..1 are eliminated toward D = 0 as a matrix
continued fraction (H. Risken, *The Fokker-Planck Equation*, 2nd ed.,
Springer 1989, ch. 9); the D = -1 side of that fraction is the mirror of
the D = +1 side, with no sweep of its own.  For the pair at photon cutoff
c there are 2c + 3 blocks of at most 4c + 2 entries a side, of which the
c + 2 with D >= 0 are stored; time grows as c^4 and memory as c^3.  On a
2-core VM a pair solve takes about 8 ms with a 3.7 MiB tracemalloc peak
at c = 20, and 55 ms with 25 MiB at the largest allowed cutoff, 40.

Cutoff choice: the population ``P(n = c)`` of a resonator's top level at
cutoff ``c`` measures what the truncation drops.  :func:`lindblad_steady_state`
solves the pair at its starting cutoff and keeps that state once the tail
``c P(n = c) / <n>`` is below a tolerance (1e-4); otherwise it solves once
more at ``ceil(1.5 c)``, up to a largest cutoff (40).

Size guard: before any state is listed, the block sizes are counted from
each mode's excitation histogram.  A network whose largest block would be
over :data:`MAX_BLOCK_SIDE` entries a side (a 64 MiB dense block), or
whose blocks would hold more than :data:`MAX_BLOCK_ENTRIES` entries in
all, is refused with a ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .network import Mode, ModeNetwork, _count, _real, steady_state

# Largest density-matrix block the solver accepts, in entries a side: one
# dense complex block of 2048 x 2048 is 64 MiB.  The pair at cutoff 40 needs 162.
MAX_BLOCK_SIDE = 2048
# Bound on the entries of the diagonal, up and down blocks of every D: 2^24
# complex entries are 256 MiB.  The pair at cutoff 40 counts about 2.2
# million, of which the solver stores the 1.1 million in rows with D >= 0.
MAX_BLOCK_ENTRIES = 2**24


class DensityMatrixError(RuntimeError):
    """Steady-state density matrix violated a validity invariant."""


class CutoffConvergenceError(RuntimeError):
    """The photon tail was still above tolerance at the largest cutoff."""


class GSquaredUndefinedError(ZeroDivisionError):
    """g2 requested for a state with zero mean photon number."""


@dataclass(frozen=True)
class JCParams:
    """Drive and system parameters for the exact solve.

    ``delta_pe`` / ``delta_pr`` are probe detunings from the emitter and the
    resonator in MHz; ``eta`` is the coherent drive amplitude on the
    resonator.  ``cutoff`` is the *starting* photon-number truncation;
    :func:`lindblad_steady_state` raises it 1.5-fold, rounded up, until the
    top photon level holds a negligible share of the mean photon number.
    """

    gamma: float
    kappa: float
    g: float
    delta_pe: float = 0.0
    delta_pr: float = 0.0
    eta: float = 0.1
    cutoff: int = 4

    def __post_init__(self) -> None:
        for name in ("gamma", "kappa"):  # decay rates
            _real(name, getattr(self, name), 0.0, strict=True)
        for name in ("g", "delta_pe", "delta_pr"):
            _real(name, getattr(self, name))
        _real("eta", self.eta, 0.0)  # drive amplitude
        object.__setattr__(self, "cutoff", _count("cutoff", self.cutoff, 1))

    @property
    def network(self) -> ModeNetwork:
        """The pair as a network: atom, then cavity, at frequencies
        ``(-delta_pe, -delta_pr)`` from the probe, driven with ``eta`` on the
        cavity.  The oracle's basis is then emitter tensor resonator."""
        modes = (
            Mode(label="atom", kind="emitter", frequency=-self.delta_pe, decay=self.gamma),
            Mode(label="cavity", kind="resonator", frequency=-self.delta_pr, decay=self.kappa),
        )
        couplings = np.array([[0.0, self.g], [self.g, 0.0]])
        return ModeNetwork(modes=modes, couplings=couplings, drive=np.array([0.0, self.eta]))


@dataclass(frozen=True)
class OracleResult:
    """Field and dipole moments of the exact steady state.

    ``cutoff_delta`` is the photon tail ``c P(n = c) / <n>`` of the state
    solved at ``cutoff_used = c`` -- the truncation-error estimate.
    """

    mean_field: complex
    mean_dipole: complex
    mean_photons: float
    g2: float
    cutoff_used: int
    cutoff_delta: float

    def to_report(self) -> dict:
        return {
            "mean_field_re": self.mean_field.real,
            "mean_field_im": self.mean_field.imag,
            "mean_dipole_re": self.mean_dipole.real,
            "mean_dipole_im": self.mean_dipole.imag,
            "mean_photons": self.mean_photons,
            "g2": self.g2,
            "cutoff_used": self.cutoff_used,
            "cutoff_delta": self.cutoff_delta,
        }


class _Ladders(NamedTuple):
    """Fock basis of one ``(kinds, cutoff)`` and its ladder operators as index maps."""

    counts: np.ndarray  # (dim, n_modes): excitations of each mode in each state
    lower: np.ndarray  # (n_modes, dim): the state a_j takes state i to, -1 if n_j = 0
    upper: np.ndarray  # (n_modes, dim): the state a_j^dag takes state i to, -1 if none


def _block_sides(kinds: tuple[str, ...], cutoff: int) -> np.ndarray:
    """Side of each excitation-difference block, ``D = -M..M``, with no state listed.

    The number of states with ``m`` excitations in all is the convolution of
    the modes' excitation histograms (one count per level), cut at the
    allowed total; block ``D`` pairs states ``D`` excitations apart, so its
    side is that histogram's autocorrelation at lag ``D``.  Raises
    ``ValueError`` past :data:`MAX_BLOCK_SIDE` or :data:`MAX_BLOCK_ENTRIES`.
    """
    top = cutoff + kinds.count("emitter")
    hist = np.ones(1)
    for kind in kinds:
        # a ladder longer than MAX_BLOCK_SIDE fails the check below at any length
        levels = 2 if kind == "emitter" else min(cutoff, MAX_BLOCK_SIDE) + 1
        hist = np.convolve(hist, np.ones(levels))[: top + 1]
        # the D = 0 block is the largest; adding a mode only grows it
        if hist @ hist > MAX_BLOCK_SIDE:
            raise ValueError(
                f"{len(kinds)} modes ({kinds.count('emitter')} emitters) at cutoff {cutoff} "
                f"need density-matrix blocks over {MAX_BLOCK_SIDE} entries a side"
            )
    sides = np.convolve(hist, hist[::-1])
    padded = np.concatenate([[0.0], sides, [0.0]])
    stored = sides @ (padded[:-2] + sides + padded[2:])  # diag, up and down blocks
    if stored > MAX_BLOCK_ENTRIES:
        raise ValueError(
            f"{len(kinds)} modes ({kinds.count('emitter')} emitters) at cutoff {cutoff} "
            f"need {stored:.3g} density-matrix block entries, over {MAX_BLOCK_ENTRIES}"
        )
    return sides


@functools.lru_cache(maxsize=64)
def _ladders(kinds: tuple[str, ...], cutoff: int) -> _Ladders:
    """The states of the basis rule, first mode slowest, and the ladders on them."""
    _block_sides(kinds, cutoff)  # the size guard, before any state is listed
    top = cutoff + kinds.count("emitter")
    levels = [2 if kind == "emitter" else cutoff + 1 for kind in kinds]
    counts = np.zeros((1, 0), dtype=np.intp)
    for n in levels:
        counts = np.column_stack([np.repeat(counts, n, axis=0), np.tile(np.arange(n), len(counts))])
        counts = counts[counts.sum(axis=1) <= top]
    # mixed-radix codes rise in listing order, so a state's index is a binary search
    strides = np.cumprod([1, *levels[:0:-1]])[::-1]
    codes = counts @ strides
    lower = np.searchsorted(codes, codes - strides[:, None])
    lower[counts.T == 0] = -1
    upper = np.full_like(lower, -1)
    modes, states = np.nonzero(lower >= 0)
    upper[modes, lower[modes, states]] = states
    for arr in (counts, lower, upper):  # the cache hands these to every caller
        arr.setflags(write=False)
    return _Ladders(counts, lower, upper)


class _BlockLayout(NamedTuple):
    """``(kinds, cutoff)``-only index structure of the block-tridiagonal Liouvillian.

    Only the rows of the blocks ``D = 0..M`` are stored; the ``D < 0`` half
    of rho is the conjugate transpose of the ``D > 0`` half.
    """

    n_k: int  # number of structural nonzeros of K
    k_slot: np.ndarray  # the nonzero each ladder matrix element of K adds to,
    k_term: np.ndarray  # the coefficient it carries among (A.ravel(), d, conj(d)),
    k_weight: np.ndarray  # and its value
    collapse_amps: tuple[np.ndarray, ...]  # each a_j's nonzeros, sqrt(n_j), in layout order
    src: np.ndarray  # which gathered value feeds each stored Liouvillian nonzero
    target: np.ndarray  # where its real and imaginary parts land in the flat storage
    n_stored: int
    views: tuple  # (start, stop, shape) of the diag, up and down block of each D >= 0
    dim: int  # number of Fock states
    trace_row: int  # position of rho[0, 0] in block D = 0
    trace_cols: np.ndarray  # positions of rho[i, i] in block D = 0
    mirror0: np.ndarray  # position in block D = 0 of each entry's transpose
    mirror1: np.ndarray  # position in block D = -1 of each D = +1 entry's transpose
    order: np.ndarray  # row-major flat index of rho for each D >= 0 entry, by D
    mirror: np.ndarray  # row-major flat index of the transpose of each D > 0 entry


@functools.lru_cache(maxsize=64)
def _block_layout(kinds: tuple[str, ...], cutoff: int) -> _BlockLayout:
    """Where each Liouvillian nonzero of a ``D >= 0`` row lands among the blocks.

    Entry ``rho[i, j]`` (row-major flat index ``i * dim + j``) lies in block
    ``D = m_i - m_j``, at position ``pos`` within it.  Block ``D`` couples to
    itself (diag), to ``D + 1`` (up) and to ``D - 1`` (down); the block
    ``D = M`` at the end gets an empty up block.  Rows of the blocks
    ``D < 0`` are never stored: the steady state is Hermitian, so they
    mirror the ``D > 0`` rows.
    """
    counts, lower, upper = _ladders(kinds, cutoff)
    dim, n_modes = counts.shape
    span = np.arange(dim)

    # K's ladder matrix elements as (row, col, coefficient index, value):
    # a_j^dag a_k takes state i to upper[j, lower[k, i]] for every pair (j, k)
    j, k = np.divmod(np.arange(n_modes * n_modes), n_modes)
    via = lower[k]
    to = np.where(via >= 0, upper[j[:, None], via], -1)
    term, state = np.nonzero(to >= 0)
    to = to[term, state]
    e_rows, e_cols, e_terms = [to], [state], [term]
    e_weights = [np.sqrt(counts[state, k[term]] * counts[to, j[term]])]
    # the drive: d_j a_j^dag and conj(d_j) a_j, each sqrt(n_j) of the higher state
    for offset, ladder in ((n_modes * n_modes, upper), (n_modes * (n_modes + 1), lower)):
        modes, cols = np.nonzero(ladder >= 0)
        rows = ladder[modes, cols]
        e_rows.append(rows)
        e_cols.append(cols)
        e_terms.append(offset + modes)
        e_weights.append(np.sqrt(np.maximum(counts[rows, modes], counts[cols, modes])))
    flat = np.concatenate(e_rows) * dim + np.concatenate(e_cols)
    k_flat, k_slot = np.unique(np.concatenate([span * (dim + 1), flat]), return_inverse=True)
    k_rows, k_cols = np.divmod(k_flat, dim)
    collapse_nonzeros, collapse_amps = [], []
    for mode, ladder in enumerate(lower):
        cols = np.flatnonzero(ladder >= 0)
        collapse_nonzeros.append((ladder[cols], cols))
        collapse_amps.append(np.sqrt(counts[cols, mode]))

    m = counts.sum(axis=1)  # total excitations
    top = int(m.max())
    block = (m[:, None] - m[None, :]).ravel() + top  # D + M, from 0 to 2M
    order = np.argsort(block, kind="stable")
    sizes = np.bincount(block, minlength=2 * top + 1)
    offsets = np.cumsum(sizes) - sizes
    pos = np.empty(dim * dim, dtype=np.intp)
    pos[order] = np.arange(dim * dim) - np.repeat(offsets, sizes)
    transpose = (span[:, None] + span * dim).ravel()  # flat index of rho.T

    # K rho + rho K^dag + sum_j c_j rho c_j^dag as (row, col, value source) triples
    nk = k_rows.size
    rows = [k_rows[:, None] * dim + span, span * dim + k_rows[:, None]]
    cols = [k_cols[:, None] * dim + span, span * dim + k_cols[:, None]]
    src = [np.repeat(np.arange(2 * nk), dim)]
    n_values = 2 * nk
    for c_rows, c_cols in collapse_nonzeros:
        rows.append(c_rows[:, None] * dim + c_rows)
        cols.append(c_cols[:, None] * dim + c_cols)
        src.append(np.arange(n_values, n_values + c_rows.size**2))
        n_values += c_rows.size**2
    row = np.concatenate([r.ravel() for r in rows])
    col = np.concatenate([c.ravel() for c in cols])
    src = np.concatenate(src)
    kept = block[row] >= top  # rows of the blocks D >= 0
    row, col, src = row[kept], col[kept], src[kept]

    n = np.concatenate([sizes[top - 1 :], [0]])  # n_D for D = -1..M + 1
    shapes = [
        (int(side), int(width))
        for widths in (n[1:-1], n[2:], n[:-2])  # diag, up, down
        for side, width in zip(n[1:-1], widths)
    ]
    stops = np.cumsum([p * q for p, q in shapes])
    starts = stops - [p * q for p, q in shapes]
    b_row, b_col = block[row], block[col]
    kind = (b_col - b_row) % 3  # 0 diag, 1 up, 2 down
    nb = top + 1  # blocks D = 0..M
    target = starts[kind * nb + b_row - top] + pos[row] * sizes[b_col] + pos[col]
    # real and imaginary part; the size guard keeps every index below 2^31
    target = (2 * target[:, None] + [0, 1]).ravel().astype(np.int32)
    blocks = tuple(zip(starts.tolist(), stops.tolist(), shapes))
    order = order[offsets[top]:]  # the D >= 0 entries, by D
    n0, n1 = n[1:3]
    layout = _BlockLayout(
        n_k=nk,
        k_slot=k_slot[dim:],
        k_term=np.concatenate(e_terms),
        k_weight=np.concatenate(e_weights),
        collapse_amps=tuple(collapse_amps),
        src=src.astype(np.int32),
        target=target,
        n_stored=int(stops[-1]),
        views=(blocks[:nb], blocks[nb : 2 * nb], blocks[2 * nb :]),
        dim=dim,
        trace_row=int(pos[0]),
        trace_cols=pos[span * (dim + 1)],
        mirror0=pos[transpose[order[:n0]]],
        mirror1=pos[transpose[order[n0 : n0 + n1]]],
        order=order,
        mirror=transpose[order[n0:]],
    )
    # the cache hands these arrays to every caller
    for arr in (layout.k_slot, layout.k_term, layout.k_weight,
                *collapse_amps,
                layout.src, target, layout.trace_cols,
                layout.mirror0, layout.mirror1, order, layout.mirror):
        arr.setflags(write=False)
    return layout


def _fold(diag: list, up: list, down: list) -> list[np.ndarray]:
    """Eliminate the blocks ``D = M..1`` (outermost first) toward ``D = 0``.

    Returns the matrices ``r_D`` with ``x_D = r_D @ x_(D-1)``, ``r_M``
    first: the matrix continued fraction of the ``D > 0`` side.
    """
    folded = []
    for d in range(len(diag) - 1, 0, -1):
        s = diag[d] + up[d] @ folded[-1] if folded else diag[d]
        folded.append(-np.linalg.solve(s, down[d]))
    return folded


def _unfold(folded: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """Back-substitute from the ``D = 0`` block outward, innermost first."""
    out = []
    for r in reversed(folded):
        x = r @ x
        out.append(x)
    return out


def steady_density_matrix(network: ModeNetwork, cutoff: int) -> np.ndarray:
    """Exact steady-state density matrix of ``network`` at a fixed photon cutoff.

    The steady state solves ``K rho + rho K^dag + sum_j c_j rho c_j^dag = 0``
    with ``K`` the lifted mode matrix and drive (module docstring),
    ``c_j = sqrt(2 decay_j) a_j`` and unit trace, on the basis of the module
    docstring's rule.  Give each entry ``rho[i, j]`` the excitation
    difference ``D = m_i - m_j``, where ``m`` counts the excitations of all
    modes.  The detunings, the couplings and the collapse terms keep ``D``;
    only the drive moves it, by one.  So the Liouvillian is block
    tridiagonal in ``D`` from ``-M`` to ``M``, the largest total.  The rows
    of its blocks ``D >= 0`` are filled from the nonzeros of K and of the
    collapse operators, and the blocks ``D = M..1`` are eliminated toward
    ``D = 0``: Risken's matrix continued fraction (*The Fokker-Planck
    Equation*, 2nd ed., ch. 9).  The other side needs no sweep.  rho is
    Hermitian, so the ``D = -1`` fold matrix is the ``D = +1`` one
    conjugated, with its rows and columns re-indexed by the transpose
    ``(i, j) -> (j, i)``.  The trace row replaces the equation for
    ``rho[0, 0]`` in the ``D = 0`` Schur complement; that block is solved
    and written as solved, the blocks ``D > 0`` follow by back-substitution,
    and every ``D < 0`` entry is ``rho[j, i] = conj(rho[i, j])``.  No dense
    Liouvillian is formed.  The returned matrix is checked for hermiticity
    (which tests the solved ``D = 0`` block), unit trace, and positivity (to
    solver precision); violations raise :class:`DensityMatrixError`.  A
    network over the module's size guard raises ``ValueError`` before any
    state is listed.
    """
    if not isinstance(network, ModeNetwork):
        raise TypeError(f"network must be a ModeNetwork (JCParams.network for the pair), "
                        f"got {type(network).__name__}")
    cutoff = _count("cutoff", cutoff, 1)
    layout = _block_layout(tuple(m.kind for m in network.modes), cutoff)
    coeffs = np.concatenate([network.matrix.ravel(), network.drive, network.drive.conj()])
    terms = coeffs[layout.k_term] * layout.k_weight
    lifted = np.bincount(layout.k_slot, terms.real, layout.n_k) + 1j * np.bincount(
        layout.k_slot, terms.imag, layout.n_k)
    k_vals = -1j * lifted
    values = [k_vals, k_vals.conj()]
    for decay, amps in zip(network.decays, layout.collapse_amps):
        vals = math.sqrt(2.0 * decay) * amps
        values.append(np.outer(vals, vals).ravel())
    values = np.concatenate(values)[layout.src]
    # one real bincount over the interleaved (re, im) pairs, viewed back as complex
    stored = np.bincount(layout.target, values.view(float), 2 * layout.n_stored).view(complex)
    diag, up, down = (
        [stored[start:stop].reshape(shape) for start, stop, shape in views]
        for views in layout.views
    )

    above = _fold(diag, up, down)
    below = np.empty_like(above[-1])  # x_(-1) = below @ x_0, by hermiticity
    below[layout.mirror1[:, None], layout.mirror0] = above[-1].conj()
    schur = diag[0] + up[0] @ above[-1] + down[0] @ below
    schur[layout.trace_row] = 0.0
    schur[layout.trace_row, layout.trace_cols] = 1.0
    rhs = np.zeros(schur.shape[0], dtype=complex)
    rhs[layout.trace_row] = 1.0
    x0 = np.linalg.solve(schur, rhs)
    dim = layout.dim
    rho = np.empty(dim * dim, dtype=complex)
    upper = np.concatenate(_unfold(above, x0))
    rho[layout.order] = np.concatenate([x0, upper])
    rho[layout.mirror] = upper.conj()
    rho = rho.reshape(dim, dim)

    herm = np.max(np.abs(rho - rho.conj().T))
    tr = abs(np.trace(rho) - 1.0)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if herm > 1e-10 or tr > 1e-10 or min_eig < -1e-10:
        raise DensityMatrixError(
            f"invalid steady state at cutoff {cutoff}: hermiticity defect {herm:.2e}, "
            f"trace defect {tr:.2e}, min eigenvalue {min_eig:.2e}"
        )
    return rho


def _moments(
    network: ModeNetwork, cutoff: int, mode: int
) -> tuple[np.ndarray, float, float, float]:
    """``<a_j>`` of every mode; ``<n>``, ``<n (n - 1)>`` and ``P(n = cutoff)`` of mode ``mode``."""
    rho = steady_density_matrix(network, cutoff)
    counts, lower, _ = _ladders(tuple(m.kind for m in network.modes), cutoff)
    fields = np.empty(len(network), dtype=complex)
    for j, lowered in enumerate(lower):  # tr(rho a_j)
        ok = np.flatnonzero(lowered >= 0)
        fields[j] = np.sqrt(counts[ok, j]) @ rho[ok, lowered[ok]]
    pops = rho.diagonal().real
    n = counts[:, mode]
    top = float(pops[n == cutoff].sum())
    return fields, float(pops @ n), float(pops @ (n * (n - 1))), top


def lindblad_steady_state(
    params: JCParams, rel_tol: float = 1e-4, max_cutoff: int = 40
) -> OracleResult:
    """Field moments at a photon cutoff chosen from the state's own tail.

    Each rung solves once at cutoff ``c``, starting from ``params.cutoff``.
    The population ``P(n = c)`` of the top photon level measures what the
    truncation drops, so the rung is kept once the tail ``c P(n = c) / <n>``
    is below ``rel_tol``; otherwise the next rung is at
    ``min(ceil(1.5 c), max_cutoff)``.  Raises
    :class:`CutoffConvergenceError` if the rung at ``max_cutoff`` still
    fails, and :class:`GSquaredUndefinedError` when the kept state holds no
    photons, or so few that ``<n>^2`` underflows (g2 has no meaning, or no
    float value, there).
    """
    max_cutoff = _count("max_cutoff", max_cutoff, params.cutoff + 1)  # above the start
    _real("rel_tol", rel_tol, 0.0, strict=True)  # <= 0 never converges; inf checks nothing
    network = params.network
    cavity = network.index("cavity")
    cutoff = params.cutoff
    while True:
        fields, n, n2, top = _moments(network, cutoff, cavity)
        tail = cutoff * abs(top) / max(n, np.finfo(float).tiny)
        if tail < rel_tol:
            break
        if cutoff == max_cutoff:
            raise CutoffConvergenceError(
                f"truncation tail c P(n = c) / <n> still {tail:.3e} at cutoff {max_cutoff}"
            )
        cutoff = min(math.ceil(1.5 * cutoff), max_cutoff)
    if n <= 0.0 or n * n == 0.0:  # n^2 underflows below about 1e-162 photons
        raise GSquaredUndefinedError(
            f"steady state holds {n:.3g} photons (eta = 0?), too few for g2; g2 is undefined"
        )
    return OracleResult(
        mean_field=complex(fields[cavity]),
        mean_dipole=complex(fields[network.index("atom")]),
        mean_photons=n,
        g2=n2 / (n * n),
        cutoff_used=cutoff,
        cutoff_delta=tail,
    )


@dataclass(frozen=True)
class LinearLimitReport:
    """Weak-drive comparison of the exact solver against the linear model.

    ``deviations[i]`` is the relative difference between the exact mean
    field and the coupled-mode amplitude at ``eta = eta_over_kappa[i] *
    kappa``, in input order.  Driving weaker must push the exact solution
    onto the linear one, so ``monotone`` asks whether the deviations fall
    from the strongest drive to the weakest.
    """

    eta_over_kappa: tuple[float, ...]
    deviations: tuple[float, ...]
    monotone: bool
    max_deviation: float
    min_deviation: float

    def to_report(self) -> dict:
        return {
            "eta_over_kappa": list(self.eta_over_kappa),
            "relative_deviations": list(self.deviations),
            "monotone_decreasing": self.monotone,
            "max_deviation": self.max_deviation,
            "min_deviation": self.min_deviation,
        }


def linear_limit_check(
    params: JCParams,
    eta_over_kappa: tuple[float, ...] = (0.3, 0.1, 0.03, 0.01),
) -> LinearLimitReport:
    """Deviation of the exact mean field from the linear coupled-mode amplitude.

    The linear prediction is the cavity amplitude that
    :func:`~antires.network.steady_state` gives for the same network,
    driven with ``eta``, at probe 0 (its frequencies are already detunings
    from the probe).
    """
    if not eta_over_kappa:
        raise ValueError("eta_over_kappa must list at least one drive ratio")
    for ratio in eta_over_kappa:  # all checked before any solve
        _real("eta/kappa ratios", ratio, 0.0, strict=True)
    devs = []
    for ratio in eta_over_kappa:
        run = replace(params, eta=ratio * params.kappa)
        exact = lindblad_steady_state(run).mean_field
        network = run.network
        linear = steady_state(network, 0.0).amplitudes[network.index("cavity")]
        devs.append(abs(exact - linear) / abs(linear))
    # judged from the strongest drive down, whatever the input order, with
    # slack for solver roundoff so equal-to-machine deviations still count
    ordered = [devs[k] for k in np.argsort(eta_over_kappa)[::-1]]
    monotone = all(b <= a * (1.0 + 1e-6) + 1e-12 for a, b in zip(ordered, ordered[1:]))
    return LinearLimitReport(
        eta_over_kappa=tuple(float(r) for r in eta_over_kappa),
        deviations=tuple(float(d) for d in devs),
        monotone=monotone,
        max_deviation=float(max(devs)),
        min_deviation=float(min(devs)),
    )
