"""Exact steady state of the driven emitter-resonator pair (small Hilbert space).

This module is the quantum oracle the linear coupled-mode solver is checked
against.  It builds the full Liouvillian of one two-level emitter coupled to
one driven resonator mode truncated at ``cutoff`` photons, solves the
steady state exactly, and reports field moments.  In the weak-drive limit
the mean field must approach the coupled-mode prediction; at finite drive
the photon statistics (g2) distinguish the antiresonance -- where single
emitter excitations block the resonator -- from the hybridised normal modes.

The Liouvillian is dense, (2(c+1))^2 square at photon cutoff c, and is
written in place into one preallocated matrix from the nonzeros of the
operators, with no Kronecker-product temporaries.  A solve therefore holds
one 16 (2(c+1))^4-byte matrix plus LAPACK's copy of it: about 0.72 GB each
at the largest allowed cutoff, 40.

Conventions match :mod:`antires.network`: all rates are cyclic frequencies
in MHz, decays are amplitude half-widths (resonator field decay kappa,
emitter dipole decay gamma), so the collapse operators carry ``sqrt(2 rate)``.
The rotating-frame Hamiltonian for probe detunings ``d_pe`` (emitter) and
``d_pr`` (resonator) is

    H = -d_pr * n_r - d_pe * n_e + g (a sp + ad sm) + eta (a + ad)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class DensityMatrixError(RuntimeError):
    """Steady-state density matrix violated a validity invariant."""


class CutoffConvergenceError(RuntimeError):
    """Photon-number cutoff escalation did not converge."""


class GSquaredUndefinedError(ZeroDivisionError):
    """g2 requested for a state with zero mean photon number."""


@dataclass(frozen=True)
class JCParams:
    """Drive and system parameters for the exact solve.

    ``delta_pe`` / ``delta_pr`` are probe detunings from the emitter and the
    resonator in MHz; ``eta`` is the coherent drive amplitude on the
    resonator.  ``cutoff`` is the *starting* photon-number truncation;
    solves escalate it automatically until the mean photon number is stable.
    """

    gamma: float
    kappa: float
    g: float
    delta_pe: float = 0.0
    delta_pr: float = 0.0
    eta: float = 0.1
    cutoff: int = 4

    def __post_init__(self) -> None:
        for name in ("gamma", "kappa"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"decay rate {name} must be finite and positive, got {value}")
        for name in ("g", "delta_pe", "delta_pr", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.eta < 0.0:
            raise ValueError("drive amplitude eta must be non-negative")
        if isinstance(self.cutoff, bool) or not isinstance(self.cutoff, int) or self.cutoff < 1:
            raise ValueError(f"cutoff must be an integer >= 1, got {self.cutoff!r}")


@dataclass(frozen=True)
class OracleResult:
    """Field and dipole moments of the exact steady state.

    ``cutoff_delta`` is the relative change of the mean photon number in the
    final cutoff escalation step -- the truncation-error estimate.
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


def _operators(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Resonator annihilation and emitter lowering operators on the joint space.

    Basis ordering: emitter (2 levels) tensor resonator (cutoff+1 levels).
    """
    nf = cutoff + 1
    a_f = np.diag(np.sqrt(np.arange(1, nf)), k=1)
    sm_2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = np.kron(np.eye(2), a_f)
    sm = np.kron(sm_2, np.eye(nf))
    return a, sm


def steady_density_matrix(params: JCParams, cutoff: int) -> np.ndarray:
    """Exact steady-state density matrix at a fixed photon cutoff.

    The Liouvillian of the column-stacked ``vec(rho)`` is

        L = I (x) K + conj(K) (x) I + sum_c conj(c) (x) c,
        K = -i H - 1/2 sum_c c^dag c,

    and is assembled in place in one preallocated ``(dim^2, dim^2)`` matrix:
    K and conj(K) go onto the block diagonals of its four-index view, and
    each collapse operator adds the outer product of its few nonzeros.  The
    steady state is extracted by overwriting the first row with the trace
    constraint and making one dense solve.  Peak memory is that one
    16 dim^4-byte matrix plus LAPACK's working copy of it (0.72 GB each at
    cutoff 40).  The returned matrix is checked for hermiticity, unit trace,
    and positivity (to solver precision); violations raise
    :class:`DensityMatrixError`.
    """
    a, sm = _operators(cutoff)
    ad, sp = a.conj().T, sm.conj().T
    h = (
        -params.delta_pr * (ad @ a)
        - params.delta_pe * (sp @ sm)
        + params.g * (ad @ sm + a @ sp)
        + params.eta * (a + ad)
    )
    collapse = [math.sqrt(2.0 * params.kappa) * a, math.sqrt(2.0 * params.gamma) * sm]
    k_eff = -1j * h
    for c in collapse:
        k_eff -= 0.5 * (c.conj().T @ c)

    dim = h.shape[0]
    liouville = np.zeros((dim * dim, dim * dim), dtype=complex)
    # blocks[j, i, l, k] is the rate at which rho[k, l] feeds rho[i, j]
    blocks = liouville.reshape(dim, dim, dim, dim)
    k_conj = k_eff.conj()
    for d in range(dim):
        blocks[d, :, d, :] += k_eff
        blocks[:, d, :, d] += k_conj
    for c in collapse:
        # distinct nonzeros give distinct index pairs, so the fancy += is exact
        rows, cols = np.nonzero(c)
        vals = c[rows, cols]
        blocks[rows[:, None], rows, cols[:, None], cols] += np.outer(vals.conj(), vals)

    liouville[0, :] = 0.0
    liouville[0, np.arange(dim) * dim + np.arange(dim)] = 1.0  # trace row
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(liouville, rhs).reshape(dim, dim).T

    herm = np.max(np.abs(rho - rho.conj().T))
    tr = abs(np.trace(rho) - 1.0)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if herm > 1e-10 or tr > 1e-10 or min_eig < -1e-10:
        raise DensityMatrixError(
            f"invalid steady state at cutoff {cutoff}: hermiticity defect {herm:.2e}, "
            f"trace defect {tr:.2e}, min eigenvalue {min_eig:.2e}"
        )
    return rho


def _moments(params: JCParams, cutoff: int) -> tuple[complex, complex, float, float]:
    rho = steady_density_matrix(params, cutoff)
    a, sm = _operators(cutoff)
    ad = a.conj().T
    mean_field = complex(np.trace(rho @ a))
    mean_dipole = complex(np.trace(rho @ sm))
    n = float(np.real(np.trace(rho @ (ad @ a))))
    n2 = float(np.real(np.trace(rho @ (ad @ ad @ a @ a))))
    return mean_field, mean_dipole, n, n2


def lindblad_steady_state(
    params: JCParams, rel_tol: float = 1e-3, max_cutoff: int = 40
) -> OracleResult:
    """Field moments with automatic photon-cutoff escalation.

    The cutoff is raised one photon at a time until the mean photon number
    changes by less than ``rel_tol`` (relative); the converged step's finer
    solve is returned.  Raises :class:`CutoffConvergenceError` if
    ``max_cutoff`` is reached first and :class:`GSquaredUndefinedError` when
    the converged state holds no photons (g2 has no meaning there).
    """
    if params.cutoff >= max_cutoff:
        raise ValueError(f"starting cutoff {params.cutoff} must be below max_cutoff {max_cutoff}")
    cutoff = params.cutoff
    field, dipole, n, n2 = _moments(params, cutoff)
    delta = math.inf
    while cutoff < max_cutoff:
        field_hi, dipole_hi, n_hi, n2_hi = _moments(params, cutoff + 1)
        delta = abs(n_hi - n) / max(abs(n_hi), np.finfo(float).tiny)
        field, dipole, n, n2 = field_hi, dipole_hi, n_hi, n2_hi
        cutoff += 1
        if delta < rel_tol:
            break
    else:
        raise CutoffConvergenceError(
            f"mean photon number still changing by {delta:.3e} (rel) at cutoff {max_cutoff}"
        )
    if n <= 0.0:
        raise GSquaredUndefinedError(
            "steady state holds no photons (eta = 0?); g2 is undefined"
        )
    return OracleResult(
        mean_field=field,
        mean_dipole=dipole,
        mean_photons=n,
        g2=n2 / (n * n),
        cutoff_used=cutoff,
        cutoff_delta=delta,
    )


@dataclass(frozen=True)
class LinearLimitReport:
    """Weak-drive comparison of the exact solver against the linear model.

    ``deviations[i]`` is the relative difference between the exact mean
    field and the coupled-mode amplitude at ``eta = eta_over_kappa[i] *
    kappa``; driving weaker must push the exact solution onto the linear
    one, so the sequence should fall monotonically.
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

    The linear prediction is evaluated with drive ``eta`` on the resonator:
    ``eta (d_pe + i gamma) / ((d_pe + i gamma)(d_pr + i kappa) - g^2)``.
    """
    from .network import closed_form_two_mode

    devs = []
    for ratio in eta_over_kappa:
        if ratio <= 0.0:
            raise ValueError("eta/kappa ratios must be positive")
        eta = ratio * params.kappa
        run = replace(params, eta=eta)
        exact = lindblad_steady_state(run).mean_field
        linear = closed_form_two_mode(
            params.delta_pe, params.delta_pr, params.gamma, params.kappa, params.g, eta
        )
        devs.append(abs(exact - linear) / abs(linear))
    # slack for solver roundoff so equal-to-machine deviations still count
    monotone = all(
        devs[i + 1] <= devs[i] * (1.0 + 1e-6) + 1e-12 for i in range(len(devs) - 1)
    )
    return LinearLimitReport(
        eta_over_kappa=tuple(float(r) for r in eta_over_kappa),
        deviations=tuple(float(d) for d in devs),
        monotone=monotone,
        max_deviation=float(max(devs)),
        min_deviation=float(min(devs)),
    )
