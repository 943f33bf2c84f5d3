"""Nonlinear least squares and the phase-profile / calibration fits built on it.

The solver is a plain Levenberg-Marquardt loop with a numeric Jacobian --
small, dependency-free, and instrumented: every iteration is recorded in a
trace (cost, damping, step norm) so a failed fit can be diagnosed from the
raised exception instead of rerun under a debugger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .network import _real

MIN_ARCTAN_POINTS = 6  # fewest scan points fit_arctan_phase fits: its 5 parameters + 1


class FitConvergenceError(RuntimeError):
    """Fit failed to converge; carries the partial result and its trace."""

    def __init__(self, message: str, result: "FitResult"):
        super().__init__(message)
        self.result = result


class RankDeficiencyError(RuntimeError):
    """The normal equations are singular (unidentifiable parameters)."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of a Levenberg-Marquardt run.

    ``stderr`` entries are NaN when the covariance is unavailable (singular
    final normal equations).  ``trace`` holds one dict per iteration with
    keys ``iteration``, ``cost``, ``lambda``, ``step_norm``.
    """

    model: str
    params: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    trace: tuple[dict, ...]

    def to_report(self) -> dict:
        return {
            "model": self.model,
            "parameters": [float(p) for p in self.params],
            "standard_errors": [float(s) for s in self.stderr],
            "residual_norm": float(self.residual_norm),
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _numeric_jacobian(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    params: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Central-difference Jacobian d model / d params, shape (npts, npar)."""
    npar = params.size
    jac = np.empty((x.size, npar))
    for i in range(npar):
        h = 1e-6 * max(abs(params[i]), 1.0)
        lo, hi = params.copy(), params.copy()
        lo[i] -= h
        hi[i] += h
        jac[:, i] = (model(hi, x) - model(lo, x)) / (2.0 * h)
    return jac


def fit_nlls(
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    p0: Sequence[float],
    x: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    model_name: str = "custom",
    max_iter: int = 200,
    tol: float = 1e-10,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FitResult:
    """Levenberg-Marquardt fit of ``model(params, x)`` to ``y``.

    The damping parameter starts at 1e-3, is divided by 10 on every
    accepted step and multiplied by 10 on every rejected one.  Convergence
    requires both the relative step size and the relative cost decrease to
    drop below ``tol``.  ``weights`` multiply the residuals (1/sigma);
    without weights the covariance is scaled by the reduced chi-square.
    ``project``, if given, maps each trial parameter vector back into the
    feasible set before evaluation (used for hard bounds like sigma > 0).

    Raises
    ------
    FitConvergenceError
        After ``max_iter`` iterations without meeting the tolerance; the
        exception carries the best-so-far :class:`FitResult` with its trace.
    RankDeficiencyError
        When the damped normal equations are singular, which signals an
        unidentifiable parameterisation rather than a bad starting point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    if project is not None:
        p = np.asarray(project(p), dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be positive, finite, and match the data shape")

    def cost_of(params: np.ndarray) -> tuple[float, np.ndarray]:
        r = w * (y - model(params, x))
        return float(r @ r), r

    cost, resid = cost_of(p)
    lam = 1e-3
    trace: list[dict] = []
    converged = False
    it = 0

    for it in range(1, max_iter + 1):
        jac = w[:, None] * _numeric_jacobian(model, p, x)
        jtj = jac.T @ jac
        grad = jac.T @ resid
        diag = np.diagonal(jtj).copy()
        if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
            raise RankDeficiencyError(
                f"model is insensitive to parameter(s) {np.where(diag <= 0.0)[0].tolist()} "
                f"at iteration {it}"
            )

        accepted = False
        step = np.zeros_like(p)
        while lam < 1e14:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError as exc:
                raise RankDeficiencyError("singular damped normal equations") from exc
            p_try = p + step
            if project is not None:
                p_try = np.asarray(project(p_try), dtype=float)
            cost_try, resid_try = cost_of(p_try)
            if np.isfinite(cost_try) and cost_try <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # damping exhausted without any downhill step: we are at a
            # (possibly noisy) minimum already
            trace.append({"iteration": it, "cost": cost, "lambda": lam, "step_norm": 0.0})
            converged = True
            break

        step_used = p_try - p
        rel_step = float(np.linalg.norm(step_used) / (np.linalg.norm(p) + tol))
        rel_drop = (cost - cost_try) / max(cost, np.finfo(float).tiny)
        p, cost, resid = p_try, cost_try, resid_try
        lam = max(lam / 10.0, 1e-14)
        trace.append(
            {"iteration": it, "cost": cost, "lambda": lam, "step_norm": float(np.linalg.norm(step_used))}
        )
        if (rel_step < tol and rel_drop < tol) or cost == 0.0:
            converged = True
            break

    jac = w[:, None] * _numeric_jacobian(model, p, x)
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
        if weights is None:
            dof = max(y.size - p.size, 1)
            cov = cov * (cost / dof)
        stderr = np.sqrt(np.maximum(np.diagonal(cov), 0.0))
    except np.linalg.LinAlgError:
        cov = np.full((p.size, p.size), np.nan)
        stderr = np.full(p.size, np.nan)

    result = FitResult(
        model=model_name,
        params=p,
        cov=cov,
        stderr=stderr,
        residual_norm=math.sqrt(cost),
        iterations=it,
        converged=converged,
        trace=tuple(trace),
    )
    if not converged:
        raise FitConvergenceError(
            f"no convergence after {max_iter} iterations (cost {cost:.6g}); "
            "see exception.result.trace",
            result,
        )
    return result


# ---------------------------------------------------------------------------
# Arctangent phase profile
# ---------------------------------------------------------------------------

# the fit's parameters in fit order; also the keys of its report's dicts
ARCTAN_PARAMETERS = ("center", "width", "swing_deg", "offset_deg", "tilt_deg_per_unit")


@dataclass(frozen=True)
class ArctanPhaseFit:
    """Fitted dispersive phase step phi(x) = offset - (swing/pi)*atan((x-center)/width) [+ tilt*(x-center)].

    ``result`` is the Levenberg-Marquardt run, trace and covariance
    included.  ``parameters`` and ``standard_errors`` name its entries by
    ``ARCTAN_PARAMETERS``; the tilt is there only when it was fitted.  All
    phases are in degrees, center and width in the units of the fit axis.
    ``span_deg`` is the peak-to-peak of the fitted curve evaluated on the
    data grid -- the directly observable phase contrast, which is smaller
    than the asymptotic swing on any finite scan.
    """

    result: FitResult
    span_deg: float
    warnings: tuple[str, ...] = ()

    @property
    def parameters(self) -> dict[str, float]:
        return dict(zip(ARCTAN_PARAMETERS, map(float, self.result.params)))

    @property
    def standard_errors(self) -> dict[str, float]:
        return dict(zip(ARCTAN_PARAMETERS, map(float, self.result.stderr)))

    def to_report(self) -> dict:
        return {
            **self.result.to_report(),
            "parameters": self.parameters,
            "standard_errors": self.standard_errors,
            "span_deg": self.span_deg,
            "warnings": list(self.warnings),
        }


def fit_arctan_phase(
    x: np.ndarray,
    phase_deg: np.ndarray,
    *,
    background: str = "none",
) -> ArctanPhaseFit:
    """Fit a dispersive arctangent step to an unwrapped phase profile.

    ``x`` must be strictly monotone with ``MIN_ARCTAN_POINTS`` or more points.  With
    ``background="linear"`` a tilt term absorbs the slow phase slope that
    neighbouring broad features superimpose on the step; on scans whose
    window is only a few tens of widths wide this correction is what keeps
    the width estimate unbiased.

    A warning string is attached (not raised) when the phase is not
    monotone within one initial width of the step center, since the model
    cannot represent interior wiggles.
    """
    x = np.asarray(x, dtype=float)
    phase = np.asarray(phase_deg, dtype=float)
    if x.ndim != 1 or x.shape != phase.shape:
        raise ValueError("x and phase must be 1-D arrays of equal length")
    if x.size < MIN_ARCTAN_POINTS:
        raise ValueError(f"need at least {MIN_ARCTAN_POINTS} points to fit, got {x.size}")
    dx = np.diff(x)
    if not (np.all(dx > 0.0) or np.all(dx < 0.0)):
        raise ValueError("fit axis must be strictly monotone")
    if background not in ("none", "linear"):
        raise ValueError(f"background must be 'none' or 'linear', got {background!r}")
    if dx[0] < 0:  # work on an ascending axis
        x, phase = x[::-1].copy(), phase[::-1].copy()

    span_x = x[-1] - x[0]
    # initial estimates: step center at the steepest slope of a lightly
    # smoothed copy, width from the quarter-swing bracket around it
    kernel = np.ones(min(5, x.size)) / min(5, x.size)
    smooth = np.convolve(phase, kernel, mode="same")
    total = float(smooth[0] - smooth[-1])
    falling = total >= 0.0
    mono = smooth if falling else -smooth  # treat as a falling step either way
    i0 = int(np.argmin(np.gradient(mono, x)))
    center0 = float(x[i0])
    swing_mag = abs(total) if abs(total) > 1.0 else float(np.ptp(phase))
    swing0 = swing_mag if falling else -swing_mag
    offset0 = float(np.interp(center0, x, smooth))
    m0 = float(np.interp(center0, x, mono))
    below = np.nonzero((x > center0) & (mono <= m0 - 0.25 * swing_mag))[0]
    above = np.nonzero((x < center0) & (mono >= m0 + 0.25 * swing_mag))[0]
    right = float(x[below[0]]) if below.size else float(x[-1])
    left = float(x[above[-1]]) if above.size else float(x[0])
    width0 = max((right - left) / 2.0, span_x / (4.0 * x.size))

    w_floor = span_x * 1e-9

    def project(p: np.ndarray) -> np.ndarray:
        q = p.copy()
        q[1] = max(abs(q[1]), w_floor)
        return q

    def model(p: np.ndarray, t: np.ndarray) -> np.ndarray:
        c, w, s, o, *tilt = p
        phase = o - (s / math.pi) * np.arctan((t - c) / w)
        return phase + tilt[0] * (t - c) if tilt else phase

    p0 = [center0, width0, swing0, offset0] + ([0.0] if background == "linear" else [])
    result = fit_nlls(model, p0, x, phase, model_name="arctan_phase", project=project)

    warnings: list[str] = []
    core = np.abs(x - result.params[0]) <= max(result.params[1], width0)
    if core.sum() >= 3:
        dphi = np.diff(phase[core])
        if np.any(dphi > 0.0) and np.any(dphi < 0.0):
            warnings.append(
                "phase is not monotone within one width of the step center; "
                "the arctangent model cannot represent interior structure"
            )

    curve = model(result.params, x)
    return ArctanPhaseFit(result, float(np.ptp(curve)), tuple(warnings))


# ---------------------------------------------------------------------------
# Stark calibration: drive power -> induced detuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarkCalibration:
    """Affine map detuning_mhz = slope * power_nw + intercept."""

    slope: float
    intercept: float
    residuals: tuple[float, ...]
    points: tuple[tuple[float, float], ...]

    def power_to_detuning(self, power_nw: np.ndarray | float) -> np.ndarray | float:
        return self.slope * np.asarray(power_nw, dtype=float) + self.intercept

    def to_report(self) -> dict:
        return {
            "model": "stark_affine",
            "slope_mhz_per_nw": self.slope,
            "intercept_mhz": self.intercept,
            "residuals_mhz": list(self.residuals),
            "points": [{"power_nw": p, "detuning_mhz": d} for p, d in self.points],
        }


def stark_calibration(points: Sequence[tuple[float, float]]) -> StarkCalibration:
    """Least-squares affine fit of (power_nw, detuning_mhz) calibration points."""
    pts = tuple(
        (float(_real("calibration power_nw", p)), float(_real("calibration detuning_mhz", d)))
        for p, d in points
    )
    if len(pts) < 2:
        raise ValueError(f"need at least 2 calibration points, got {len(pts)}")
    powers = np.array([p for p, _ in pts])
    detunings = np.array([d for _, d in pts])
    if np.unique(powers).size < 2:
        raise RankDeficiencyError("all calibration points share one power; slope undefined")
    design = np.column_stack([powers, np.ones_like(powers)])
    coef, *_ = np.linalg.lstsq(design, detunings, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = tuple(float(d - (slope * p + intercept)) for p, d in pts)
    return StarkCalibration(slope=slope, intercept=intercept, residuals=resid, points=pts)
