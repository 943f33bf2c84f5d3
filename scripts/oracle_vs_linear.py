#!/usr/bin/env python3
"""Exact quantum steady state vs the linear coupled-mode model.

Two quick experiments on the emitter-resonator pair:

1. drive-strength ladder: relative deviation of the exact mean field from
   the linear amplitude, which must shrink as the drive weakens;
2. probe scan of g2(0) across the antiresonance, where photon statistics
   turn strongly super-Poissonian even though the mean field just dips.

    python3 scripts/oracle_vs_linear.py --probe-points 9
"""

import argparse
from dataclasses import replace

import numpy as np

from antires.network import _count
from antires.oracle import JCParams, lindblad_steady_state, linear_limit_check
from antires.spectra import resonances


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gamma", type=float, default=3.0)
    ap.add_argument("--kappa", type=float, default=1.5)
    ap.add_argument("--coupling", type=float, default=16.0)
    ap.add_argument("--probe-points", type=int, default=9)
    args = ap.parse_args()
    try:
        _count("--probe-points", args.probe_points, 1)
    except ValueError as exc:
        ap.error(str(exc))

    base = JCParams(gamma=args.gamma, kappa=args.kappa, g=args.coupling, cutoff=4)

    ratios = (1.0, 0.3, 0.1, 0.03, 0.01)
    limit = linear_limit_check(base, ratios)
    print("drive ladder (eta/kappa -> |exact - linear| / |linear|):")
    for r, d in zip(limit.eta_over_kappa, limit.deviations):
        print(f"  {r:5.2f}  {d:.3e}")
    print(f"monotone decreasing: {limit.monotone}")

    # probe through the antiresonance at weak drive; both detunings move
    # together because emitter and resonator are degenerate here
    eta = 0.01 * args.kappa
    mode_centers = sorted(p.center for p in resonances(base.network))
    probes = np.linspace(-1.5, 1.5, args.probe_points)
    print(f"\ng2(0) across the antiresonance (normal modes at "
          f"{', '.join(f'{c:.2f}' for c in mode_centers)} MHz):")
    print(f"{'probe':>7} {'<n>':>11} {'g2(0)':>11} {'cutoff':>7}")
    for p in probes:
        res = lindblad_steady_state(replace(base, delta_pe=float(p), delta_pr=float(p), eta=eta))
        print(f"{p:7.2f} {res.mean_photons:11.3e} {res.g2:11.4f} {res.cutoff_used:7d}")
    for p in mode_centers:
        res = lindblad_steady_state(replace(base, delta_pe=float(p), delta_pr=float(p), eta=eta))
        print(f"{p:7.2f} {res.mean_photons:11.3e} {res.g2:11.4f} {res.cutoff_used:7d}  (normal mode)")


if __name__ == "__main__":
    main()
