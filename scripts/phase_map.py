#!/usr/bin/env python3
"""Quick-look phase map: driven-mode response vs (emitter detuning, probe).

Sweeps the emitter across the resonator line and records the driven
resonator's phase on a probe grid, then prints where the antiresonance
lands on each row against the bare-emitter prediction.  Writes the full
map to CSV for plotting elsewhere.

    python3 scripts/phase_map.py --rows 17 --out phase_map.csv
"""

import argparse

import numpy as np

from antires.network import ProbeGrid
from antires.output import write_csv
from antires.presets import emitter_resonator
from antires.spectra import antiresonances, detect_antiresonances_numeric, sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=17, help="number of detuning rows")
    ap.add_argument("--span", type=float, default=20.0, help="detuning range +/- MHz")
    ap.add_argument("--out", default="phase_map.csv")
    args = ap.parse_args()

    grid = ProbeGrid(-30.0, 30.0, 601)
    detunings = np.linspace(-args.span, args.span, args.rows)

    print(f"{'detuning':>9} {'zero (alg)':>11} {'zero (fit)':>11} {'width':>8}")
    phases, mags = [], []
    for d in detunings:
        # emitter frequency is -d so that positive detuning pulls the
        # zero to negative probe frequencies, matching the scan2d CLI
        net = emitter_resonator(delta_er=-float(d))
        spectrum = sweep(net, grid)
        col = spectrum.amplitudes[:, net.index("cavity")]
        phase = np.degrees(np.unwrap(np.angle(col)))
        phase -= phase[0]
        phases.append(phase)
        mags.append(np.abs(col))

        (alg,) = antiresonances(net, "cavity")
        detected = detect_antiresonances_numeric(spectrum, "cavity")
        fit_c = detected[0].center if detected else float("nan")
        fit_w = detected[0].half_width if detected else float("nan")
        print(f"{d:9.2f} {alg.center:11.3f} {fit_c:11.3f} {fit_w:8.3f}")

    write_csv(
        args.out,
        ["detuning_mhz", "probe_mhz", "phase_deg", "magnitude"],
        [np.repeat(detunings, grid.points), np.tile(grid.frequencies(), args.rows),
         np.ravel(phases), np.ravel(mags)],
    )
    print(f"wrote {args.out} ({args.rows} rows x {grid.points} probe points)")


if __name__ == "__main__":
    main()
