#!/usr/bin/env python3
"""Tail convergence of the scaled gas profile toward the interior fixed point.

Integrates to a large radius, fits the decay exponent of |v1 - v1*| over the
outermost decade, and tabulates the oscillatory deviation at a few radii.
The approach is a damped spiral: the deviation envelope shrinks like a small
negative power of r while the sign keeps flipping, so pointwise deviations at
moderate radii remain a few percent.
"""

import argparse
import math
import sys

from lanemden import (
    StarConfig,
    fixed_points,
    gas_read,
    jacobian_spectrum,
    profile_to_phase,
    tail_convergence_rate,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--gamma", type=float, default=1.1)
    parser.add_argument("--rmax", type=float, default=1e3)
    args = parser.parse_args()

    run = gas_read(StarConfig(args.d, args.gamma, 1.0), tol=1e-10, r_max=args.rmax)
    profile = run.profile()
    _, vs = fixed_points(args.d, args.gamma)
    rep = jacobian_spectrum(args.d, args.gamma)
    lam = max(rep.eigenvalues, key=lambda z: z.real)
    fit = tail_convergence_rate(profile)

    sys.stdout.write(f"# v1*={vs[0]:.12g} v2*={vs[1]:.12g}\n")
    sys.stdout.write(
        f"# linearization: Re lambda = {lam.real:.6g}, Im lambda = {abs(lam.imag):.6g}\n"
    )
    sys.stdout.write(
        f"# fitted decay exponent c = {fit.exponent:.6g} over r in "
        f"[{fit.window[0]:.6g}, {fit.window[1]:.6g}] ({fit.n_points} points)\n"
    )
    sys.stdout.write("r,v1,v2,rel_dev_v1\n")
    r = profile.radii[1]
    while r <= profile.r_end:
        state = profile_to_phase(run, r)
        dev = abs(state.v1 - vs[0]) / vs[0]
        sys.stdout.write(f"{r:.17g},{state.v1:.17g},{state.v2:.17g},{dev:.17g}\n")
        r *= math.sqrt(10.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
