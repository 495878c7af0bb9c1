"""Transition density profiles across the threshold.

Three snapshots:
  1. zero drift, sigma below twice sigma above: the density is continuous in
     the start state but jumps at the threshold in the end state;
  2. the same law at several times, showing the jump persist;
  3. confining drifts, where the t = 30 profile already sits on the
     stationary law e^{-2|z|}.
"""

import numpy as np

from threshold_diffusion import (DensityQuery, DiffusionParams, density_jump_at_threshold,
                                 stationary_density, transition_density)


def profile(params, t, x, zs):
    return [transition_density(DensityQuery(params, t, x, float(z))) for z in zs]


def print_curve(zs, ps, label):
    print(f"\n{label}")
    print(f"{'z':>8}  {'p':>12}")
    for z, p in zip(zs, ps):
        bar = "#" * int(round(p * 60))
        print(f"{z:8.2f}  {p:12.6f}  {bar}")


def main():
    # volatility 2 below the threshold, 1 above: mass piles up where the
    # process moves slowly, so the right side is denser
    osc = DiffusionParams(0.0, 0.0, 2.0, 1.0, 0.0)
    zs = np.linspace(-3.0, 3.0, 25)
    print_curve(zs, profile(osc, 1.0, 0.0, zs), "zero drift, sigma=(2,1), t=1, x=0")
    jump = density_jump_at_threshold(osc, 1.0, 0.0)
    print(f"\ndensity jump at the threshold: {jump:+.6f}")
    print("(the ratio of one-sided limits equals sigma1^2/sigma2^2 = 4)")

    two = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)
    for t in (0.25, 1.0, 4.0):
        near = [-0.2, -0.1, -1e-9, 0.0, 0.1, 0.2]
        ps = profile(two, t, 0.5, near)
        row = "  ".join(f"p({z:+.1e})={p:.4f}" for z, p in zip(near, ps))
        print(f"t={t:<5} {row}")
    print("(the two middle columns are the one-sided limits at z = 0)")

    conf = DiffusionParams(1.0, -1.0, 1.0, 1.0, 0.0)
    print(f"\n{'z':>5}  {'p(t=30)':>10}  {'stationary':>10}")
    for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
        p30 = transition_density(DensityQuery(conf, 30.0, 0.0, z))
        pi = stationary_density(conf, z)
        print(f"{z:5.1f}  {p30:10.6f}  {pi:10.6f}")


if __name__ == "__main__":
    main()
