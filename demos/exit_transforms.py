"""Exit-time Laplace transforms and the q-potential density.

The two-sided solver splits E_x[e^{-q tau}] by which end of [y, z] the
process leaves first. Summing the pieces and letting the far boundary
run away recovers the one-sided transforms.
"""

import numpy as np

from threshold_diffusion import (DiffusionParams, ExitQuery, PotentialQuery, one_sided_down,
                                 one_sided_up, potential_density, two_sided_exit)

PARAMS = DiffusionParams(1.0, -1.0, 1.0, 2.0, 0.0)


def main():
    print("two-sided exit from [-1, 1], start 0, params (1,-1,1,2,0)")
    print(f"{'q':>6}  {'down':>10}  {'up':>10}  {'down+up':>10}")
    for q in (0.25, 0.5, 1.0, 2.0, 4.0):
        down, up = two_sided_exit(ExitQuery(PARAMS, q, 0.0, -1.0, 1.0))
        print(f"{q:6.2f}  {down:10.6f}  {up:10.6f}  {down + up:10.6f}")
    print("both pieces fall with q; the sum stays below 1 (time costs mass)")

    # widen the upper boundary: the down piece converges to one_sided_down
    print("\ndown piece of [ -1, z ] as z grows, q = 0.7:")
    target = one_sided_down(PARAMS, 0.7, 0.0, -1.0)
    for z in (1.0, 2.0, 4.0, 8.0, 16.0):
        down, _ = two_sided_exit(ExitQuery(PARAMS, 0.7, 0.0, -1.0, z))
        print(f"  z={z:5.1f}  down={down:.12f}   gap={down - target:+.3e}")
    print(f"  one_sided_down            ={target:.12f}")

    up = one_sided_up(PARAMS, 0.7, -0.5, 1.0)
    print(f"\none_sided_up(q=0.7, from -0.5 to 1.0) = {up:.12f}")

    zs = np.linspace(-2.0, 2.0, 17)
    print("\nq-potential density u_q(x=0.3, z), q = 1:")
    print(f"{'z':>6}  {'u':>10}")
    for z in zs:
        u = potential_density(PotentialQuery(PARAMS, 1.0, 0.3, float(z)))
        print(f"{z:6.2f}  {u:10.6f}  " + "#" * int(round(u * 80)))
    print("kink at the start state x = 0.3, jump at the threshold z = 0")


if __name__ == "__main__":
    main()
