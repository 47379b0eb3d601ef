"""For large enough lambda the concave term wins over the layers.

Clipped high-frequency oscillations drive the energy negative once lambda
is large: at n = 2 the probe's first negative energy is at lambda about
1.75-1.85 (eps = 1/8 to 1/64), far above lambda_hat_2 = 0.0569, so the
lambda below which the paper proves the sharp-interface limit is not where
this instability sets in.  This script scans a lambda grid with a fixed
family of clipped sine candidates -- on that fixed set the minimal energy
is exactly non-increasing in lambda -- then runs a free minimization from
an oscillation at lambda = 0.02 and at lambda = 4, where the energy falls
below the divergence floor.
"""

import numpy as np

from hophase import Field, Grid, make_quartic, minimize_energy, supercritical_probe


def main():
    w = make_quartic()
    eps = 1.0 / 16.0
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)

    print("== fixed candidate set: clipped sines, k = 1..32 ==")
    rep = supercritical_probe(2, grid, eps, w, k_max=32, free_minimization=False)
    print("  lambda   best energy   best k   best amplitude")
    for lam, e, k, amp in zip(
        rep.lambda_grid, rep.best_energies, rep.best_k, rep.best_amplitude
    ):
        print(f"  {lam:<7g}  {e:<12.4f}  {k:<7d}  {amp}")
    print(f"  onset of negative energy: lambda = {rep.onset_lambda}")
    print(f"  monotone non-increasing in lambda: {rep.monotone}")

    print("\n== energy vs frequency at the largest lambda ==")
    ks = [k for k, _ in rep.k_scaling[:12]]
    es = [e for _, e in rep.k_scaling[:12]]
    for k, e in zip(ks, es):
        bar = "#" * max(0, int(8 - e))
        print(f"  k = {k:<3d} E = {e:9.3f} {bar}")

    print("\n== free minimization diverges at supercritical lambda ==")
    g = Grid(0.0, 1.0, 513)
    init = Field(g, np.clip(1.2 * np.sin(2.0 * np.pi * 4 * g.nodes()), -1, 1))
    for lam in (0.02, 4.0):
        res = minimize_energy(2, eps, lam, init, w, divergence_floor=-100.0)
        tag = (
            f"{res.message}, energy fell below the floor ({res.breakdown.total:.1f})"
            if res.diverged
            else f"converged to E = {res.breakdown.total:.4f}"
        )
        print(f"  lambda = {lam}: {tag}")


if __name__ == "__main__":
    main()
