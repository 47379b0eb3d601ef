"""The critical coupling constant lambda_n via quotient minimization.

lambda_n is the largest coefficient for which the concave middle term is
dominated by the potential + highest-derivative terms on every interval.
It equals the infimum of a scale-invariant quotient Q[u]; this script
estimates it by a search over polynomials, whose exactly integrated
minimum bounds lambda_2 from above, and reports the quotient of the
winning polynomial sampled on a grid.  It then demonstrates the scale
invariance that makes a single interval sufficient, and stress-tests
subcriticality over a random ensemble.

This demo samples the witness on a coarser grid than the CLI default
(`hophase lambda-n --n 2`, 501 points).
"""

import numpy as np

from hophase import (
    Field,
    Grid,
    LambdaOptions,
    estimate_lambda_n,
    make_quartic,
    quotient,
    verify_subcritical,
)


def main():
    w = make_quartic()

    print("== estimate of lambda_2 ==")
    est = estimate_lambda_n(2, w, LambdaOptions(num_points=301, seed=0))
    print(
        f"  polynomial minimum (upper bound): {est.diagnostics['poly_stage_value']:.6f}"
        f"  ({est.diagnostics['num_starts']} starts)"
    )
    print(f"  lambda_hat_2 ~= {est.value:.6f}  (its witness sampled on 301 points)")

    print("\n== the quotient is invariant under interval rescaling ==")
    f = Field.from_callable(Grid(0.0, 1.0, 401), lambda x: np.sin(np.pi * x) ** 2)
    q0 = quotient(f, 2, w).value
    for sigma in (0.5, 2.0, 5.0):
        qs = quotient(Field(Grid(0.0, sigma, 401), f.values), 2, w).value
        print(f"  sigma = {sigma}: Q = {qs:.10f} (drift {abs(qs - q0):.1e})")

    print("\n== subcritical ensemble check at lambda = 0.5 lambda_hat ==")
    rep = verify_subcritical(2, 0.5 * est.value, 500, w, seed=0)
    print(
        f"  {rep.num_checked} fields checked, {len(rep.violations)} violations,"
        f" min quotient {rep.min_quotient:.4f} (threshold {rep.lam:.4f})"
    )

    print("\n== the witness violates once lambda exceeds lambda_hat ==")
    spiked = verify_subcritical(
        2, 2.0 * est.value, 100, w, seed=0, extra_fields=[est.witness]
    )
    print(
        f"  at lambda = 2 lambda_hat: {len(spiked.violations)} violation(s);"
        f" the argmin witness attains Q = {quotient(est.witness, 2, w).value:.6f}"
    )


if __name__ == "__main__":
    main()
