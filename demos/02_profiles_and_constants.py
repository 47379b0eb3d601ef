"""Optimal transition profiles and the per-jump energy constant.

Minimizing the rescaled layer energy over profiles that connect the wells
-1 -> +1 across a truncated window [-T, T] estimates the constant C that a
single transition costs in the sharp-interface limit.  Three checks run
here:

  * first-order sanity mode (n = 1): the well-known exact constant 8/3,
  * the higher-order constant at n = 2 and its damped version at lambda > 0,
  * the sandwich (1 - lambda/lambda_hat) C_0 <= C_lambda <= C_0.
"""

from hophase import ProfileProblem, estimate_constants, make_quartic, minimize_profile

# estimated by `hophase lambda-n --n 2` (demos/03 recomputes a quick version)
LAMBDA_HAT_2 = 0.056938


def main():
    w = make_quartic()

    print("== first-order calibration: exact constant is 8/3 ==")
    res = minimize_profile(ProfileProblem(1, 0.0, 8.0, 1601, w))
    print(f"  estimate {res.energy_estimate:.8f} vs 8/3 = {8 / 3:.8f}")
    print(f"  converged = {res.converged}, Newton decrement = {res.newton_decrement:.1e}")

    print("\n== second-order profile constant at lambda = 0 ==")
    res2 = minimize_profile(ProfileProblem(2, 0.0, 6.0, 1201, w))
    print(f"  C_hat = {res2.energy_estimate:.6f} (T = 6, 1201 points)")

    print("\n== damped constant and sandwich bound at lambda = 0.3 lambda_hat ==")
    lam = 0.3 * LAMBDA_HAT_2
    est = estimate_constants(
        2, lam, w, truncation_T=6.0, num_points=1201, lambda_hat=LAMBDA_HAT_2
    )
    lower = (1.0 - lam / LAMBDA_HAT_2) * est.c_hat_0
    print(f"  C_hat_0      = {est.c_hat_0:.6f}")
    print(f"  C_hat_lambda = {est.c_hat_lam:.6f}")
    print(f"  lower bound  = {lower:.6f}  (1 - lambda/lambda_hat) * C_hat_0")
    print(f"  sandwich holds with {est.slack:.0%} slack: {est.sandwich_ok}")


if __name__ == "__main__":
    main()
