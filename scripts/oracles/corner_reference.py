"""Cross-checks for the corner termination kernel.

* The n=0 radial kernel (r/t') e^{-(r^2+r_n^2)/2t'} I_0(r r_n / t') integrates
  to exactly 1 on (0, inf) (noncentral chi-square normalization), so the corner
  kernel with the uniform angle on [0, alpha] is a probability density.

* Its CDF, by adaptive quadrature, is the Rice law with shape r_n/sqrt(t') and
  scale sqrt(t') (scipy.stats.rice): the law of the distance from the apex of
  the free Gaussian endpoint N((r_n, 0), t' I), which is how
  wedgebm.corner.sample_corner draws the terminal radius.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import ive
from scipy.stats import rice


def radial_kernel(r, r_n, t_prime):
    return ((r / t_prime) * math.exp(-((r - r_n) ** 2) / (2 * t_prime))
            * ive(0, r * r_n / t_prime))


def main():
    print("# n=0 radial kernel normalization (should be 1)")
    for r_n, t_prime in [(0.05, 0.5), (0.3, 1.2), (1.0, 0.2)]:
        val = integrate.quad(radial_kernel, 0, np.inf, args=(r_n, t_prime),
                             limit=200)[0]
        print(f"  r_n={r_n} t'={t_prime}: integral = {val:.12g}")

    print()
    print("# n=0 radial kernel CDF (quadrature) vs scipy.stats.rice.cdf")
    worst = 0.0
    for r_n, t_prime in [(0.0, 0.5), (0.05, 0.5), (0.3, 1.2), (2.0, 0.1)]:
        s = math.sqrt(t_prime)
        for r in (0.1, 0.5, 1.0, 3.0):
            num = integrate.quad(radial_kernel, 0, r, args=(r_n, t_prime),
                                 epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            ref = rice.cdf(r, r_n / s, scale=s)
            worst = max(worst, abs(num - ref))
            print(f"  r_n={r_n} t'={t_prime} r={r}: quad={num:.15g} rice={ref:.15g}")
    print(f"  worst |quad - rice| over the grid: {worst:.2e}")


if __name__ == "__main__":
    main()
