"""Reference values for the modified Bessel function I_nu(x).

Computed with mpmath at 50 digits, printed at 17 significant digits so they can
be frozen into the unit tests. Also checks the truncation-depth example (order
step 3, argument 1.0) by brute force: smallest N such that the tail of the
theta-series, bounded term by term, drops below 1e-12 of the leading term.

Run with `python3 scripts/oracles/bessel_reference.py`; the output is kept in
bessel_reference.out.
"""

import math

import mpmath as mp

mp.mp.dps = 50

CASES = [
    (0, 0.0),
    (0, 1.0),
    (0, 2.0),
    (1, 1.0),
    (1, 5.0),
    (2, 3.0),
    (5, 0.5),
    (0.5, 1.3),
    (1.0 / 3.0, 2.5),
    (10, 20.0),
    (3.5, 8.0),
    (0, 50.0),
    (2, 100.0),
    (700, 225.0),  # in range, though (x/2)^nu and Gamma(nu + 1) overflow
]

# large arguments: r*r0/t of a density at t = 1e-4 near the start (1.5, 0.3)
LOG_CASES = [(0, 800.0), (2, 1000.0), (7.5, 2000.0), (0, 1e4),
             (math.pi / 0.9, 22500.0)]

# the first order pi/alpha of a wedge of opening 0.01 at r*r0/t = 2.1
UNDERFLOW_CASES = [(math.pi / 0.01, 2.1)]


def main():
    print("# I_nu(x) reference values (mpmath, 50 dps)")
    for nu, x in CASES:
        val = mp.besseli(mp.mpf(nu), mp.mpf(x))
        print(f"I({nu}, {x}) = {mp.nstr(val, 17)}")

    print()
    print("# log I_nu(x) for large x (log-space regime)")
    for nu, x in LOG_CASES:
        val = mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x)))
        print(f"log I({nu}, {x}) = {mp.nstr(val, 17)}")

    print()
    print("# log(e^-x I_nu(x)) below log of the smallest double, "
          f"{mp.nstr(mp.log(mp.mpf(2) ** -1074), 17)}")
    for nu, x in UNDERFLOW_CASES:
        val = mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))) - x
        print(f"log(e^-x I({nu}, {x})) = {mp.nstr(val, 17)}")

    # Truncation depth for sums of I_{n*step}(x): find the smallest N with
    # sum_{n>=N} I_{n*step}(x) <= rtol * I_0(x) / 2   (leading term is I_0/2).
    print()
    print("# exact tail cutoffs: smallest N with sum_{n>=N} I_{n*step}(x) <= rtol*I_0(x)/2")
    for step, x, rtol in [(3.0, 1.0, 1e-12), (2.0, 1.0, 1e-12), (1.0, 5.0, 1e-12),
                          (0.5, 2.0, 1e-12), (6.0, 10.0, 1e-12)]:
        lead = mp.besseli(0, x) / 2
        n = 1
        while True:
            tail = mp.fsum(mp.besseli(n1 * step, x) for n1 in range(n, n + 200))
            if tail <= rtol * lead:
                break
            n += 1
        print(f"step={step} x={x} rtol={rtol}: N = {n}")


if __name__ == "__main__":
    main()
