"""Reference values about the modified Bessel function I_nu(x) for the tests
of the series cutoff.

Computed with mpmath at 50 digits, printed at 17 significant digits so they can
be frozen into the unit tests:

* a scaled value e^-x I_nu(x) below the smallest double, where the cutoff is 1;
* the ratio bound I_{nu+1}(x)/I_nu(x) <= x/(nu + sqrt(nu^2 + x^2)) that
  wedgebm.bessel.series_tail_cutoff certifies its cutoff with, next to the
  lower bound x/(nu + 1 + sqrt((nu + 1)^2 + x^2)) (Amos 1974);
* exact tail cutoffs by brute force: the smallest N such that the tail
  sum_{n>=N} I_{n*step}(x) of a theta-series drops below 1e-12 of its
  leading term, for the cosine (reflected) series, led by I_0/2, and the sine
  (killed) series, led by I_step/2.

Run with `python3 scripts/oracles/bessel_reference.py` (a few minutes: the
irrational orders at x = 22500 cost up to a second each); the output is kept
in bessel_reference.out.
"""

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50

# the first order pi/alpha of a wedge of opening 0.01 at r*r0/t = 2.1
UNDERFLOW_CASES = [(math.pi / 0.01, 2.1)]

# (opening, order step pi/opening): exact where rational, so that the orders
# fall into a few classes modulo 1, each filled by one backward recurrence
SERIES_STEPS = [("0.9", None), ("pi/3", Fraction(3)), ("1.5pi", Fraction(2, 3)),
                ("2pi", Fraction(1, 2))]
# r*r0/t of a density near the start (1.5, 0.3) at t = 1, 1e-2, 1e-4
SERIES_ARGS = [2.25, 225.0, 22500.0]

RATIO_CASES = [(0, 1e-3), (0, 2.25), (0.5, 1.0), (math.pi / 0.9, 225.0),
               (50, 2.25), (1170, 22500.0)]


def main():
    print("# log(e^-x I_nu(x)) below log of the smallest double, "
          f"{mp.nstr(mp.log(mp.mpf(2) ** -1074), 17)}")
    for nu, x in UNDERFLOW_CASES:
        val = mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))) - x
        print(f"log(e^-x I({nu}, {x})) = {mp.nstr(val, 17)}")

    print()
    print("# ratio I_{nu+1}(x)/I_nu(x) between x/(nu+1+sqrt((nu+1)^2+x^2)) and "
          "x/(nu+sqrt(nu^2+x^2))")
    for nu, x in RATIO_CASES:
        nu, x = mp.mpf(nu), mp.mpf(x)
        ratio = mp.besseli(nu + 1, x) / mp.besseli(nu, x)
        lower = x / (nu + 1 + mp.sqrt((nu + 1) ** 2 + x ** 2))
        upper = x / (nu + mp.sqrt(nu ** 2 + x ** 2))
        assert lower < ratio < upper
        print(f"rho({mp.nstr(nu, 17)}, {mp.nstr(x, 17)}) = {mp.nstr(ratio, 17)} "
              f"in ({mp.nstr(lower, 17)}, {mp.nstr(upper, 17)})")

    print()
    print("# exact minimal cutoffs: smallest N with sum_{n>=N} I_{n*step}(x) <= "
          "1e-12*I_lead(x)/2,\n# lead 0 (cosine series) and lead = step (sine "
          "series); q(N) = tail(N)/target")
    for opening, exact_step in SERIES_STEPS:
        step = (mp.pi / mp.mpf(opening) if exact_step is None
                else mp.mpf(exact_step.numerator) / exact_step.denominator)
        for x in SERIES_ARGS:
            for lead, n_min, tail_n, tail_before in _minimal_cutoffs(step, exact_step, x):
                print(f"opening={opening} step={mp.nstr(step, 17)} x={x} lead={lead}: "
                      f"N = {n_min} (q(N) = {mp.nstr(tail_n, 3)}, "
                      f"q(N-1) = {mp.nstr(tail_before, 3)})")

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


def _besseli(nu, x):
    # large x needs more terms of the hypergeometric series than the default
    return mp.besseli(nu, x, maxterms=10 ** 6)


def _orders_values(orders, exact_orders, x):
    """I_nu(x) for each order; orders that differ by integers (given exactly
    as Fractions, or None) come from one backward recurrence
    I_{nu-1} = I_{nu+1} + (2 nu / x) I_nu, stable for I, started from two
    direct values above the top order."""
    if exact_orders is None:
        return [_besseli(nu, x) for nu in orders]
    classes = {}
    for i, q in enumerate(exact_orders):
        classes.setdefault(q - math.floor(q), []).append((q, i))
    values = [None] * len(orders)
    for members in classes.values():
        lo = min(q for q, _ in members)
        top = max(q for q, _ in members) + 1
        want = {q: i for q, i in members}
        top_nu = mp.mpf(top.numerator) / top.denominator
        above, here = _besseli(top_nu + 1, x), _besseli(top_nu, x)
        q = top
        while q >= lo:
            if q in want:
                values[want[q]] = here
            nu = mp.mpf(q.numerator) / q.denominator
            above, here = here, above + 2 * nu / x * here
            q -= 1
    return values


def _minimal_cutoffs(step, exact_step, x):
    """(lead, N, tail(N)/target, tail(N-1)/target) for lead 0 and lead step."""
    x = mp.mpf(x)
    targets = [(0, mp.mpf(10) ** -12 * _besseli(0, x) / 2),
               ("step", mp.mpf(10) ** -12 * _besseli(step, x) / 2)]
    # from below the Gaussian estimate of the cutoff order (checked below:
    # the tail there is above both targets) to where the last term is below
    # 1e-12 of either target
    log_target = math.log(2e12)
    n_lo = max(1, int((math.sqrt(2 * float(x) * log_target) - 60) / float(step)))
    n_hi = int((math.sqrt(2 * float(x) * 2 * log_target) + 60) / float(step)) + 1
    ns = range(n_lo, n_hi + 1)
    exact = None if exact_step is None else [n * exact_step for n in ns]
    terms = _orders_values([n * step for n in ns], exact, x)
    tails = [mp.mpf(0)] * (len(terms) + 1)
    for i in range(len(terms) - 1, -1, -1):
        tails[i] = tails[i + 1] + terms[i]
    out = []
    for lead, target in targets:
        assert terms[-1] < mp.mpf(10) ** -12 * target
        assert n_lo == 1 or tails[0] > target
        i = next(i for i, tail in enumerate(tails) if tail <= target)
        before = tails[i - 1] / target if i > 0 else mp.inf
        out.append((lead, n_lo + i, tails[i] / target, before))
    return out


if __name__ == "__main__":
    main()
