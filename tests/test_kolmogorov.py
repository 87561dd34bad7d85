"""The ported exact two-sided KS test equals scipy's ``kstest`` bit for bit.

scipy's statistics package is the oracle here only; the package itself
never imports it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from wignerlab._kolmogorov import _kolmogn_sf, ks_normal


def sample(n, shift, seed):
    """(x, mean, sd): a seeded sample and the normal law it is tested against.

    ``shift`` None puts x near the n quantile midpoints of N(0, 1), jittered
    when ``seed`` > 0: the smallest D a sample of n can have. Otherwise x is
    standard normal and the law's mean is the sample mean plus ``shift``
    sample standard deviations.
    """
    rng = np.random.default_rng(seed)
    if shift is None:
        jitter = rng.uniform(-0.45, 0.45, n) if seed > 0 else 0.0
        return special.ndtri((np.arange(n) + 0.5 + jitter) / n), 0.0, 1.0
    x = rng.standard_normal(n)
    sd = float(x.std(ddof=1))
    return x, float(x.mean()) + shift * sd, sd


def branch(n, d):
    """The branch of Simard & L'Ecuyer's two-sided survival function at (n, d)."""
    t = n * d
    if d <= 0.5 / n:
        return "p=1"
    if t <= 1.0:
        return "ruben_gambino_low"
    if t >= n - 1:
        return "ruben_gambino_high"
    if d >= 0.5:
        return "smirnov_exact"
    nx2 = t * d
    if nx2 >= 370.0:
        return "zero"
    if nx2 >= 2.2:
        return "smirnov"
    return "dmtw" if n * d**1.5 <= 1.4 else "pelz_good"


CASES = [(n, None, seed) for n in (141, 300) for seed in (0, 1)]
CASES += [(n, shift, seed) for n in (141, 200, 1000, 3000)
          for shift in (0.0, 0.3, 0.6, 1.2, 2.0, 9.0) for seed in (1, 2)]


def assert_matches_kstest(x, mean, sd):
    d, p = ks_normal(x, mean, sd)
    want = stats.kstest(x, "norm", args=(mean, sd))
    assert (d, p) == (float(want.statistic), float(want.pvalue))
    return d, p


def test_seeded_cases_match_kstest_in_every_branch():
    reached = set()
    for n, shift, seed in CASES:
        d, _ = assert_matches_kstest(*sample(n, shift, seed))
        reached.add(branch(n, d))
    # D <= 1/(2n) needs ndtr to hit every quantile midpoint exactly, which in
    # the lower tail it skips past for every n > 140 tried; see below
    assert reached == {"ruben_gambino_low", "ruben_gambino_high", "smirnov_exact", "dmtw",
                       "pelz_good", "smirnov", "zero"}


def sample_at(n, d):
    """(x, mean, sd) whose statistic is d up to rounding: the n quantile
    midpoints of N(0, 1) against N(mean, 1), with mean > 0 found by bisection
    (D is D+ there, which grows with mean)."""
    x = special.ndtri((np.arange(n) + 0.5) / n)
    lo, hi = 0.0, 40.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if np.max(np.arange(1.0, n + 1) / n - special.ndtr(x - mid)) < d:
            lo = mid
        else:
            hi = mid
    return x, hi, 1.0


# (n, D) where the method changes: t = nD at 1 and n-1, D at 1/2, nD^2 at
# 2.2 and 370, nD^1.5 at 1.4
SWITCHES = [(300, 1 / 300), (300, 299 / 300), (300, 0.5), (300, math.sqrt(2.2 / 300)),
            (300, (1.4 / 300) ** (2 / 3)), (2000, math.sqrt(370 / 2000))]


@pytest.mark.parametrize("n, d", SWITCHES)
def test_matches_kstest_on_both_sides_of_each_switch(n, d):
    for side in (1 - 1e-7, 1 + 1e-7):
        got, _ = assert_matches_kstest(*sample_at(n, d * side))
        assert (got < d) == (side < 1)


def test_smallest_statistic_has_p_one():
    # the quantile midpoints: D is 1/(2n) up to rounding, in the Ruben-Gambino branch
    d, p = assert_matches_kstest(*sample(300, None, 0))
    assert 0.0 <= d - 0.5 / 300 < 1e-15 and p == 1.0


def test_survival_is_one_at_and_below_the_smallest_statistic():
    # ks_normal has no p = 1 branch of its own for D <= 1/(2n): the t <= 1/2
    # return gives it, and just above 1/(2n) Ruben-Gambino rounds to 1.0
    for n in [*range(141, 2000), 100000]:
        half = 0.5 / n
        for d in (half, np.nextafter(half, 0.0), np.nextafter(half, 1.0), 0.25 / n, 1e-300):
            assert _kolmogn_sf(n, np.asarray(d)) == 1.0, (n, d)


@pytest.mark.parametrize("n", [2, 140])
def test_small_samples_are_refused(n):
    with pytest.raises(ValueError, match="more than 140 points"):
        ks_normal(*sample(n, 0.0, 1))


@settings(max_examples=200)
@given(n=st.integers(141, 1000), shift=st.sampled_from([None, 0.0, 0.2, 0.5, 1.0, 4.0]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_kstest(n, shift, seed):
    d, p = assert_matches_kstest(*sample(n, shift, seed))
    assert 0.5 / n - 1e-12 <= d <= 1.0 and 0.0 <= p <= 1.0


@pytest.mark.parametrize("n", [200])
def test_nan_sample_gives_nan(n):
    # the unguarded p-value reaches Pelz-Good with a NaN and raises
    x = np.random.default_rng(n).standard_normal(n)
    x[n // 2] = np.nan
    d, p = ks_normal(x, 0.0, 1.0)
    assert math.isnan(d) and math.isnan(p)
    want = stats.kstest(x, "norm", args=(0.0, 1.0))
    assert math.isnan(want.statistic) and math.isnan(want.pvalue)
