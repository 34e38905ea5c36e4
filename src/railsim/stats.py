"""Small statistics helpers used by the reports and the test suite.

numpy and ``math`` only, so importing the CLI stays cheap.
"""

from __future__ import annotations

import math

import numpy as np


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a CDF callable."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("no samples")
    f = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(n) / n)
    return float(max(upper, lower))


def chi2_sf(x: float, k: int) -> float:
    """Upper tail P(X > x) of the chi-squared law with integer k >= 1 dof.

    Closed form (Abramowitz & Stegun 26.4.4-5): for even k,
    e^{-x/2} sum_{i<k/2} (x/2)^i / i!; for odd k,
    erfc(sqrt(x/2)) + sqrt(2x/pi) e^{-x/2} sum_{i=1}^{(k-1)/2}
    x^{i-1} / (1*3*...*(2i-1)).  The terms are running products, so
    nothing overflows for large x or k.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"degrees of freedom must be a positive integer, got {k}")
    k = int(k)
    if x <= 0:
        return 1.0
    h = 0.5 * x
    if k % 2 == 0:
        term, total = 1.0, 1.0
        for i in range(1, k // 2):
            term *= h / i
            total += term
        return math.exp(-h) * total
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-h)
    total = math.erfc(math.sqrt(h))
    for i in range(1, (k + 1) // 2):
        total += term
        term *= x / (2 * i + 1)
    return total


def chi2_gof_pvalue(samples, quantile, n_bins: int = 40) -> float:
    """Chi-squared goodness-of-fit p-value against the law with the
    given quantile function (inverse CDF).

    Bins are the equal-probability intervals between
    ``quantile(i / n_bins)``, so every bin has the same expected count.
    """
    samples = np.asarray(samples, dtype=float)
    edges = quantile(np.linspace(0.0, 1.0, n_bins + 1))
    counts, _ = np.histogram(samples, bins=edges)
    expected = len(samples) / n_bins
    if expected < 5:
        raise ValueError("too few samples per bin for a chi-squared test")
    chisq = float(np.sum((counts - expected) ** 2) / expected)
    return chi2_sf(chisq, n_bins - 1)
