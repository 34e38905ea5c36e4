"""The closed-form chi-squared tail against scipy as an oracle."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from railsim import stats
from railsim.fock import single_photon
from railsim.optics import BeamsplitterSpec, beamsplitter
from railsim.povm import QuadratureDensity, homodyne_density
from railsim.stats import chi2_gof_pvalue, chi2_sf


@pytest.mark.parametrize("k", [1, 2, 3, 4, 39, 40, 99])
def test_chi2_sf_matches_scipy(k):
    for x in np.geomspace(1e-3, 400.0, 500):
        ref = float(sps.chi2.sf(x, k))
        if ref > 1e-300:
            assert chi2_sf(float(x), k) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_chi2_sf_edges():
    for k in (1, 2, 39, 40):
        assert chi2_sf(0.0, k) == 1.0
        assert chi2_sf(-1.0, k) == 1.0
    far = chi2_sf(1e4, 39)
    assert math.isfinite(far) and abs(far) <= 1e-300
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 2.5)
    # an integral float k is the integer k
    for k in (1, 2, 3, 4, 39, 40):
        assert chi2_sf(3.0, float(k)) == chi2_sf(3.0, k)


def test_chi2_gof_pvalue_matches_scipy_tail(monkeypatch):
    # the sample of test_03 in test_acceptance.py
    state = beamsplitter(single_photon(0, 2), BeamsplitterSpec(0, 1, 0.5))
    dens = homodyne_density(state, 0, 0.0)
    xs, cum = dens.x, dens.cum
    rng = np.random.default_rng(5)
    x = np.interp(rng.random(100_000) * cum[-1], cum, xs)
    ref = QuadratureDensity(xs, np.exp(-xs ** 2 / 2.0) * (1.0 + xs ** 2)
                            / (2.0 * math.sqrt(2.0 * math.pi)))
    p = chi2_gof_pvalue(x, ref.quantile)
    monkeypatch.setattr(stats, "chi2_sf", lambda v, k: float(sps.chi2.sf(v, k)))
    assert p == pytest.approx(chi2_gof_pvalue(x, ref.quantile), rel=1e-12,
                              abs=0.0)
