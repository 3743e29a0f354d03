"""Shared helpers: random spec draws, a direct ratio sampler, and the
term-relative evolution-equation residual used by several suites."""

import numpy as np
import pytest

from pencilkde.oracles import GeneralGaussianSpec
from pencilkde.pde import SingularPointError, pde_coefficients, singular_mask
from pencilkde.ratio_density import EqualVarSpec, density_equal_var, derivatives


def random_equal_var_spec(rng, mu_range=(0.3, 1.2), rho_max=0.95, log_t=(-3, 0)):
    """Moderate-regime spec with unit denominator mean."""
    return EqualVarSpec(
        nu_v=1.0,
        nu_w=float(rng.uniform(*mu_range)),
        rho=float(rng.uniform(-rho_max, rho_max)),
        t=float(10.0 ** rng.uniform(*log_t)),
    )


def random_general_spec(rng):
    s2v = float(rng.uniform(0.2, 3.0))
    s2w = float(rng.uniform(0.2, 3.0))
    # keep the covariance matrix comfortably positive definite
    gamma = float(rng.uniform(-0.9, 0.9)) * np.sqrt(s2v * s2w)
    return GeneralGaussianSpec(
        nu_v=float(rng.uniform(-2.0, 2.0)),
        nu_w=float(rng.uniform(-2.0, 2.0)),
        sigma2_v=s2v,
        sigma2_w=s2w,
        gamma=gamma,
    )


def sample_ratios(rng, spec, size):
    """Draw w/v with (v, w) jointly Gaussian per the given spec."""
    if isinstance(spec, EqualVarSpec):
        cov = spec.t * np.array([[1.0, spec.rho], [spec.rho, 1.0]])
        mean = np.array([spec.nu_v, spec.nu_w])
    else:
        cov = np.array([[spec.sigma2_v, spec.gamma], [spec.gamma, spec.sigma2_w]])
        mean = np.array([spec.nu_v, spec.nu_w])
    vw = rng.multivariate_normal(mean, cov, size=size, method="cholesky")
    return vw[:, 1] / vw[:, 0]


def term_relative_residual(spec, xs, scale_floor=1e-3):
    """max |residual| / sum of operator-term magnitudes over the grid.

    Skips singular tubes, fully underflowed tail points, and points whose
    term scale is negligible against the grid maximum (the density is
    numerically zero there).
    """
    xs = np.asarray(xs, dtype=float)
    keep = ~singular_mask(spec, spec.t, xs)
    rows = []
    for x in xs[keep]:
        try:
            d, c, src, d_x = pde_coefficients(spec, x)
        except SingularPointError:
            continue
        h = density_equal_var(spec, x)
        h_t, h_x, h_xx = derivatives(spec, x)
        terms = (d * h_xx, (d_x + c) * h_x, src * h)
        res = h_t - sum(terms)
        rows.append((abs(res), abs(h_t) + sum(abs(u) for u in terms)))
    smax = max((s for _, s in rows), default=0.0)
    worst = 0.0
    for r, s in rows:
        if s == 0.0 or s < scale_floor * smax:
            continue
        worst = max(worst, r / s)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
