"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed-form algebra under test: the kernel is
recomputed as adaptive quadrature of its defining integral, tier outage as
the defining distance-averaged quadrature of the Laplace-transform success
probability, and distance laws come from the truncated-Rayleigh CDF written
out directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from hetcache import SystemParams, kernels


def fig2_params(lambda_sbs: float = 0.2, beta: float = 0.05, gamma_db: float = -10.0,
                alpha: float = 4.0, r_mbs: float = 250.0) -> SystemParams:
    """The benchmark configuration used throughout the experiments."""
    return SystemParams.from_db(
        lambda_mbs=1e-4,
        lambda_sbs=lambda_sbs,
        beta=beta,
        p_max_mbs_dbm=43.0,
        p_max_sbs_dbm=23.0,
        alpha=alpha,
        gamma_db=gamma_db,
        r_sbs=5.0,
        r_mbs=r_mbs,
    )


def kernel_quadrature(power_ratio: float, alpha: float) -> float:
    """x^(2/a) * integral_{x^(-2/a)}^inf du / (1 + u^(a/2)) by adaptive quadrature.

    The infinite tail is removed exactly so that quad only sees smooth
    finite-interval integrands: with p = a/2 and lower limit b, b <= 1 uses
    the full-line value (pi/p) / sin(pi/p) minus the head over [0, b], and
    b > 1 substitutes u = t^(-1/(p-1)). Relative accuracy is about 1e-11.
    """
    if power_ratio == 0.0:
        return 0.0
    p = alpha / 2.0
    b = power_ratio ** (-1.0 / p)
    if b <= 1.0:
        full_line = (math.pi / p) / math.sin(math.pi / p)
        head, _ = integrate.quad(
            lambda u: 1.0 / (1.0 + u**p), 0.0, b, epsabs=0.0, epsrel=1e-10, limit=200
        )
        value = full_line - head
    else:
        q = 1.0 / (p - 1.0)
        tail, _ = integrate.quad(
            lambda t: 1.0 / (1.0 + t ** (p * q)), 0.0, b ** (-1.0 / q),
            epsabs=0.0, epsrel=1e-10, limit=200,
        )
        value = q * tail
    return power_ratio ** (1.0 / p) * value


def success_sbs_integral(params: SystemParams, p_c: float) -> float:
    """integral_0^{r_sbs} L_sbs(gamma r^alpha / p_sbs) f(r) dr by quadrature."""
    ks = kernels(params)
    rate = ks.k1 * params.lambda_mbs + ks.k2 * params.beta * params.lambda_sbs
    nu = params.beta * params.subchannels_b * params.lambda_sbs * p_c
    norm = -math.expm1(-nu * math.pi * params.r_sbs**2)

    def integrand(r: float) -> float:
        pdf = 2.0 * math.pi * nu * r * math.exp(-nu * math.pi * r**2) / norm
        return pdf * math.exp(-math.pi * r**2 * rate)

    value, _ = integrate.quad(integrand, 0.0, params.r_sbs, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


def success_mbs_integral(params: SystemParams) -> float:
    """integral_0^{r_mbs} L_mbs(gamma r^alpha / p_mbs) f(r) dr by quadrature."""
    ks = kernels(params)
    rate = ks.k3 * params.lambda_mbs + ks.k4 * params.beta * params.lambda_sbs
    nu = params.lambda_mbs
    norm = -math.expm1(-nu * math.pi * params.r_mbs**2)

    def integrand(r: float) -> float:
        pdf = 2.0 * math.pi * nu * r * math.exp(-nu * math.pi * r**2) / norm
        return pdf * math.exp(-math.pi * r**2 * rate)

    value, _ = integrate.quad(integrand, 0.0, params.r_mbs, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


def truncated_rayleigh_cdf(density: float, radius: float):
    """CDF of the nearest-point distance of a PPP, truncated at ``radius``."""

    def cdf(r):
        r = np.asarray(r, dtype=float)
        return np.expm1(-density * math.pi * r**2) / math.expm1(-density * math.pi * radius**2)

    return cdf


def thin(points: np.ndarray, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Independent thinning: retain each point with probability keep_prob."""
    return points[rng.random(len(points)) < keep_prob]


def unit_fade_request(realization, content: int, params: SystemParams, beyond_server: bool):
    """(server distance or None, SIR or None) of one request with every fade 1.

    The per-request loop the batched simulator kernel replaced: nearest SBS
    within r_sbs caching the rank (ties to the lower index, as argmin),
    else nearest MBS within r_mbs, else a miss; interference sums P r^-alpha
    over every other transmitter, or only those at or beyond the server.
    """
    sbs = np.hypot(*realization.active_sbs_points.T)
    mbs = np.hypot(*realization.mbs_points.T)
    rows = {int(j): i for i, j in enumerate(realization.cached_sbs)}
    holders = [j for j in range(sbs.size)
               if sbs[j] <= params.r_sbs and realization.sbs_caches[rows[j], content - 1]]
    if holders:
        tier, index = "sbs", min(holders, key=lambda j: (sbs[j], j))
        dist, power = sbs[index], params.p_sbs
    elif mbs.size and mbs.min() <= params.r_mbs:
        tier, index = "mbs", int(np.argmin(mbs))
        dist, power = mbs[index], params.p_mbs
    else:
        return None, None
    interference = 0.0
    tiers = (("mbs", mbs, params.p_mbs), ("sbs", sbs, params.p_sbs if sbs.size else 0.0))
    for name, distances, p in tiers:
        for j, r in enumerate(distances):
            if (name, j) != (tier, index) and (r >= dist or not beyond_server):
                interference += p * r ** -params.alpha
    return dist, math.inf if interference == 0.0 else power * dist ** -params.alpha / interference
