"""Closed-form outage probabilities for the two-tier cached network.

Everything here is a pure function of immutable inputs. The building blocks
are the four interference kernels (Laplace-transform exponents of the
shot-noise interference) and the tier cache-hit probabilities. They combine
into the per-tier outage closed forms, the per-content total outage, and the
request-averaged outage; per-tier outages come only from :func:`total_outage`.

Numerical conventions:
  * every ``1 - exp(-x)`` goes through ``-expm1(-x)``, so huge exponents
    saturate to 1.0 instead of overflowing;
  * success means SIR strictly above the threshold; ties have measure zero
    and count as failure in the simulator.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DivergentIntegralError, DomainError
from .params import CachePolicy, ContentLibrary, RequestDistribution, SystemParams, replication_probability


def kernel_integral(power_ratio: float, alpha: float) -> float:
    """Interference kernel x^(2/a) * integral_{x^(-2/a)}^inf du / (1 + u^(a/2)).

    ``power_ratio`` is x = gamma * p_interferer / p_server for the tier pair
    in question. With p = alpha / 2 the integral has the closed form

        x / (p - 1) * 2F1(1, 1 - 1/p; 2 - 1/p; -x)

    (Andrews, Baccelli & Ganti, IEEE TCOM 2011). The 2F1 is summed in pure
    ``math`` by :func:`_hyp2f1_unit`, in two branches from DLMF 15.8: Pfaff's
    transformation for x <= 1 and the 1/x transformation for x > 1. Against
    a 40-digit mpmath evaluation it stays within 5e-15 relative for alpha in
    [2.0001, 1000] and x in [1e-6, 1e6]. For alpha == 4 it reduces to
    sqrt(x) * atan(sqrt(x)), which is used directly. Both forms grow like
    x^(2/alpha), so an infinite ratio gives inf at every alpha; a NaN ratio
    or alpha is refused.
    """
    if not alpha > 2.0:
        raise DivergentIntegralError(
            f"kernel integral diverges unless alpha > 2 (integrand tail ~ u^(-alpha/2)), got {alpha}"
        )
    if not power_ratio >= 0.0:
        raise DomainError(f"power ratio must be >= 0, got {power_ratio}")
    if power_ratio == 0.0:
        return 0.0
    if power_ratio == math.inf:
        return math.inf
    if alpha == 4.0:
        s = math.sqrt(power_ratio)
        return s * math.atan(s)
    p = alpha / 2.0
    return power_ratio / (p - 1.0) * _hyp2f1_unit(1.0 - 1.0 / p, power_ratio)


def _hyp2f1_unit(b: float, x: float) -> float:
    """2F1(1, b; b + 1; -x) for 0 < b < 1 and x >= 0.

    x <= 1: Pfaff's transformation (DLMF 15.8.1) gives
    (1 + x)^-1 * sum_n a_n w^n with a_n = n! / (b + 1)_n and w = x / (1 + x).

    x > 1: the 1/x transformation (DLMF 15.8.2, where one of its two series
    is 1), i.e. splitting b * integral_0^1 t^(b-1) / (1 + x t) dt at
    infinity, gives b*pi/sin(pi b) * x^-b - b/(c x) * 2F1(1, c; c + 1; -1/x)
    with c = 1 - b. Both terms grow like 1/c and cancel as b -> 1, so the
    difference is taken analytically, leaving three positive terms:

        b / x * [(pi/sin(pi c) - 1/c) * x^c + (x^c - 1) / c
                 + x / (1 + x) * sum_{n>=1} e_n w^n],   w = 1 / (1 + x),

    where e_n = (1 - a_n) / c with a_n taken for c. w <= 1/2 in both
    branches, so both series converge geometrically.
    """
    if x <= 1.0:
        w = x / (1.0 + x)
        term = total = 1.0
        n = 1.0
        while term > 1e-17 * total:  # term ratios stay below w <= 1/2
            term *= n / (b + n) * w
            total += term
            n += 1.0
        return total / (1.0 + x)
    c = 1.0 - b
    if c >= 0.5:
        # sin(pi c) == sin(pi b); the smaller argument keeps sin well conditioned
        pole_gap = math.pi / math.sin(math.pi * b) - 1.0 / c
    else:
        # pi/sin(u) - 1/c == (u - sin u) / (c sin u) with u = pi c, and
        # u - sin u is summed as its Taylor series to avoid the cancellation
        u = math.pi * c
        term = u_minus_sin = u**3 / 6.0
        k = 3.0
        while abs(term) > 1e-17 * u_minus_sin:
            term *= -u * u / ((k + 1.0) * (k + 2.0))
            u_minus_sin += term
            k += 2.0
        pole_gap = u_minus_sin / (c * math.sin(u))
    w = 1.0 / (1.0 + x)
    a_n, e_n, w_n, term, tail = 1.0, 0.0, 1.0, 1.0, 0.0
    n = 1.0
    while term > 1e-17 * tail:  # term ratios stay below w * (1 + 1/n) <= 3/4
        e_n += a_n / (n + c)
        a_n *= n / (n + c)
        w_n *= w
        term = e_n * w_n
        tail += term
        n += 1.0
    x_c = x**c
    # x^c - 1 loses digits to cancellation below 2 and to exp's argument above
    x_c_minus_1 = x_c - 1.0 if x_c > 2.0 else math.expm1(c * math.log(x))
    return b / x * (pole_gap * x_c + x_c_minus_1 / c + x * w * tail)


class InterferenceKernels(NamedTuple):
    """The four interference kernels, by (server tier, interferer tier).

    k1: SBS server, MBS interferers;  k2: SBS server, SBS interferers;
    k3: MBS server, MBS interferers;  k4: MBS server, SBS interferers.
    k2 == k3 because both reduce to the equal-power kernel at ratio gamma.
    All four coincide when the per-channel powers are equal. A plain
    record: it iterates as (k1, k2, k3, k4) and compares equal to that tuple.
    """

    k1: float
    k2: float
    k3: float
    k4: float


def kernels(params: SystemParams) -> InterferenceKernels:
    """Evaluate all four kernels for a parameter set."""
    gamma = params.gamma
    p_m = params.p_mbs
    p_s = params.p_sbs  # raises if beta * B == 0
    k1 = kernel_integral(gamma * p_m / p_s, params.alpha)
    k2 = kernel_integral(gamma, params.alpha)
    k4 = kernel_integral(gamma * p_s / p_m, params.alpha)
    return InterferenceKernels(k1=k1, k2=k2, k3=k2, k4=k4)


def sbs_hit_probability(params: SystemParams, p_c: float) -> float:
    """Probability that some SBS holding the content sits within r_sbs.

    1 - exp(-beta * B * lambda_sbs * P_c * pi * r_sbs^2); zero arguments
    yield 0 rather than an error.
    """
    nu = params.beta * params.subchannels_b * params.lambda_sbs * p_c
    return -math.expm1(-nu * math.pi * params.r_sbs**2)


def mbs_hit_probability(params: SystemParams) -> float:
    """Probability that some MBS sits within r_mbs (MBSs hold everything)."""
    return -math.expm1(-params.lambda_mbs * math.pi * params.r_mbs**2)


def _success_ratio(c_dens: float, d_dens: float, area: float) -> float:
    """c * (1 - e^(-area*d)) / (d * (1 - e^(-area*c))) for 0 < c <= d.

    Where the denominator falls below the smallest normal float, both
    products lose their digits (and reach 0/0 for small enough c), so the
    ratio is taken as phi(area*d) / phi(area*c) with phi(x) = (1 - e^(-x)) / x.
    """
    num = c_dens * -math.expm1(-area * d_dens)
    den = d_dens * -math.expm1(-area * c_dens)
    if den < sys.float_info.min:  # a NaN keeps num / den, so it still surfaces
        return _phi(area * d_dens) / _phi(area * c_dens)
    return num / den


def _phi(x: float) -> float:
    """(1 - e^(-x)) / x, with its limit 1 at x = 0."""
    return -math.expm1(-x) / x if x > 0.0 else 1.0


def _check_probability(value: float, label: str) -> float:
    # Assertion, not a silent clamp: anything beyond float jitter is a bug.
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ArithmeticError(f"{label} outside [0, 1]: {value}")
    return min(max(value, 0.0), 1.0)


def _tier_term(density: float, kernel: float) -> float:
    """One interfering tier's density times its kernel in D.

    A tier with zero density adds no term, whatever its kernel: an infinite
    kernel (a power ratio that overflows) must not make 0 * inf = NaN.
    """
    return density * kernel if density > 0.0 else 0.0


def _outage_sbs(params: SystemParams, p_c: float, ks: InterferenceKernels) -> float:
    """Outage probability of a content served by an SBS within r_sbs.

    Closed form of the distance-averaged failure probability
    integral_0^{r_sbs} [1 - L_sbs(gamma r^alpha / p_sbs)] f(r) dr with the
    truncated-Rayleigh serving density f:

        1 - beta*B*P_c*lam_s * (1 - e^(-pi r^2 D)) /
            (D * (1 - e^(-beta*B*lam_s*P_c*pi*r^2)))

    where D = k1*lam_m + (k2 + P_c*B)*beta*lam_s. :func:`total_outage` has
    checked P_c and calls this only where the SBS hit probability is
    positive, so the serving density nu = beta*B*lam_s*P_c is positive here.
    """
    nu = params.beta * params.subchannels_b * params.lambda_sbs * p_c
    d_dens = _tier_term(params.lambda_mbs, ks.k1) + (
        (ks.k2 + p_c * params.subchannels_b) * params.beta * params.lambda_sbs
    )
    succ = _success_ratio(nu, d_dens, math.pi * params.r_sbs**2)
    return _check_probability(1.0 - succ, "SBS outage")


def _outage_mbs(params: SystemParams, ks: InterferenceKernels) -> float:
    """Outage probability of a content served by an MBS within r_mbs.

    Same structure as the SBS form with the MBS serving density and
    D = lam_m * (k3 + 1) + beta * lam_s * k4; identical for every content
    because MBSs hold the whole library.
    """
    d_dens = params.lambda_mbs * (ks.k3 + 1.0) + _tier_term(params.beta * params.lambda_sbs, ks.k4)
    succ = _success_ratio(params.lambda_mbs, d_dens, math.pi * params.r_mbs**2)
    return _check_probability(1.0 - succ, "MBS outage")


class OutageBreakdown(NamedTuple):
    """Hit probabilities, per-tier outage, and their total combination.

    The one source of per-tier outages, returned by :func:`total_outage`.
    When a tier can never serve (hit probability 0) its outage value is
    stored as 1.0 and carries zero weight in the total. A plain record: it
    iterates in field order and compares equal to the tuple of its values.
    """

    p_hit_sbs: float
    p_hit_mbs: float
    p_out_sbs: float
    p_out_mbs: float
    p_out_total: float


def combine_outage(p_hit_sbs: float, p_hit_mbs: float, p_out_sbs: float, p_out_mbs: float) -> float:
    """Total outage mixture over the serving tiers.

    hit_sbs * out_sbs + (1 - hit_sbs) * (hit_mbs * out_mbs + (1 - hit_mbs)).
    """
    return p_hit_sbs * p_out_sbs + (1.0 - p_hit_sbs) * (
        p_hit_mbs * p_out_mbs + (1.0 - p_hit_mbs)
    )


def total_outage(
    params: SystemParams, p_c: float, ks: InterferenceKernels | None = None
) -> OutageBreakdown:
    """Per-content outage breakdown.

    P_c is checked on entry: outside [0, 1], or NaN, it raises
    :class:`DomainError` before anything is computed. A tier whose hit
    probability is 0 (no SBS holds the content, or no MBS is deployed) is
    not evaluated: the mixture gives it zero weight, so its stored outage of
    1.0 is irrelevant rather than an error. The kernels are evaluated once,
    only when some tier can serve, and shared by both branches; ``ks``
    passes kernels already evaluated for ``params``.
    """
    if not 0.0 <= p_c <= 1.0:
        raise DomainError(f"replication probability must lie in [0, 1], got {p_c}")
    hit_s = sbs_hit_probability(params, p_c)
    hit_m = mbs_hit_probability(params)
    if ks is None and (hit_s > 0.0 or hit_m > 0.0):
        ks = kernels(params)
    out_s = _outage_sbs(params, p_c, ks) if hit_s > 0.0 else 1.0
    out_m = _outage_mbs(params, ks) if hit_m > 0.0 else 1.0
    total = combine_outage(hit_s, hit_m, out_s, out_m)
    return OutageBreakdown(
        p_hit_sbs=hit_s,
        p_hit_mbs=hit_m,
        p_out_sbs=out_s,
        p_out_mbs=out_m,
        p_out_total=_check_probability(total, "total outage"),
    )


def _kernels_if_served(params: SystemParams, p_c: float) -> InterferenceKernels | None:
    """The kernels, or None when no tier can serve a content of replication P_c."""
    if sbs_hit_probability(params, p_c) > 0.0 or mbs_hit_probability(params) > 0.0:
        return kernels(params)
    return None


def average_outage(
    params: SystemParams,
    policy: CachePolicy,
    library: ContentLibrary,
    requests: RequestDistribution,
    ks: InterferenceKernels | None = None,
    totals: dict[float, float] | None = None,
) -> float:
    """Request-averaged outage sum_c q_c * total_outage(P_c).

    Both policies give P_c one value on the cached ranks 1..d and one on
    the rest, so the sum is grouped by distinct P_c: one total_outage call
    per value that carries nonzero request mass, all sharing one kernel
    evaluation. The grouping reorders the floating-point sum, so the result
    can differ from the rank-order sum in the last bits. ``ks`` passes
    kernels already evaluated for ``params``, as in :func:`total_outage`;
    without them the kernels are evaluated here when some tier can serve.

    ``totals`` maps P_c to the total outage already evaluated for
    ``params``. It is read and filled in place, so callers that average
    many libraries or request laws at one ``params`` evaluate each P_c once.
    A cached value is the same float that :func:`total_outage` returns, so
    the result is bit for bit the one computed without it.
    """
    if requests.size != library.size:
        raise DomainError(
            f"request distribution size {requests.size} does not match library size {library.size}"
        )
    d = library.cache_slots
    mass: dict[float, float] = {}
    # rank 1 stands for the head 1..d and rank |C| for the tail d+1..|C|
    for rank, q in ((1, requests.mass(1, d)), (library.size, requests.mass(d + 1, library.size))):
        p_c = replication_probability(policy, rank, library)
        mass[p_c] = mass.get(p_c, 0.0) + q
    served = [p_c for p_c, q in mass.items() if q > 0.0]
    if ks is None:
        # the SBS hit probability grows with P_c: the largest P_c needs kernels if any does
        ks = _kernels_if_served(params, max(served))
    if totals is None:
        totals = {}
    acc = 0.0
    for p_c in served:
        if p_c not in totals:
            totals[p_c] = total_outage(params, p_c, ks).p_out_total
        acc += mass[p_c] * totals[p_c]
    return _check_probability(acc, "average outage")
