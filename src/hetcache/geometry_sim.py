"""Monte-Carlo validation of the closed forms by direct stochastic-geometry simulation.

One trial samples the two Poisson tiers over a finite window, assigns caches,
associates the reference user at the window center (nearest content-holding
SBS within r_sbs, else nearest MBS within r_mbs, else miss), draws unit-mean
exponential fading per link, and tests SIR > gamma. No noise: the model is
interference limited.

Interference conventions
------------------------
The closed forms integrate interference from the serving distance outward:
their Laplace exponents keep both tiers silent inside the serving disc. The
default ``"beyond_server"`` convention reproduces exactly that geometry, so
the estimator is a like-for-like check of the formulas. The ``"all"``
convention instead sums every transmitter except the server, i.e. the fully
physical field; it is systematically more pessimistic (
substantially so for MBS-served requests at dense SBS deployments) and is
kept for quantifying that gap.

Sub-channels
------------
The simulator models a single reference sub-channel: each SBS is active on
it with probability beta, giving the thinned interferer process of density
beta * lambda_sbs. For B > 1 the closed forms use beta*B in the hit and
serving-distance exponents while the interference keeps density
beta * lambda_sbs, so the two would disagree (at B = 2, lambda_sbs = 0.05:
analytic 0.293 against Monte-Carlo 0.332 +- 0.018). :func:`estimate_outage`
and :func:`simulate_outcomes` therefore refuse B > 1 with ConfigError; the
closed forms accept any B.

RNG discipline
--------------
One master seed derives independent named streams (geometry, caches, fading)
per realization through counter-based Philox generators, so parallel
execution is order-independent and results never depend on the worker count.
Trials within one realization share geometry and caches but redraw fading.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, InvalidRankError
from .params import CachePolicy, ContentLibrary, RequestDistribution, SystemParams

INTERFERENCE_BEYOND_SERVER = "beyond_server"
INTERFERENCE_ALL = "all"
_CONVENTIONS = (INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL)

DEFAULT_GUARD = 250.0

_STREAM_IDS = {"geometry": 1, "caches": 2, "fading": 3}


def stream_rng(seed: int, stream: str, *indices: int) -> np.random.Generator:
    """Independent named RNG substream, keyed by (seed, stream, indices).

    Counter-based (Philox under a spawn-key SeedSequence): any worker can
    reconstruct any stream without coordination.
    """
    try:
        sid = _STREAM_IDS[stream]
    except KeyError:
        raise ConfigError(f"unknown RNG stream {stream!r}") from None
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=(sid, *(int(i) for i in indices)))
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class SimWindow:
    """Square simulation window of side ``side`` centered on the reference user.

    The window must contain the disc of radius r_mbs plus the guard margin;
    :func:`realize_network` enforces this.
    """

    side: float
    guard: float = DEFAULT_GUARD

    def __post_init__(self) -> None:
        if not self.side > 0.0:
            raise ConfigError(f"window side must be > 0, got {self.side}")
        if not self.guard >= 0.0:
            raise ConfigError(f"guard must be >= 0, got {self.guard}")

    def area(self) -> float:
        return self.side**2

    def covered_radius(self) -> float:
        """Radius of the largest origin-centered disc inside the window."""
        return self.side / 2.0

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. uniform positions in the window, shape (n, 2)."""
        half = self.side / 2.0
        return rng.uniform(-half, half, size=(n, 2))


def default_window(params: SystemParams, guard: float = DEFAULT_GUARD) -> SimWindow:
    """Square window of side max(1000 m, 2 * (r_mbs + guard))."""
    return SimWindow(max(1000.0, 2.0 * (params.r_mbs + guard)), guard=guard)


def sample_ppp(intensity: float, window: SimWindow, rng: np.random.Generator) -> np.ndarray:
    """One draw of a homogeneous Poisson process on the window, shape (n, 2)."""
    if not intensity >= 0.0:
        raise DomainError(f"intensity must be >= 0, got {intensity}")
    count = int(rng.poisson(intensity * window.area()))
    return window.sample_points(count, rng)


def thin(points: np.ndarray, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Independent thinning: retain each point with probability keep_prob."""
    if not 0.0 <= keep_prob <= 1.0:
        raise DomainError(f"keep_prob must lie in [0, 1], got {keep_prob}")
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return points[rng.random(len(points)) < keep_prob]


@dataclass(eq=False)
class NetworkRealization:
    """One sampled network snapshot; treat as immutable after construction.

    ``sbs_caches`` is the cache incidence matrix: row j is the content set
    of the j-th active SBS, ``sbs_caches[j, c-1]`` meaning rank c is cached.
    Distances and attenuations from the reference user are cached lazily.
    """

    mbs_points: np.ndarray
    active_sbs_points: np.ndarray
    sbs_caches: np.ndarray

    def __post_init__(self) -> None:
        self.mbs_points = np.asarray(self.mbs_points, dtype=float).reshape(-1, 2)
        self.active_sbs_points = np.asarray(self.active_sbs_points, dtype=float).reshape(-1, 2)
        self.sbs_caches = np.asarray(self.sbs_caches, dtype=bool)
        if self.sbs_caches.ndim != 2 or self.sbs_caches.shape[0] != len(self.active_sbs_points):
            raise ConfigError("sbs_caches must have one row per active SBS")
        self._attenuation_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def library_size(self) -> int:
        return int(self.sbs_caches.shape[1])

    @cached_property
    def mbs_distances(self) -> np.ndarray:
        return np.hypot(self.mbs_points[:, 0], self.mbs_points[:, 1])

    @cached_property
    def sbs_distances(self) -> np.ndarray:
        return np.hypot(self.active_sbs_points[:, 0], self.active_sbs_points[:, 1])

    def attenuations(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(mbs, sbs) path-gain arrays distance**(-alpha), cached per alpha."""
        if alpha not in self._attenuation_cache:
            with np.errstate(divide="ignore"):
                self._attenuation_cache[alpha] = (
                    self.mbs_distances ** (-alpha),
                    self.sbs_distances ** (-alpha),
                )
        return self._attenuation_cache[alpha]


def realize_network(
    params: SystemParams,
    policy: CachePolicy,
    library: ContentLibrary,
    window: SimWindow,
    rng: np.random.Generator,
    cache_rng: np.random.Generator | None = None,
) -> NetworkRealization:
    """Sample MBSs, active SBSs and their caches for one realization.

    Active SBSs are drawn directly at density beta * lambda_sbs: by the
    independent-thinning theorem this is distributionally identical to
    sampling at lambda_sbs and retaining with probability beta, at a
    fraction of the point count. PCP caches are the top d ranks everywhere;
    UCP caches are independent uniform d-subsets per SBS.
    """
    if window.covered_radius() < params.r_mbs + window.guard:
        raise ConfigError(
            f"window (covered radius {window.covered_radius()} m) does not contain "
            f"r_mbs + guard = {params.r_mbs + window.guard} m"
        )
    if cache_rng is None:
        cache_rng = rng
    mbs = sample_ppp(params.lambda_mbs, window, rng)
    active = sample_ppp(params.beta * params.lambda_sbs, window, rng)
    n_active = len(active)
    d = library.cache_slots
    caches = np.zeros((n_active, library.size), dtype=bool)
    if d == library.size:
        caches[:] = True
    elif d > 0:
        if policy is CachePolicy.PCP:
            caches[:, :d] = True
        else:
            # uniform random d-subset per SBS, independent across SBSs
            scores = cache_rng.random((n_active, library.size))
            picks = np.argpartition(scores, d - 1, axis=1)[:, :d]
            np.put_along_axis(caches, picks, True, axis=1)
    return NetworkRealization(mbs_points=mbs, active_sbs_points=active, sbs_caches=caches)


class Tier(enum.Enum):
    SBS = "sbs"
    MBS = "mbs"
    MISS = "miss"


@dataclass(frozen=True)
class ServiceOutcome:
    """Result of one request trial.

    ``server_distance`` and ``sir`` are None for a miss; ``sir`` is +inf
    when no interferer transmits. Success means the content was delivered:
    a server exists and its SIR strictly exceeds gamma (ties count as
    failure; they have probability zero).
    """

    tier: Tier
    server_distance: float | None
    sir: float | None
    success: bool


def simulate_request(
    realization: NetworkRealization,
    content: int,
    params: SystemParams,
    rng: np.random.Generator,
    interference: str = INTERFERENCE_BEYOND_SERVER,
) -> ServiceOutcome:
    """Simulate one request for ``content`` by the reference user.

    Association: nearest active SBS caching the content within r_sbs, else
    nearest MBS within r_mbs, else miss. Fading is drawn fresh per trial for
    the serving link and every interferer link. Interferers are every other
    transmitter under ``"all"``, or only those at or beyond the serving
    distance under the default ``"beyond_server"`` (the geometry the closed
    forms integrate).
    """
    if interference not in _CONVENTIONS:
        raise ConfigError(f"unknown interference convention {interference!r}")
    if not 1 <= content <= realization.library_size:
        raise InvalidRankError(
            f"content rank must lie in 1..{realization.library_size}, got {content}"
        )

    sbs_dist = realization.sbs_distances
    mbs_dist = realization.mbs_distances

    tier = Tier.MISS
    server_idx = -1
    server_dist = math.inf
    if sbs_dist.size:
        eligible = realization.sbs_caches[:, content - 1] & (sbs_dist <= params.r_sbs)
        if eligible.any():
            candidates = np.flatnonzero(eligible)
            server_idx = int(candidates[np.argmin(sbs_dist[candidates])])
            server_dist = float(sbs_dist[server_idx])
            tier = Tier.SBS
    if tier is Tier.MISS and mbs_dist.size:
        nearest = int(np.argmin(mbs_dist))
        if mbs_dist[nearest] <= params.r_mbs:
            server_idx = nearest
            server_dist = float(mbs_dist[nearest])
            tier = Tier.MBS
    if tier is Tier.MISS:
        return ServiceOutcome(tier=Tier.MISS, server_distance=None, sir=None, success=False)

    mbs_att, sbs_att = realization.attenuations(params.alpha)
    p_server = params.p_sbs if tier is Tier.SBS else params.p_mbs
    server_att = (sbs_att if tier is Tier.SBS else mbs_att)[server_idx]
    signal = p_server * float(rng.exponential()) * float(server_att)

    beyond = interference == INTERFERENCE_BEYOND_SERVER
    interference_power = 0.0
    if mbs_dist.size:
        mask = mbs_dist >= server_dist if beyond else np.ones(mbs_dist.size, dtype=bool)
        if tier is Tier.MBS:
            mask = mask.copy()
            mask[server_idx] = False
        gains = mbs_att[mask]
        if gains.size:
            h = rng.exponential(size=gains.size)
            interference_power += params.p_mbs * float(h @ gains)
    if sbs_dist.size:
        mask = sbs_dist >= server_dist if beyond else np.ones(sbs_dist.size, dtype=bool)
        if tier is Tier.SBS:
            mask = mask.copy()
            mask[server_idx] = False
        gains = sbs_att[mask]
        if gains.size:
            h = rng.exponential(size=gains.size)
            interference_power += params.p_sbs * float(h @ gains)

    sir = math.inf if interference_power == 0.0 else signal / interference_power
    return ServiceOutcome(
        tier=tier,
        server_distance=server_dist,
        sir=sir,
        success=sir > params.gamma,
    )


@dataclass(frozen=True)
class McEstimate:
    """Binary Monte-Carlo estimate with its binomial standard error."""

    mean: float
    std_error: float
    trials: int


def _binary_estimate(failures: int, trials: int) -> McEstimate:
    mean = failures / trials
    return McEstimate(mean=mean, std_error=math.sqrt(mean * (1.0 - mean) / trials), trials=trials)


def _check_single_subchannel(params: SystemParams) -> None:
    if params.subchannels_b > 1:
        raise ConfigError(
            f"the simulator models one sub-channel; subchannels_b = {params.subchannels_b} "
            "is supported by the closed forms only"
        )


def _realization(
    params: SystemParams,
    policy: CachePolicy,
    library: ContentLibrary,
    window: SimWindow,
    seed: int,
    r_index: int,
) -> tuple[NetworkRealization, np.random.Generator]:
    """Realization ``r_index`` of a run, and the fading stream for its trials."""
    rng_geometry = stream_rng(seed, "geometry", r_index)
    rng_caches = stream_rng(seed, "caches", r_index)
    rng_fading = stream_rng(seed, "fading", r_index)
    realization = realize_network(params, policy, library, window, rng_geometry, cache_rng=rng_caches)
    return realization, rng_fading


def _realization_failures(args: tuple) -> np.ndarray:
    """Per-content failure counts for one network realization."""
    params, policy, library, window, seed, r_index, trials_per_content, interference = args
    realization, rng_fading = _realization(params, policy, library, window, seed, r_index)
    failures = np.zeros(library.size, dtype=np.int64)
    for content in range(1, library.size + 1):
        for _ in range(trials_per_content):
            outcome = simulate_request(realization, content, params, rng_fading, interference)
            if not outcome.success:
                failures[content - 1] += 1
    return failures


def estimate_outage(
    params: SystemParams,
    policy: CachePolicy,
    library: ContentLibrary,
    requests: RequestDistribution,
    window: SimWindow | None = None,
    trials_per_content: int = 1,
    realizations: int = 100,
    seed: int = 0,
    workers: int = 1,
    interference: str = INTERFERENCE_BEYOND_SERVER,
) -> tuple[list[McEstimate], McEstimate]:
    """Stratified outage estimator.

    Every content rank is simulated ``realizations * trials_per_content``
    times; the average outage weights the per-content means by the request
    probabilities. Per-content standard errors use the binomial formula
    (exact for trials_per_content == 1, where a content's trials are
    independent across realizations). The strata share realizations, so the
    average's standard error is propagated through that clustering: it is
    the sample standard error of the per-realization request-weighted means,
    which independence-based propagation would badly understate.

    Fully deterministic given the seed, for any worker count: realizations
    are independent tasks whose streams derive from (seed, realization
    index) alone, merged in index order.
    """
    if trials_per_content < 1:
        raise ConfigError(f"trials_per_content must be >= 1, got {trials_per_content}")
    if realizations < 1:
        raise ConfigError(f"realizations must be >= 1, got {realizations}")
    if requests.size != library.size:
        raise ConfigError(
            f"request distribution size {requests.size} does not match "
            f"library_size {library.size}"
        )
    _check_single_subchannel(params)
    if window is None:
        window = default_window(params)
    tasks = [
        (params, policy, library, window, seed, r, trials_per_content, interference)
        for r in range(realizations)
    ]
    if workers <= 1:
        counts = [_realization_failures(task) for task in tasks]
    else:
        chunk = max(1, realizations // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_realization_failures, tasks, chunksize=chunk))
    failure_matrix = np.stack(counts)  # (realizations, |C|)
    failures = failure_matrix.sum(axis=0)
    trials = realizations * trials_per_content
    per_content = [_binary_estimate(int(f), trials) for f in failures]
    per_realization = failure_matrix @ requests.weights / trials_per_content
    avg_mean = float(per_realization.mean())
    if realizations > 1:
        avg_se = float(per_realization.std(ddof=1)) / math.sqrt(realizations)
    else:
        # single cluster: fall back to independence propagation
        means = failures / trials
        avg_se = math.sqrt(float((requests.weights**2) @ (means * (1.0 - means) / trials)))
    average = McEstimate(mean=avg_mean, std_error=avg_se, trials=trials * library.size)
    return per_content, average


def simulate_outcomes(
    params: SystemParams,
    policy: CachePolicy,
    library: ContentLibrary,
    content: int,
    window: SimWindow | None = None,
    realizations: int = 100,
    trials_per_content: int = 1,
    seed: int = 0,
    interference: str = INTERFERENCE_BEYOND_SERVER,
) -> list[ServiceOutcome]:
    """Raw per-trial outcomes for one content rank (for distribution checks)."""
    _check_single_subchannel(params)
    if window is None:
        window = default_window(params)
    outcomes: list[ServiceOutcome] = []
    for r in range(realizations):
        realization, rng_fading = _realization(params, policy, library, window, seed, r)
        for _ in range(trials_per_content):
            outcomes.append(simulate_request(realization, content, params, rng_fading, interference))
    return outcomes
