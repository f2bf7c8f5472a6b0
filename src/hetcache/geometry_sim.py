"""Monte-Carlo validation of the closed forms by direct stochastic-geometry simulation.

One trial samples the two Poisson tiers over a finite window, assigns caches,
associates the reference user at the window center (nearest content-holding
SBS within r_sbs, else nearest MBS within r_mbs, else miss), draws unit-mean
exponential fading per link, and tests SIR > gamma. No noise: the model is
interference limited.

Realization kernel
------------------
Every request path (:func:`simulate_request`, :func:`estimate_outage` and
:func:`simulate_outcomes`) runs through one per-realization kernel. It
associates all requested ranks at once over the SBSs inside r_sbs, groups the
requests by server (PCP has at most 2 distinct servers, UCP at most the SBSs
inside r_sbs plus one), builds each server's interferer gains once, and draws
that group's fades in blocks of at most :data:`FADE_BLOCK_DOUBLES` doubles.
Each block is reduced to per-rank failure counts at once, so memory stays
flat in trials x interferers; only the one-rank callers keep the SIRs. The
reduction is an ``einsum`` rather than a BLAS product, so one worker stays
one thread.

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
closed forms accept any B. They also refuse a window whose expected point
count exceeds :data:`MAX_POINTS_PER_REALIZATION`, before sampling anything.

RNG discipline
--------------
One master seed derives independent named streams per realization through
counter-based Philox generators, so parallel execution is order-independent
and results never depend on the worker count. Trials within one realization
share geometry and caches but redraw fading.

- ``geometry``: the MBS count and positions, then the active-SBS count and
  positions.
- ``caches``: UCP with 0 < d < |C| only, one row of |C| uniform scores per
  SBS inside r_sbs, in increasing SBS index. SBSs farther out can never serve and draw no
  cache; interference ignores caches and caches are i.i.d. per SBS, so the
  joint law of every outcome is that of caching at every SBS.
- ``fading``: per distinct server, in association order (SBSs nearest first,
  then the MBS), one row per (requested rank, trial) in rank-major order;
  a row is the serving-link fade followed by the interferer fades, MBSs
  before SBSs in index order. Rows are drawn in blocks of whole rows. No
  draw depends on gamma, so outcomes along a gamma axis share their fades.
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

#: Most doubles one block of fading draws holds (512 KiB). A row wider than
#: this is drawn alone.
FADE_BLOCK_DOUBLES = 1 << 16

#: Most expected points (MBSs plus active SBSs) one realization may sample,
#: about 250 MB of positions, distances and path gains. The fig2 operating
#: point needs about 1e4.
MAX_POINTS_PER_REALIZATION = 5_000_000

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


def _distances(points: np.ndarray) -> np.ndarray:
    return np.hypot(points[:, 0], points[:, 1])


@dataclass(eq=False)
class NetworkRealization:
    """One sampled network snapshot; treat as immutable after construction.

    ``sbs_caches`` is the cache incidence matrix of the SBSs that hold a
    cache: row i is the content set of active SBS ``cached_sbs[i]``, and
    ``sbs_caches[i, c-1]`` means rank c is cached there. ``cached_sbs`` is
    strictly increasing; None means every active SBS, in order.
    :func:`realize_network` gives caches only to the SBSs within r_sbs, the
    only ones that can serve; association refuses a realization lacking a
    cache row for an SBS within r_sbs. Distances and attenuations from the
    reference user are cached lazily.
    """

    mbs_points: np.ndarray
    active_sbs_points: np.ndarray
    sbs_caches: np.ndarray
    cached_sbs: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.mbs_points = np.asarray(self.mbs_points, dtype=float).reshape(-1, 2)
        self.active_sbs_points = np.asarray(self.active_sbs_points, dtype=float).reshape(-1, 2)
        self.sbs_caches = np.asarray(self.sbs_caches, dtype=bool)
        n_active = len(self.active_sbs_points)
        if self.cached_sbs is None:
            self.cached_sbs = np.arange(n_active)
        self.cached_sbs = np.asarray(self.cached_sbs, dtype=np.intp).reshape(-1)
        if self.sbs_caches.ndim != 2 or self.sbs_caches.shape[0] != self.cached_sbs.size:
            raise ConfigError("sbs_caches must have one row per entry of cached_sbs")
        if self.cached_sbs.size and not (
            self.cached_sbs[0] >= 0
            and self.cached_sbs[-1] < n_active
            and np.all(np.diff(self.cached_sbs) > 0)
        ):
            raise ConfigError(f"cached_sbs must be strictly increasing indices in [0, {n_active})")
        self._attenuation_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def library_size(self) -> int:
        return int(self.sbs_caches.shape[1])

    @cached_property
    def mbs_distances(self) -> np.ndarray:
        return _distances(self.mbs_points)

    @cached_property
    def sbs_distances(self) -> np.ndarray:
        return _distances(self.active_sbs_points)

    def attenuations(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(mbs, sbs) path-gain arrays distance**(-alpha), cached per alpha."""
        if alpha not in self._attenuation_cache:
            with np.errstate(divide="ignore"):
                self._attenuation_cache[alpha] = (
                    self.mbs_distances ** (-alpha),
                    self.sbs_distances ** (-alpha),
                )
        return self._attenuation_cache[alpha]

    @cached_property
    def _cache_row_of(self) -> np.ndarray:
        row_of = np.full(len(self.active_sbs_points), -1)
        row_of[self.cached_sbs] = np.arange(self.cached_sbs.size)
        return row_of

    def _cache_rows(self, sbs: np.ndarray) -> np.ndarray:
        """Rows of ``sbs_caches`` holding the caches of active SBSs ``sbs``."""
        rows = self._cache_row_of[sbs]
        if np.any(rows < 0):
            raise ConfigError(
                f"active SBS {int(sbs[rows < 0][0])} can serve but the realization "
                "holds no cache for it"
            )
        return rows


def realize_network(
    params: SystemParams,
    policy: CachePolicy,
    library: ContentLibrary,
    window: SimWindow,
    rng: np.random.Generator,
    cache_rng: np.random.Generator | None = None,
) -> NetworkRealization:
    """Sample MBSs, active SBSs and the caches of the SBSs within r_sbs.

    Active SBSs are drawn directly at density beta * lambda_sbs: by the
    independent-thinning theorem this is distributionally identical to
    sampling at lambda_sbs and retaining with probability beta, at a
    fraction of the point count. Only the SBSs within r_sbs of the reference
    user get a cache row (``cached_sbs``): no other SBS can serve, and caches
    play no part in interference. PCP caches are the top d ranks; UCP caches
    are independent uniform d-subsets per SBS, drawn from ``cache_rng``.
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
    near = np.flatnonzero(_distances(active) <= params.r_sbs)
    d = library.cache_slots
    caches = np.zeros((near.size, library.size), dtype=bool)
    if d == library.size:
        caches[:] = True
    elif d > 0:
        if policy is CachePolicy.PCP:
            caches[:, :d] = True
        else:
            # uniform random d-subset per SBS, independent across SBSs
            scores = cache_rng.random((near.size, library.size))
            picks = np.argpartition(scores, d - 1, axis=1)[:, :d]
            np.put_along_axis(caches, picks, True, axis=1)
    return NetworkRealization(
        mbs_points=mbs, active_sbs_points=active, sbs_caches=caches, cached_sbs=near
    )


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


@dataclass(frozen=True)
class _Served:
    """Kernel output for n requested ranks.

    ``server[i]`` is the position of rank i's server among the ``sbs_count``
    SBSs within r_sbs (nearest first), ``sbs_count`` for the MBS, or -1 for
    a miss. ``distances`` (n,) is NaN for a miss. ``failures`` (n,) counts
    the trials whose SIR does not exceed gamma (a miss fails every trial).
    ``sir`` (n, trials) is kept only on request, NaN for a miss.
    """

    server: np.ndarray
    sbs_count: int
    distances: np.ndarray
    failures: np.ndarray
    sir: np.ndarray | None

    def outcomes(self, request: int, gamma: float) -> list[ServiceOutcome]:
        server = self.server[request]
        if server < 0:
            return [ServiceOutcome(Tier.MISS, None, None, False)] * self.sir.shape[1]
        tier = Tier.SBS if server < self.sbs_count else Tier.MBS
        distance = float(self.distances[request])
        return [ServiceOutcome(tier, distance, float(s), bool(s > gamma)) for s in self.sir[request]]


def _fading_sir(signal_gain: float, gains: np.ndarray, rows: int, rng: np.random.Generator):
    """SIRs of ``rows`` independent fading draws of one server and its interferers.

    ``signal_gain`` and ``gains`` are transmit power times path gain. Each row
    draws the signal fade, then one fade per interferer. Yields (first row,
    SIRs) per block of whole rows, at most :data:`FADE_BLOCK_DOUBLES` draws
    unless one row is wider.
    """
    width = gains.size + 1
    per_block = max(1, FADE_BLOCK_DOUBLES // width)
    for start in range(0, rows, per_block):
        n = min(per_block, rows - start)
        fades = rng.exponential(size=n * width).reshape(n, width)
        if gains.size:
            yield start, signal_gain * fades[:, 0] / np.einsum("ij,j->i", fades[:, 1:], gains)
        else:
            yield start, np.full(n, math.inf)


def _serve(
    realization: NetworkRealization,
    contents: np.ndarray,
    params: SystemParams,
    rng: np.random.Generator,
    interference: str,
    trials: int,
    keep_sir: bool = False,
) -> _Served:
    """Associate every rank in ``contents`` and count its failures over ``trials``.

    The server of a rank is the nearest SBS within r_sbs caching it (ties by
    index), else the nearest MBS within r_mbs, else none. Requests sharing a
    server share its interferer set; see the module docstring for the order
    of the fading draws. Each block of draws is reduced to failure counts at
    once, so memory does not grow with trials unless ``keep_sir``.
    """
    if interference not in _CONVENTIONS:
        raise ConfigError(f"unknown interference convention {interference!r}")
    sbs_dist = realization.sbs_distances
    mbs_dist = realization.mbs_distances
    mbs_att, sbs_att = realization.attenuations(params.alpha)

    near = np.flatnonzero(sbs_dist <= params.r_sbs)
    near = near[np.argsort(sbs_dist[near], kind="stable")]
    # one all-True row below the candidates: argmax finds the first holder,
    # or near.size (the MBS fallback) when no candidate holds the rank
    holds = np.ones((near.size + 1, contents.size), dtype=bool)
    holds[:-1] = realization.sbs_caches[realization._cache_rows(near)[:, None], contents - 1]
    server = holds.argmax(axis=0)
    mbs_server = int(np.argmin(mbs_dist)) if mbs_dist.size else -1
    if mbs_server < 0 or mbs_dist[mbs_server] > params.r_mbs:
        server[server == near.size] = -1

    distances = np.full(contents.size, np.nan)
    failures = np.full(contents.size, trials)
    sir = np.full((contents.size, trials), np.nan) if keep_sir else None
    beyond = interference == INTERFERENCE_BEYOND_SERVER
    for code in np.unique(server[server >= 0]):
        requests = np.flatnonzero(server == code)
        sbs_served = code < near.size
        if sbs_served:
            index, dist, power, att = near[code], sbs_dist, params.p_sbs, sbs_att
        else:
            index, dist, power, att = mbs_server, mbs_dist, params.p_mbs, mbs_att
        r = dist[index]
        mbs_mask = mbs_dist >= r if beyond else np.ones(mbs_dist.size, dtype=bool)
        sbs_mask = sbs_dist >= r if beyond else np.ones(sbs_dist.size, dtype=bool)
        (sbs_mask if sbs_served else mbs_mask)[index] = False
        gains = params.p_mbs * mbs_att[mbs_mask]
        if sbs_dist.size:
            gains = np.concatenate((gains, params.p_sbs * sbs_att[sbs_mask]))
        group_failures = np.zeros(requests.size, dtype=failures.dtype)
        kept = []
        for start, block in _fading_sir(power * att[index], gains, requests.size * trials, rng):
            # rows are rank-major: row k belongs to request k // trials
            first, last = start // trials, (start + block.size - 1) // trials
            failed = start + np.flatnonzero(~(block > params.gamma))
            group_failures[first : last + 1] += np.bincount(
                failed // trials - first, minlength=last + 1 - first
            )
            if keep_sir:
                kept.append(block)
        failures[requests] = group_failures
        if keep_sir:
            sir[requests] = np.concatenate(kept).reshape(requests.size, trials)
        distances[requests] = r
    return _Served(
        server=server, sbs_count=near.size, distances=distances, failures=failures, sir=sir
    )


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
    the serving link and every interferer link, in one call of
    ``rng.exponential(size=n)`` per block (one block unless the interferers
    outnumber :data:`FADE_BLOCK_DOUBLES`). Interferers are every other
    transmitter under ``"all"``, or only those at or beyond the serving
    distance under the default ``"beyond_server"`` (the geometry the closed
    forms integrate). This is the realization kernel of
    :func:`estimate_outage` applied to one rank and one trial.
    """
    if not 1 <= content <= realization.library_size:
        raise InvalidRankError(
            f"content rank must lie in 1..{realization.library_size}, got {content}"
        )
    served = _serve(
        realization, np.array([content]), params, rng, interference, trials=1, keep_sir=True
    )
    return served.outcomes(0, params.gamma)[0]


@dataclass(frozen=True)
class McEstimate:
    """Binary Monte-Carlo estimate with its binomial standard error."""

    mean: float
    std_error: float
    trials: int


def _binary_estimate(failures: int, trials: int) -> McEstimate:
    mean = failures / trials
    return McEstimate(mean=mean, std_error=math.sqrt(mean * (1.0 - mean) / trials), trials=trials)


def _check_simulable(params: SystemParams, window: SimWindow) -> None:
    if params.subchannels_b > 1:
        raise ConfigError(
            f"the simulator models one sub-channel; subchannels_b = {params.subchannels_b} "
            "is supported by the closed forms only"
        )
    expected = (params.lambda_mbs + params.beta * params.lambda_sbs) * window.area()
    if expected > MAX_POINTS_PER_REALIZATION:
        raise ConfigError(
            f"a {window.side:g} m window expects {expected:.3g} points per realization, over "
            f"the simulator's budget of {MAX_POINTS_PER_REALIZATION:.0e}; reduce r_mbs or the densities"
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
    contents = np.arange(1, library.size + 1)
    served = _serve(realization, contents, params, rng_fading, interference, trials_per_content)
    return served.failures


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
    if window is None:
        window = default_window(params)
    _check_simulable(params, window)
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
    if not 1 <= content <= library.size:
        raise InvalidRankError(f"content rank must lie in 1..{library.size}, got {content}")
    if window is None:
        window = default_window(params)
    _check_simulable(params, window)
    outcomes: list[ServiceOutcome] = []
    for r in range(realizations):
        realization, rng_fading = _realization(params, policy, library, window, seed, r)
        served = _serve(
            realization, np.array([content]), params, rng_fading, interference, trials_per_content,
            keep_sir=True,
        )
        outcomes += served.outcomes(0, params.gamma)
    return outcomes
