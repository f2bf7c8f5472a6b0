"""Monte-Carlo validation of the closed forms by direct stochastic-geometry simulation.

One trial samples the two Poisson tiers over a finite window, assigns caches,
associates the reference user at the window center (nearest content-holding
SBS within r_sbs, else nearest MBS within r_mbs, else miss), draws unit-mean
exponential fading per link, and tests SIR > gamma. No noise: the model is
interference limited.

Realization kernel
------------------
One generator, ``_servers``, associates all requested ranks of a realization
at once and yields one group per distinct server (PCP has at most 2, UCP at
most the SBSs inside r_sbs plus one) with its interferer gains, built once.
Two reducers draw a group's fades in blocks of at most
:data:`FADE_BLOCK_DOUBLES` doubles: ``_failures`` (:func:`estimate_outage`)
counts each block's failures at once, so memory stays flat in trials x
interferers, and ``_outcomes`` (:func:`simulate_request`,
:func:`simulate_outcomes`) keeps one rank's SIRs. SIRs are reduced with
``einsum``, not a BLAS product, so one worker stays one thread.

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
  before SBSs in index order. Rows are drawn in blocks of whole rows, which
  gives the same values as drawing them one by one. :func:`simulate_outcomes`
  requests one rank, so a realization's trials form one server group. No
  draw depends on gamma, so outcomes along a gamma axis share their fades.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

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
    only ones that can serve; association refuses a realization in which an
    SBS within r_sbs has no row. Distances and path gains from the reference
    user are cached lazily.
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
        self._path_gains: dict[float, np.ndarray] = {}

    @property
    def library_size(self) -> int:
        return int(self.sbs_caches.shape[1])

    @cached_property
    def distances(self) -> np.ndarray:
        """Distances of the MBSs, then of the active SBSs, in index order."""
        return _distances(np.concatenate((self.mbs_points, self.active_sbs_points)))

    def path_gains(self, alpha: float) -> np.ndarray:
        """``distances ** -alpha``, cached per alpha."""
        if alpha not in self._path_gains:
            with np.errstate(divide="ignore"):
                self._path_gains[alpha] = self.distances ** (-alpha)
        return self._path_gains[alpha]


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


def _servers(
    realization: NetworkRealization,
    contents: np.ndarray,
    params: SystemParams,
    interference: str,
):
    """Associate every rank in ``contents``; yield one group per distinct server.

    A rank's server is the nearest SBS within r_sbs caching it (ties by
    index), else the nearest MBS within r_mbs, else none (a miss, in no
    group). Groups come SBSs nearest first, then the MBS, as (positions in
    ``contents``, tier, distance, signal gain, interferer gains); a gain is
    transmit power times path gain, interferers MBSs first, in index order.
    """
    if interference not in _CONVENTIONS:
        raise ConfigError(f"unknown interference convention {interference!r}")
    dist = realization.distances  # MBSs, then SBSs: the order of the interferer gains
    mbs_dist, sbs_dist = np.split(dist, [len(realization.mbs_points)])
    path_gain = realization.path_gains(params.alpha)
    gain = params.p_mbs * path_gain
    if sbs_dist.size:  # p_sbs is undefined at beta = 0, where no SBS is active
        gain[mbs_dist.size :] = params.p_sbs * path_gain[mbs_dist.size :]

    rows = np.flatnonzero(sbs_dist[realization.cached_sbs] <= params.r_sbs)
    if rows.size < np.count_nonzero(sbs_dist <= params.r_sbs):
        raise ConfigError("an SBS within r_sbs can serve but the realization holds no cache for it")
    rows = rows[np.argsort(sbs_dist[realization.cached_sbs[rows]], kind="stable")]
    # candidate servers, as indices into dist: the SBSs within r_sbs nearest
    # first, then the nearest MBS; argmax over the all-True MBS row finds a
    # rank's first holder
    mbs = int(np.argmin(mbs_dist)) if mbs_dist.size else -1
    candidates = np.append(mbs_dist.size + realization.cached_sbs[rows], mbs)
    holds = np.ones((candidates.size, contents.size), dtype=bool)
    holds[:-1] = realization.sbs_caches[rows[:, None], contents - 1]
    server = holds.argmax(axis=0)
    if mbs < 0 or dist[mbs] > params.r_mbs:
        server[server == rows.size] = -1

    beyond = interference == INTERFERENCE_BEYOND_SERVER
    for code in np.unique(server[server >= 0]):
        index = candidates[code]
        interferers = dist >= dist[index] if beyond else np.ones(dist.size, dtype=bool)
        interferers[index] = False
        tier = Tier.SBS if code < rows.size else Tier.MBS
        yield np.flatnonzero(server == code), tier, float(dist[index]), gain[index], gain[interferers]


def _failures(
    realization: NetworkRealization,
    contents: np.ndarray,
    params: SystemParams,
    rng: np.random.Generator,
    interference: str,
    trials: int,
) -> np.ndarray:
    """Per-rank counts of the ``trials`` whose SIR does not exceed gamma.

    A missed rank fails every trial. Each block of fading draws is reduced
    to counts at once, so memory does not grow with trials.
    """
    failures = np.full(contents.size, trials)
    for requests, _, _, signal_gain, gains in _servers(realization, contents, params, interference):
        failures[requests] = 0
        for start, sir in _fading_sir(signal_gain, gains, requests.size * trials, rng):
            # rows are rank-major: row k belongs to request k // trials
            failed = start + np.flatnonzero(~(sir > params.gamma))
            failures[requests] += np.bincount(failed // trials, minlength=requests.size)
    return failures


def _outcomes(
    realization: NetworkRealization,
    content: int,
    params: SystemParams,
    rng: np.random.Generator,
    interference: str,
    trials: int,
) -> list[ServiceOutcome]:
    """``trials`` outcomes of requests for rank ``content``, one server group."""
    group = next(_servers(realization, np.array([content]), params, interference), None)
    if group is None:
        return [ServiceOutcome(Tier.MISS, None, None, False)] * trials
    _, tier, distance, signal_gain, gains = group
    return [
        ServiceOutcome(tier, distance, float(s), bool(s > params.gamma))
        for _, sir in _fading_sir(signal_gain, gains, trials, rng)
        for s in sir
    ]


def simulate_request(
    realization: NetworkRealization,
    content: int,
    params: SystemParams,
    rng: np.random.Generator,
    interference: str = INTERFERENCE_BEYOND_SERVER,
) -> ServiceOutcome:
    """Simulate one request for ``content`` by the reference user.

    Association: nearest active SBS caching the content within r_sbs, else
    nearest MBS within r_mbs, else miss. The serving-link and interferer
    fades are drawn in one call of ``rng.exponential(size=n)`` (one call per
    block when the interferers outnumber :data:`FADE_BLOCK_DOUBLES`).
    Interferers are every other transmitter under ``"all"``, or only those at
    or beyond the serving distance under the default ``"beyond_server"`` (the
    geometry the closed forms integrate). This is the kernel of
    :func:`simulate_outcomes` at one trial.
    """
    if not 1 <= content <= realization.library_size:
        raise InvalidRankError(
            f"content rank must lie in 1..{realization.library_size}, got {content}"
        )
    return _outcomes(realization, content, params, rng, interference, trials=1)[0]


@dataclass(frozen=True)
class McEstimate:
    """Binary Monte-Carlo estimate with its binomial standard error."""

    mean: float
    std_error: float
    trials: int


def _binary_estimate(failures: int, trials: int) -> McEstimate:
    mean = failures / trials
    return McEstimate(mean=mean, std_error=math.sqrt(mean * (1.0 - mean) / trials), trials=trials)


def _checked_window(params: SystemParams, window: SimWindow | None) -> SimWindow:
    window = default_window(params) if window is None else window
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
    return window


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


def _realization_failures(
    params: SystemParams,
    policy: CachePolicy,
    library: ContentLibrary,
    window: SimWindow,
    seed: int,
    trials_per_content: int,
    interference: str,
    r_index: int,
) -> np.ndarray:
    """Per-content failure counts for network realization ``r_index``."""
    realization, rng_fading = _realization(params, policy, library, window, seed, r_index)
    contents = np.arange(1, library.size + 1)
    return _failures(realization, contents, params, rng_fading, interference, trials_per_content)


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
    window = _checked_window(params, window)
    task = partial(
        _realization_failures, params, policy, library, window, seed, trials_per_content,
        interference,
    )
    if workers <= 1:
        counts = list(map(task, range(realizations)))
    else:
        chunk = max(1, realizations // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(task, range(realizations), chunksize=chunk))
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
    window = _checked_window(params, window)
    outcomes: list[ServiceOutcome] = []
    for r in range(realizations):
        realization, rng_fading = _realization(params, policy, library, window, seed, r)
        outcomes += _outcomes(realization, content, params, rng_fading, interference, trials_per_content)
    return outcomes
