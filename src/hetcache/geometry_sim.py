"""Monte-Carlo validation of the closed forms by direct stochastic-geometry simulation.

A realization samples the two Poisson tiers over a finite window, assigns
caches and associates the reference user at the window center (nearest
content-holding SBS within r_sbs, else nearest MBS within r_mbs, else miss).
Under unit-mean exponential fading per link, a trial's SIR > gamma is then a
Bernoulli event of known probability: the estimator draws one uniform per
trial against it, while :func:`simulate_request` draws the fades of one
trial and tests SIR > gamma. No noise: the model is interference limited.

numpy is loaded only for Monte-Carlo: by this module and by the request
weight vector it reads. The package and the sweeps import this module on
first use, so closed-form commands never load numpy.

Process pools
-------------
:func:`estimate_batch` runs every Monte-Carlo point of a sweep in one call,
and :func:`estimate_outage` is its one-point case. A call opens a process
pool only when it pays: when min(workers, realizations, CPUs) > 1, the CPUs
being those this process may run on (its affinity set, where the platform
has one), and the call's expected work reaches :data:`POOL_MIN_WORK` (2e6).
The work is counted in expected points drawn: per realization, the
expected points of each of the call's distinct networks, plus
:data:`READ_WORK` (1/8) times, for each read, its network's points (the
gains its threshold passes over) and its |C| * trials_per_content
uniforms; the call's work is that times the realizations. It then maps its
realizations on one pool of that many processes, which it opens itself and
shuts down before it returns or raises (the CLI's exit without teardown,
:func:`cli.run`, relies on it); a sweep, which makes one call, therefore
opens at most one pool. Every other call runs serially and never
loads ``concurrent.futures``. Below the threshold the pool's start-up
costs more than the second process saves. Command walls with a pool of 2
forced against 1 worker, each process running one BLAS thread as the CLI
sets it, on a 2-vCPU VM shared with other loads: the median ratio of 48
alternating pairs over three series (``fig4.spec`` with ``engines =
analytic, montecarlo`` is a gamma axis of 21 reads on one network):

==============================================  =============  ==========================
input                                           expected work  2 workers against 1
==============================================  =============  ==========================
``fig2.cfg``, 100 realizations                  1.1e6          +5 % (faster in 16 of 48)
``fig2.cfg``, 200 realizations                  2.3e6          -8 % (faster in 37 of 48)
``fig2.cfg``, 300 realizations                  3.4e6          -15 % (faster in 43 of 48)
``fig4.spec``, 50 realizations                  1.8e6          -1 % (faster in 24 of 48)
``fig4.spec``, 100 realizations                 3.7e6          -13 % (faster in 41 of 48)
``mc-sparse-pool`` benchmark sweep              5.5e5          +6 % (faster in 15 of 48)
==============================================  =============  ==========================

The crossover is where it was with OpenBLAS's second thread running in
every process. While other loads keep the second vCPU busy, 2 workers lose
on every input: two such series, of 10 and 20 pairs, read +18 % to +34 %.

Realization kernel
------------------
One generator, ``_servers``, associates every rank of a cache set at once
and yields one group per distinct server (PCP has at most 2, UCP at most
the SBSs inside r_sbs plus one) with its interferer gains, built once. When
no SBS lies within r_sbs, the common case at sparse densities, its one
group is the nearest MBS's (or none), found without matching any cache,
and its ranks are a slice, so the rows of uniforms it compares are a view.
Given those gains, independent unit-mean exponential fades make SIR > gamma
a Bernoulli event of probability prod_i 1 / (1 + gamma * g_i / g_server),
the Laplace functional the closed forms integrate; ``_success`` computes it
with one ``log1p`` pass over the group's interferers. A trial therefore
draws one uniform u, not a fade per link, and fails when u >= p, which
gives every failure count exactly the law that drawing the fades gives it
(conditional Monte-Carlo). The reads that share an association are counted
one server group at a time: the group's rows of the (|C|, trials) block of
uniforms are taken once and compared with its probability at each distinct
gamma of those reads, once per gamma however many reads share it, and the
group is dropped before the next is built. A task of
:func:`estimate_batch` is one realization index over all the call's reads,
planned once per call. It builds each named stream once and rewinds it
per network (see "RNG discipline"). :func:`simulate_request` draws the
fades of one trial of one rank's group and keeps its tier, distance and
SIR, reduced with ``einsum``. The only BLAS products are the two small
``@`` of :func:`_estimates`, once per query, but numpy's import starts
OpenBLAS's thread pool whether or not one runs. The CLI therefore sets
OPENBLAS_NUM_THREADS to 1 unless the caller has set it (:mod:`cli`), so a
command and each of its pool workers run one thread; a program that
imports this module keeps its own BLAS setting.

Interference conventions
------------------------
The closed forms integrate interference from the serving distance outward:
their Laplace exponents keep both tiers silent inside the serving disc. The
default ``"beyond_server"`` convention reproduces exactly that geometry, so
the estimator is a like-for-like check of the formulas. The ``"all"``
convention instead sums every transmitter except the server, i.e. the fully
physical field; it is systematically more pessimistic (
substantially so for MBS-served requests at dense SBS deployments) and is
kept for quantifying that gap. The names and their check live in
:mod:`params`, so the closed-form commands check them without numpy.

Sub-channels
------------
The simulator models a single reference sub-channel: each SBS is active on
it with probability beta, giving the thinned interferer process of density
beta * lambda_sbs. For B > 1 the closed forms use beta*B in the hit and
serving-distance exponents while the interference keeps density
beta * lambda_sbs, so the two would disagree (at B = 2, lambda_sbs = 0.05:
analytic 0.293 against Monte-Carlo 0.332 +- 0.018). :func:`estimate_batch`
therefore refuses B > 1 with ConfigError; the closed forms accept any B.
Before sampling anything it also refuses beta * B = 0, with the closed
forms' ConfigError (p_sbs is undefined there), a negative seed, an unknown
interference convention, a window whose expected point count exceeds
:data:`MAX_POINTS_PER_REALIZATION`, caches whose expected entries exceed
:data:`MAX_CACHE_ENTRIES_PER_REALIZATION`, and a library of |C| ranks whose
block of |C| * trials_per_content uniforms exceeds
:data:`MAX_UNIFORMS_PER_REALIZATION`. A task holds one network at a time,
so these per-point budgets bound what it holds. Its reads share one block
of uniforms, as large as the largest library needs, so the bound on each
query bounds it.

RNG discipline
--------------
One master seed derives independent named streams per realization through
counter-based Philox generators, so parallel execution is order-independent
and results never depend on the worker count. Trials within one realization
share geometry and caches but draw their own uniforms.

- ``geometry``: the MBS count and positions, then the active-SBS count and
  positions.
- ``caches``: UCP with 0 < d < |C| only, one row of |C| uniform scores per
  SBS inside r_sbs, in increasing SBS index. SBSs farther out can never serve and draw no
  cache; interference ignores caches and caches are i.i.d. per SBS, so the
  joint law of every outcome is that of caching at every SBS.
- ``fading``: one block of uniforms drawn by ``random`` in row-major order,
  row c - 1 holding rank c's trials. A read of |C| ranks compares the first
  |C| rows, the block it would draw alone. :func:`simulate_request` draws
  from the generator it is given one row of fades: the serving-link fade,
  then the interferer fades, MBSs before SBSs in index order.

All queries of one :func:`estimate_batch` call share its seed, so for a
realization index they read the same three streams. A task builds each of
them once per realization, the ``caches`` stream only if a cache set draws:
every network reads the ``geometry`` stream from its start, and every UCP
cache set the ``caches`` stream, by restoring the starting state of the
stream's bit generator. That draws exactly what a fresh stream draws and
takes about 1 us, where building a stream takes about 20 us. :func:`_plan`
decides once per call what the reads share, keying each object by what it
depends on, and :func:`_realization_failures` makes each object once per
realization from that plan, drawing the networks one at a time. A network
(one window, and params equal up to gamma) is drawn once, whatever the
policy and the threshold. Its caches are drawn once per (policy,
library): PCP draws none, and UCP draws from ``caches`` only when an SBS
lies within r_sbs and 0 < d < |C|. Its ranks are associated once per
(network, caches), so the points of a gamma axis share one association,
and so do PCP and UCP whenever no SBS lies within r_sbs. Every read
compares the same uniforms, whatever its policy or threshold, so each
result equals its one-point call bit for bit, and outage is nondecreasing
in gamma within a realization, as p falls with gamma. So the estimates of
two policies at one point are paired (common random numbers): a rank both
serve from one server fails the same trials under both, their
per-realization outages correlate, and their difference varies far less
than that of two independent runs.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, InvalidRankError
from .params import (
    DEFAULT_GUARD,
    INTERFERENCE_BEYOND_SERVER,
    CachePolicy,
    ContentLibrary,
    RequestDistribution,
    SystemParams,
    check_count,
    check_guard,
    check_interference,
)

#: Most expected points (MBSs plus active SBSs) of one network, which a task
#: holds one at a time, with one server group's interferer gains. Traced
#: peaks of one realization at beta = 1, alike under PCP (2 server groups)
#: and UCP: 48 MB at 1e6 points (UCP 99 groups; |C| = 1000, d = 10,
#: r_sbs = 5.25 m), 235 MB at 4.9e6 (|C| = 100, d = 30) and 230 MB at 4.8e6
#: (UCP 845 groups; |C| = 1e4, d = 1, r_sbs = 7.7 m). The fig2 operating
#: point needs about 1e4.
MAX_POINTS_PER_REALIZATION = 5_000_000

#: Most expected cache-matrix entries, beta * lambda_sbs * pi * r_sbs^2 * |C|,
#: of one cache set: about 170 MB of UCP scores and their partition.
#: The fig2 operating point needs about 80.
MAX_CACHE_ENTRIES_PER_REALIZATION = 10_000_000

#: Most uniforms, |C| * trials_per_content, one realization may draw: 80 MB,
#: and at most as much again for the copy of a server group's rows that is
#: compared. The fig2 operating point needs 100.
MAX_UNIFORMS_PER_REALIZATION = 10_000_000

#: Least expected work of a call, in expected points drawn, for which
#: :func:`estimate_batch` opens a process pool: below it a second process
#: saves less than the pool costs to start (the table under "Process
#: pools"). fig2.cfg at 176 realizations expects 2e6.
POOL_MIN_WORK = 2_000_000

#: The work of one element of a read's pass, one interferer gain of its
#: network or one uniform it compares, against drawing one point. Serially,
#: on fig2, a realization takes 70-110 ns per point drawn, 7 ns per gain
#: that a further threshold passes over and 12-17 ns per further uniform.
READ_WORK = 0.125

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
    :func:`realize_network` and :func:`estimate_outage` enforce this.
    """

    side: float
    guard: float = DEFAULT_GUARD

    def __post_init__(self) -> None:
        check_guard(self.guard)  # an infinite guard makes an infinite side: name the cause
        if not (self.side > 0.0 and math.isfinite(self.side * self.side)):
            raise ConfigError(f"window side must be > 0 with a finite area, got {self.side}")

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
    only ones that can serve; :func:`simulate_request` refuses a realization
    in which an SBS within r_sbs has no row.
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


def _check_window(params: SystemParams, window: SimWindow) -> None:
    if window.covered_radius() < params.r_mbs + window.guard:
        raise ConfigError(
            f"window (covered radius {window.covered_radius()} m) does not contain "
            f"r_mbs + guard = {params.r_mbs + window.guard} m"
        )


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
    _check_window(params, window)
    mbs, active = _positions(params, window, rng)
    near = np.flatnonzero(_distances(active) <= params.r_sbs)
    caches = _caches(policy, library, near.size, lambda: rng if cache_rng is None else cache_rng)
    return NetworkRealization(
        mbs_points=mbs, active_sbs_points=active, sbs_caches=caches, cached_sbs=near
    )


def _positions(params: SystemParams, window: SimWindow, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The MBS positions, then the active-SBS positions, drawn from ``rng``."""
    mbs = sample_ppp(params.lambda_mbs, window, rng)
    return mbs, sample_ppp(params.beta * params.lambda_sbs, window, rng)


def _caches(
    policy: CachePolicy, library: ContentLibrary, count: int, cache_rng: Callable[[], np.random.Generator]
) -> np.ndarray:
    """Cache rows of ``count`` SBSs: row i holds rank c where column c - 1 is True.

    PCP caches the top d ranks. UCP caches a uniform random d-subset per
    SBS, independent across SBSs, from one row of |C| uniform scores per
    SBS; ``cache_rng()`` gives the generator, and is called only when
    0 < d < |C| and ``count`` > 0, the only case that draws.
    """
    d = library.cache_slots
    caches = np.zeros((count, library.size), dtype=bool)
    if d == library.size:
        caches[:] = True
    elif d > 0:
        if policy is CachePolicy.PCP:
            caches[:, :d] = True
        elif count:
            scores = cache_rng().random((count, library.size))
            picks = np.argpartition(scores, d - 1, axis=1)[:, :d]
            np.put_along_axis(caches, picks, True, axis=1)
    return caches


class Tier(enum.Enum):
    SBS = "sbs"
    MBS = "mbs"
    MISS = "miss"


class ServiceOutcome(NamedTuple):
    """Result of one request trial.

    ``server_distance`` and ``sir`` are None for a miss; ``sir`` is +inf
    when no interferer transmits. Success means the content was delivered:
    a server exists and its SIR strictly exceeds gamma (ties count as
    failure; they have probability zero). A plain record: it iterates in
    field order and compares equal to the tuple of its values.
    """

    tier: Tier
    server_distance: float | None
    sir: float | None
    success: bool


def _sir(signal_gain: float, gains: np.ndarray, fades: np.ndarray) -> np.ndarray:
    """SIR of each row of ``fades``: the serving-link fade, then one fade per interferer.

    ``signal_gain`` and ``gains`` are transmit power times path gain. An
    interference sum that underflows to 0 gives +inf, as no interferer does.
    """
    if gains.size:
        with np.errstate(divide="ignore", over="ignore"):
            return signal_gain * fades[:, 0] / np.einsum("ij,j->i", fades[:, 1:], gains)
    return np.full(len(fades), math.inf)


class _Links(NamedTuple):
    """Every transmitter of a realization: its ``mbs`` MBSs, then its SBSs in index order.

    ``dist`` is each one's distance to the reference user and ``gain`` its
    transmit power times path gain. The caches play no part, so the
    realizations of one network under several cache sets share them.
    """

    mbs: int
    dist: np.ndarray
    gain: np.ndarray


def _links(mbs_points: np.ndarray, sbs_points: np.ndarray, params: SystemParams) -> _Links:
    mbs = len(mbs_points)
    dist = np.empty(mbs + len(sbs_points))
    np.hypot(mbs_points[:, 0], mbs_points[:, 1], out=dist[:mbs])
    np.hypot(sbs_points[:, 0], sbs_points[:, 1], out=dist[mbs:])
    with np.errstate(divide="ignore"):
        gain = np.power(dist, -params.alpha)
    gain[:mbs] *= params.p_mbs
    if len(sbs_points):  # p_sbs is undefined at beta = 0, where no SBS is active
        gain[mbs:] *= params.p_sbs
    return _Links(mbs, dist, gain)


def _servers(links: _Links, caches: np.ndarray, cached_sbs: np.ndarray, params: SystemParams, interference: str):
    """Associate the rank of each column of ``caches``; yield one group per distinct server.

    ``caches`` and ``cached_sbs`` are cache rows and the SBSs that hold them,
    as in :class:`NetworkRealization`, with one column per rank to associate.
    A rank's server is the nearest SBS within r_sbs caching it (ties by
    index), else the nearest MBS within r_mbs, else none (a miss, in no
    group). An SBS within r_sbs that holds no row serves nothing. Groups
    come SBSs nearest first, then the MBS, as (columns, tier, distance,
    signal gain, interferer gains); a gain is transmit power times path
    gain, interferers MBSs first, in index order. With no row within r_sbs
    every rank goes to the MBS, if it serves, and its columns are a slice.
    """
    mbs_count, dist, gain = links
    sbs_dist = dist[mbs_count:]
    rows = np.flatnonzero(sbs_dist[cached_sbs] <= params.r_sbs)
    mbs = int(np.argmin(dist[:mbs_count])) if mbs_count else -1
    mbs_serves = mbs >= 0 and dist[mbs] <= params.r_mbs
    beyond = interference == INTERFERENCE_BEYOND_SERVER

    def group(requests, index: int, tier: Tier):
        interferers = dist >= dist[index] if beyond else np.ones(dist.size, dtype=bool)
        interferers[index] = False
        return requests, tier, float(dist[index]), gain[index], gain[interferers]

    if not rows.size:
        if mbs_serves:
            yield group(slice(0, caches.shape[1]), mbs, Tier.MBS)
        return
    rows = rows[np.argsort(sbs_dist[cached_sbs[rows]], kind="stable")]
    # candidate servers: the SBSs within r_sbs nearest first (code i is
    # cache row rows[i]), then the nearest MBS (code rows.size); argmax over
    # the all-True MBS row finds a rank's first holder
    holds = np.ones((rows.size + 1, caches.shape[1]), dtype=bool)
    holds[:-1] = caches[rows]
    server = holds.argmax(axis=0)
    if not mbs_serves:
        server[server == rows.size] = -1
    # the codes that serve a rank, in increasing order (np.unique would load numpy.ma)
    for code in np.flatnonzero(np.bincount(server[server >= 0])):
        if code < rows.size:
            yield group(np.flatnonzero(server == code), mbs_count + cached_sbs[rows[code]], Tier.SBS)
        else:
            yield group(np.flatnonzero(server == code), mbs, Tier.MBS)


def _success(signal_gain: float, gains: np.ndarray, gamma: float) -> float:
    """P(SIR > gamma) of a server group under independent unit-mean exponential fades.

    ``signal_gain`` and ``gains`` are as in :func:`_sir`. The probability is
    prod_i 1 / (1 + gamma * g_i / signal_gain): 1 with no interferer, and 0
    where a term overflows.
    """
    with np.errstate(over="ignore"):
        # gamma * g_i first: a zero gain stays 0 where gamma / signal_gain overflows
        return math.exp(-np.log1p(gamma * gains / signal_gain).sum())


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
    fades are drawn in one call of ``rng.exponential(size=n)``; a miss draws
    nothing. Interferers are every other transmitter under ``"all"``, or
    only those at or beyond the serving distance under the default
    ``"beyond_server"`` (the geometry the closed forms integrate).
    """
    library_size = realization.sbs_caches.shape[1]
    if not 1 <= content <= library_size:
        raise InvalidRankError(f"content rank must lie in 1..{library_size}, got {content}")
    check_interference(interference)
    links = _links(realization.mbs_points, realization.active_sbs_points, params)
    sbs_dist, cached_sbs = links.dist[links.mbs :], realization.cached_sbs
    if np.count_nonzero(sbs_dist[cached_sbs] <= params.r_sbs) < np.count_nonzero(sbs_dist <= params.r_sbs):
        raise ConfigError("an SBS within r_sbs can serve but the realization holds no cache for it")
    column = realization.sbs_caches[:, content - 1 : content]
    group = next(_servers(links, column, cached_sbs, params, interference), None)
    if group is None:
        return ServiceOutcome(Tier.MISS, None, None, False)
    _, tier, distance, signal_gain, gains = group
    [sir] = _sir(signal_gain, gains, rng.exponential(size=gains.size + 1).reshape(1, -1))
    return ServiceOutcome(tier, distance, float(sir), bool(sir > params.gamma))


class McEstimate(NamedTuple):
    """Binary Monte-Carlo estimate with its binomial standard error.

    A plain record: it iterates as (mean, std_error, trials) and compares
    equal to that tuple.
    """

    mean: float
    std_error: float
    trials: int


def _binary_estimate(failures: int, trials: int) -> McEstimate:
    mean = failures / trials
    return McEstimate(mean=mean, std_error=math.sqrt(mean * (1.0 - mean) / trials), trials=trials)


#: One Monte-Carlo grid point: the parameters, the library and the window.
McPoint = tuple[SystemParams, ContentLibrary, SimWindow]


#: One network of a call's plan: its params (any of its reads', as no draw
#: reads gamma), its window and, per cache set (policy, library), the
#: (query index, gamma) of each read.
_Network = tuple[SystemParams, SimWindow, dict[tuple[CachePolicy, ContentLibrary], list[tuple[int, float]]]]


def _realization_failures(
    networks: Sequence[_Network],
    seed: int,
    trials_per_content: int,
    interference: str,
    r_index: int,
) -> list[np.ndarray]:
    """Per-content failure counts of every read of a call for realization ``r_index``, in query order.

    Draws one block of uniforms from the ``fading`` stream, with the rows of
    the largest library, then the networks one at a time, each dropped
    before the next is drawn. The ``geometry`` stream is built once and each
    network draws from its start; so is the ``caches`` stream, on first use.
    """
    rows = max(library.size for *_, cache_sets in networks for _, library in cache_sets)
    uniforms = stream_rng(seed, "fading", r_index).random((rows, trials_per_content))
    geometry = _rewound(partial(stream_rng, seed, "geometry", r_index))
    caches = _rewound(partial(stream_rng, seed, "caches", r_index))
    failures = {}
    for network in networks:
        failures.update(_network_failures(network, geometry(), caches, interference, uniforms))
    return [failures[query] for query in range(len(failures))]


def _rewound(make: Callable[[], np.random.Generator]) -> Callable[[], np.random.Generator]:
    """A callable that gives the generator ``make()`` builds, at its start on every call.

    The generator is built on the first call; a later call restores its bit
    generator's starting state, which draws what a fresh one draws and costs
    far less than building it ("RNG discipline").
    """
    rng, start = None, None

    def at_start() -> np.random.Generator:
        nonlocal rng, start
        if rng is None:
            rng = make()
            start = rng.bit_generator.state
        else:
            rng.bit_generator.state = start
        return rng

    return at_start


def _network_failures(
    network: _Network,
    geometry: np.random.Generator,
    cache_rng: Callable[[], np.random.Generator],
    interference: str,
    uniforms: np.ndarray,
):
    """Yield (query index, per-content failure counts) for each read of one network.

    The network draws its positions from ``geometry`` and computes its links
    once; each cache set is drawn once, UCP's from ``cache_rng()``, which
    gives the ``caches`` stream at its start. Reads of equal caches (as when
    no SBS lies within r_sbs) share one association and are counted one
    server group at a time: the group's rows of ``uniforms`` are taken once
    and, per distinct gamma of those reads, a trial fails when its uniform
    is not below the group's success probability at that gamma; the group
    is dropped before the next is built. Reads at one gamma share one count
    array, yielded for each. A missed rank, in no group, fails every trial.
    A read of |C| ranks compares the first |C| rows of ``uniforms``.
    """
    params, window, cache_sets = network
    links = _links(*_positions(params, window, geometry), params)
    near = np.flatnonzero(links.dist[links.mbs :] <= params.r_sbs)
    reads_by_caches: dict[tuple, list[tuple[int, float]]] = {}
    for (policy, library), reads in cache_sets.items():
        held = _caches(policy, library, near.size, cache_rng)
        reads_by_caches.setdefault((held.shape, held.tobytes()), []).extend(reads)
    for (shape, held), reads in reads_by_caches.items():
        caches = np.frombuffer(held, dtype=bool).reshape(shape)
        failures = {gamma: np.full(shape[1], uniforms.shape[1]) for _, gamma in reads}
        for requests, _, _, signal_gain, gains in _servers(links, caches, near, params, interference):
            rows = uniforms[requests]
            for gamma, counts in failures.items():
                counts[requests] = np.count_nonzero(rows >= _success(signal_gain, gains, gamma), axis=1)
        for query, gamma in reads:
            yield query, failures[gamma]


def _point_load(params: SystemParams, library: ContentLibrary, window: SimWindow) -> tuple[float, float]:
    """Expected points and cache entries of one realization at a grid point."""
    points = (params.lambda_mbs + params.beta * params.lambda_sbs) * window.area()
    entries = params.beta * params.lambda_sbs * math.pi * params.r_sbs**2 * library.size
    return points, entries


def _check_point(point: McPoint, requests: RequestDistribution, trials_per_content: int) -> float:
    """Refuse a point the simulator cannot run; return its expected points per realization."""
    params, library, window = point
    if requests.size != library.size:
        raise ConfigError(
            f"request distribution size {requests.size} does not match "
            f"library_size {library.size}"
        )
    _check_window(params, window)
    params.p_sbs  # undefined at beta * B == 0: refused with the closed forms' ConfigError
    if params.subchannels_b > 1:
        raise ConfigError(
            f"the simulator models one sub-channel; subchannels_b = {params.subchannels_b} "
            "is supported by the closed forms only"
        )
    if params.alpha * math.log(params.r_mbs) > -math.log(np.finfo(float).tiny):  # r_mbs > r_sbs: the worst
        raise ConfigError(f"alpha = {params.alpha:g} underflows the path gain of a server at r_mbs = "
                          f"{params.r_mbs:g} m below the smallest normal float")
    expected, entries = _point_load(*point)
    if expected > MAX_POINTS_PER_REALIZATION:
        raise ConfigError(
            f"a {window.side:g} m window expects {expected:.3g} points per realization, over "
            f"the simulator's budget of {MAX_POINTS_PER_REALIZATION:.0e}; reduce r_mbs or the densities"
        )
    if entries > MAX_CACHE_ENTRIES_PER_REALIZATION:
        raise ConfigError(
            f"the caches within r_sbs expect {entries:.3g} entries per realization, over the "
            f"simulator's budget of {MAX_CACHE_ENTRIES_PER_REALIZATION:.0e}; reduce r_sbs, "
            "the SBS density or library_size"
        )
    if library.size * trials_per_content > MAX_UNIFORMS_PER_REALIZATION:
        raise ConfigError(
            f"{library.size} ranks x trials_per_content = {trials_per_content} draw "
            f"{library.size * trials_per_content:.3g} uniforms per realization, over the simulator's "
            f"budget of {MAX_UNIFORMS_PER_REALIZATION:.0e}; reduce trials_per_content or library_size"
        )
    return expected


def _plan(
    queries: Sequence[tuple[McPoint, CachePolicy, RequestDistribution]], trials_per_content: int
) -> tuple[list[_Network], float]:
    """Check each query, then group them by network and cache set; sum a realization's work.

    A network is a window and params equal up to gamma: positions, links and
    the SBSs within r_sbs never read gamma, so the points of a gamma axis
    share one. A cache set is a network's policy and library. The work, in
    expected points drawn, is each network's points once, plus
    :data:`READ_WORK` times each read's network points and its
    |C| * trials_per_content uniforms, which its pass reads.
    """
    networks: dict[tuple[SystemParams, SimWindow], _Network] = {}
    work = 0.0
    for query, (point, policy, requests) in enumerate(queries):
        points = _check_point(point, requests, trials_per_content)
        params, library, window = point
        key = replace(params, gamma=1.0), window
        if key not in networks:
            networks[key] = params, window, {}
            work += points
        networks[key][2].setdefault((policy, library), []).append((query, params.gamma))
        work += READ_WORK * (points + library.size * trials_per_content)
    return list(networks.values()), work


def estimate_batch(
    queries: Sequence[tuple[McPoint, CachePolicy, RequestDistribution]],
    seed: int,
    trials_per_content: int = 1,
    realizations: int = 100,
    workers: int = 1,
    interference: str = INTERFERENCE_BEYOND_SERVER,
) -> list[tuple[list[McEstimate], McEstimate]]:
    """:func:`estimate_outage` of each (point, policy, requests) query at one seed.

    Returns one (per-content, average) estimate per query, in query order.
    Every query reads the streams of (seed, realization index) that it
    would read alone, so each result equals the one-point call bit for bit.
    The seed and every point are checked before anything is sampled.

    The call checks each query and plans once what its reads share
    (:func:`_plan`). A task is one
    realization index over every read (:func:`_realization_failures`); each
    query weights its counts by its request law. The tasks run serially or
    on one process pool, by the rule under "Process pools" in the module
    docstring.
    """
    trials_per_content = check_count("trials_per_content", trials_per_content, 1)
    realizations = check_count("realizations", realizations, 1)
    workers = check_count("workers", workers, 1)
    check_interference(interference)
    check_count("seed", seed, 0)
    if not queries:
        return []
    networks, work = _plan(queries, trials_per_content)
    task = partial(_realization_failures, networks, seed, trials_per_content, interference)
    processes = min(workers, realizations, _usable_cpus())
    if processes == 1 or realizations * work < POOL_MIN_WORK:
        counts = list(map(task, range(realizations)))
    else:
        # imported here so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        per_call = max(1, realizations // (4 * processes))  # realizations sent to a worker at once
        with ProcessPoolExecutor(max_workers=processes) as pool:
            counts = list(pool.map(task, range(realizations), chunksize=per_call))
    # each read's counts over the realizations, in query order
    per_read = (np.stack(read) for read in zip(*counts))
    return [
        _estimates(failures, requests, trials_per_content)
        for failures, (_, _, requests) in zip(per_read, queries, strict=True)
    ]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _estimates(
    failure_matrix: np.ndarray, requests: RequestDistribution, trials_per_content: int
) -> tuple[list[McEstimate], McEstimate]:
    """Per-content and average estimates from (realizations, |C|) failure counts."""
    realizations, size = failure_matrix.shape
    failures = failure_matrix.sum(axis=0)
    trials = realizations * trials_per_content
    per_content = [_binary_estimate(int(f), trials) for f in failures]
    per_realization = failure_matrix @ requests.weights / trials_per_content
    # bounded like the closed forms: the weights' sum, and with it the mean
    # of rows that fail every trial, may miss 1 by an ulp
    avg_mean = min(max(float(per_realization.mean()), 0.0), 1.0)
    if realizations > 1:
        avg_se = float(per_realization.std(ddof=1)) / math.sqrt(realizations)
    else:
        # single cluster: fall back to independence propagation
        means = failures / trials
        avg_se = math.sqrt(float((requests.weights**2) @ (means * (1.0 - means) / trials)))
    average = McEstimate(mean=avg_mean, std_error=avg_se, trials=trials * size)
    return per_content, average


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
    index) alone, merged in index order. They run serially or on one
    process pool, by the rule under "Process pools" in the module
    docstring. The one-query :func:`estimate_batch`.
    """
    window = default_window(params) if window is None else window
    [result] = estimate_batch(
        [((params, library, window), policy, requests)], seed,
        trials_per_content=trials_per_content, realizations=realizations, workers=workers,
        interference=interference,
    )
    return result
