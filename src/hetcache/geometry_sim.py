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
has one), and the call's expected work reaches :data:`POOL_MIN_WORK` (1e7).
The work is counted in expected points drawn: per realization, the
expected points of each of the call's distinct networks, plus
:data:`READ_WORK` (1/4) times, for each read, its network's points (the
gains its threshold passes over) and its |C| * trials_per_content
uniforms; the call's work is that times the realizations. It then maps its
realizations on one pool of that many processes, which it opens itself and
shuts down before it returns or raises (the CLI's exit without teardown,
:func:`cli.run`, relies on it); a sweep, which makes one call, therefore
opens at most one pool. Every other call runs serially and never
loads ``concurrent.futures``. Below the threshold the pool's start-up
costs more than the second process saves, or about as much. Command walls
with a pool of 2 forced against 1 worker, each process running one BLAS
thread as the CLI sets it, on a 2-vCPU VM shared with other loads: the
median ratio of 24 alternating pairs in each of two sets of three series
(``fig4.spec`` with ``engines = analytic, montecarlo`` is a gamma axis of
21 reads on one network):

==================================  =============  =====================  ======================
input                               expected work  2 workers against 1,   2 workers against 1,
                                                   series 1-3             series 4-6
==================================  =============  =====================  ======================
``fig2.cfg``, 100 realizations      1.3e6          +31 %, +33 %, +45 %
``fig2.cfg``, 200 realizations      2.5e6          +29 %, +30 %, +30 %
``fig2.cfg``, 300 realizations      3.8e6          +29 %, +33 %, +27 %
``fig2.cfg``, 600 realizations      7.6e6          -5 %, +23 %, +5 %      +23 %, -11 %, -9 %
``fig2.cfg``, 800 realizations      1.0e7                                 -13 %, -13 %, -13 %
``fig2.cfg``, 1000 realizations     1.3e7          -18 %, +17 %, -17 %    -15 %, -21 %, -17 %
``fig4.spec``, 50 realizations      3.2e6          +3 %, +26 %, +6 %
``fig4.spec``, 100 realizations     6.4e6          -10 %, +23 %, -5 %     -8 %, -6 %, -9 %
``fig4.spec``, 160 realizations     1.0e7                                 -17 %, -14 %, -16 %
``mc-sparse-pool`` benchmark sweep  6.6e5          +9 %, +35 %, +11 %
==================================  =============  =====================  ======================

Series 2 ran while other loads held the second vCPU. Below 4e6 of work
2 workers lost in every series. From 1e7 they won in every series of the
second set, in 18 to 24 of its 24 pairs; that is the threshold. Between,
the inputs disagree: fig4 at 6.4e6 won in 5 of 6 series, by 5-10 %, and
fig2 at 7.6e6 in 3 of 6, though serially they take 17.0 and 17.6 ns per
unit of work (min of 7 in-process calls), so :data:`READ_WORK` weighs
them alike. A point costs about 19 ns to draw, so the pool's
start-up outweighs several hundred realizations of fig2.

Realization kernel
------------------
A network is drawn as its transmitters' squared distances to the reference
user and nothing more (``_squared_distances``): the window is a disc
centered on the user, and given its count a Poisson process there has
i.i.d. squared distances uniform on [0, R^2) (the mapping theorem), so a
point costs one uniform and no angle. Every test of association (the radii,
the nearest MBS, the order of the SBSs, the interferers at or beyond the
server) compares squared distances, and a link's gain is p * sq^(-alpha/2)
(``_links``), so no link takes a square root either.
:func:`realize_network` keeps the same squared distances and gives cache
rows by the same ``sq <= r_sbs^2``; only a reported server distance, in
:func:`simulate_request`, is a square root, of that one server's
``sq``. One generator, ``_servers``, associates
every rank of a cache set at once and yields one group per distinct server
(PCP has at most 2, UCP at most the SBSs inside r_sbs plus one) with its
interferer gains, built once. When the cache set has no row, as when no SBS
lies within r_sbs, the common case at sparse densities, its one group is
the nearest MBS's (or none), yielded before any row is gathered, and its
ranks are a slice, so the rows of uniforms it compares are a view.
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
planned once per call. It reads each named stream from one generator
that the call reuses (see "RNG discipline"). :func:`simulate_request`
draws the fades of one trial of one rank's group and keeps its tier, distance and
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
One master seed gives three named streams, each one PCG64DXSM generator
seeded by ``SeedSequence(seed, spawn_key=(stream id,))``. Realization r
reads each stream advanced by r * :data:`STREAM_SPACING` (2^64) draws, a
jump of O(log r) steps (:func:`stream_rng`), so any worker rebuilds any
realization's streams without coordination, and results never depend on
the worker count. Trials within one realization share geometry and caches
but draw their own uniforms.

- ``geometry``: the MBS count, the MBSs' squared distances, the active-SBS
  count, then the SBSs' squared distances, one uniform per point, for
  the estimator and :func:`realize_network` alike.
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
realization index they read the same three streams. A call builds the
generator of each stream once and reuses it (``_Streams``): the fading
block, every network's ``geometry`` draws and every UCP cache set's
``caches`` draws read their stream from realization r's start, which the
call reaches by restoring the generator's starting state and advancing it
(a pool worker builds its own, once per batch of realizations it is sent).
That draws exactly what :func:`stream_rng` draws and takes about 4 us,
where building a SeedSequence and a generator takes about 18 us. :func:`_plan`
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

from .errors import ConfigError
from .params import (
    DEFAULT_GUARD,
    INTERFERENCE_BEYOND_SERVER,
    STREAM_SPACING,
    CachePolicy,
    ContentLibrary,
    RequestDistribution,
    SystemParams,
    check_count,
    check_guard,
    check_interference,
    check_rank,
    check_realizations,
)

#: Most expected points (MBSs plus active SBSs) of one network, which a task
#: holds one at a time, with one server group's interferer gains. Traced
#: peaks of one realization at beta = 1, alike under PCP (2 server groups)
#: and UCP: 40 MB at 1e6 points (UCP 88 groups; |C| = 1000, d = 10,
#: r_sbs = 5.25 m) and, measured while the estimator still drew positions
#: (which left the peak at 1e6 points unchanged), 235 MB at 4.9e6
#: (|C| = 100, d = 30) and 230 MB at 4.8e6 (UCP 845 groups; |C| = 1e4,
#: d = 1, r_sbs = 7.7 m). The fig2 operating point needs about 1e4.
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
#: saves less than the pool costs to start, or about as much (the table
#: under "Process pools"). fig2.cfg at 790 realizations expects 1e7.
POOL_MIN_WORK = 10_000_000

#: The work of one element of a read's pass, one interferer gain of its
#: network or one uniform it compares, against drawing one point. Serially,
#: on fig2 under PCP (1e4 points, 200 realizations, min of 9 runs), a
#: realization takes 19 ns per point drawn, 5-6 ns per gain that a further
#: threshold passes over and 4-21 ns per further uniform, drawn and compared
#: (the spread of a difference of two run times).
READ_WORK = 0.25

_STREAM_IDS = {"geometry": 1, "caches": 2, "fading": 3}

def stream_rng(seed: int, stream: str, r: int = 0) -> np.random.Generator:
    """Realization ``r``'s substream of the named RNG stream at ``seed``, as a new generator.

    One PCG64DXSM per (seed, stream), seeded by ``SeedSequence(seed,
    spawn_key=(stream id,))``; realization r, for 0 <= r < 2^64, reads it
    advanced by r * :data:`STREAM_SPACING` draws, a jump of O(log r) steps,
    so any worker can rebuild any stream without coordination. A seed or
    index that is not an integer >= 0 is refused.
    """
    seed = check_count("seed", seed, 0)
    r = check_count("realization index", r, 0)
    try:
        sid = _STREAM_IDS[stream]
    except KeyError:
        raise ConfigError(f"unknown RNG stream {stream!r}") from None
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(sid,)))
    return _seek(np.random.Generator(bits), None, r)


def _seek(rng: np.random.Generator, start: dict | None, r: int) -> np.random.Generator:
    """``rng`` set to its stream's ``start`` state (None: it is there) and advanced to realization r."""
    r = int(r)
    if not 0 <= r < STREAM_SPACING:  # any other index reads a stream of [0, 2^64) again
        raise ConfigError(f"realization index must lie in [0, 2**64), got {r}")
    if start is not None:
        rng.bit_generator.state = start
    rng.bit_generator.advance(r * STREAM_SPACING)
    return rng


class _Streams:
    """The named streams of one seed, one reused generator per stream, for one call.

    ``at(stream, r)`` gives a generator that draws what ``stream_rng(seed,
    stream, r)`` draws: it builds the stream's generator on first use, then
    restores its starting state and advances it, so no realization builds a
    SeedSequence or a bit generator. The generator is valid until the next
    ``at`` of the same stream.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._built: dict[str, tuple[np.random.Generator, dict]] = {}

    def at(self, stream: str, r: int) -> np.random.Generator:
        if stream not in self._built:
            rng = stream_rng(self.seed, stream)
            self._built[stream] = rng, rng.bit_generator.state
        return _seek(*self._built[stream], r)


@dataclass(frozen=True)
class SimWindow:
    """Simulation window: the disc of area side^2 centered on the reference user.

    Its radius is side / sqrt(pi), so it expects as many points as the
    side x side square centered on the user. A window is accepted as that
    square was, when side / 2 reaches r_mbs plus the guard margin (the
    disc's radius then exceeds it by 13 %); :func:`realize_network` and
    :func:`estimate_outage` enforce this. For a path gain that falls with
    distance, no region of its area holds more expected interference than
    the disc (the bathtub principle), so it misses no more than that square.
    """

    side: float
    guard: float = DEFAULT_GUARD

    def __post_init__(self) -> None:
        check_guard(self.guard)  # an infinite guard makes an infinite side: name the cause
        if not (self.side > 0.0 and math.isfinite(self.side * self.side)):
            raise ConfigError(f"window side must be > 0 with a finite area, got {self.side}")

    def area(self) -> float:
        return self.side**2

    def radius(self) -> float:
        """Radius of the disc, side / sqrt(pi)."""
        return self.side / math.sqrt(math.pi)


def default_window(params: SystemParams, guard: float = DEFAULT_GUARD) -> SimWindow:
    """Disc of the area of a square of side max(1000 m, 2 * (r_mbs + guard))."""
    return SimWindow(max(1000.0, 2.0 * (params.r_mbs + guard)), guard=guard)


def _squared_distances(params: SystemParams, window: SimWindow, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """The MBS count and every transmitter's squared distance to the reference user, MBSs first.

    Draws from ``rng`` the MBS count, the MBSs' squared distances, the
    active-SBS count, then the SBSs': given its count, a Poisson process on
    a disc of radius R centered on the user has i.i.d. squared distances
    uniform on [0, R^2) (the mapping theorem), so each point takes one
    uniform. Active SBSs are drawn at density beta * lambda_sbs, as
    :func:`realize_network` says.
    """
    area = window.area()
    mbs = int(rng.poisson(params.lambda_mbs * area))
    head = rng.random(mbs)
    sq = np.empty(mbs + int(rng.poisson(params.beta * params.lambda_sbs * area)))
    sq[:mbs] = head
    rng.random(out=sq[mbs:])
    sq *= window.radius() ** 2
    return mbs, sq


@dataclass(eq=False)
class NetworkRealization:
    """One sampled network snapshot; treat as immutable after construction.

    ``mbs_points`` and ``active_sbs_points`` hold each transmitter's squared
    distance to the reference user, 1-D. ``sbs_caches`` is the cache
    incidence matrix of the SBSs that hold a cache: row i is the content set
    of active SBS ``cached_sbs[i]``, and ``sbs_caches[i, c-1]`` means rank c
    is cached there. ``cached_sbs`` is strictly increasing; None means every
    active SBS, in order. :func:`realize_network` gives caches only to the
    SBSs within r_sbs, the only ones that can serve; :func:`simulate_request`
    refuses a realization in which an SBS within r_sbs has no row.
    """

    mbs_points: np.ndarray
    active_sbs_points: np.ndarray
    sbs_caches: np.ndarray
    cached_sbs: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.mbs_points = _squared_distance_array("mbs_points", self.mbs_points)
        self.active_sbs_points = _squared_distance_array("active_sbs_points", self.active_sbs_points)
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


def _squared_distance_array(name: str, values) -> np.ndarray:
    """``values`` as 1-D squared distances; refuses any other shape (n x 2 positions), a negative or a NaN."""
    sq = np.asarray(values, dtype=float)
    if sq.ndim != 1 or not np.all(sq >= 0.0):
        least = np.min(sq, initial=math.inf)
        raise ConfigError(f"{name} must be 1-D squared distances >= 0, got shape {sq.shape}, least {least}")
    return sq


def _check_window(params: SystemParams, window: SimWindow) -> None:
    if window.side / 2.0 < params.r_mbs + window.guard:
        raise ConfigError(
            f"window side / 2 = {window.side / 2.0} m must reach "
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
    fraction of the point count. The realization keeps the squared
    distances that the estimator draws from ``rng`` (:func:`_squared_distances`).
    Only the SBSs within r_sbs of the reference user get a cache row
    (``cached_sbs``): no other SBS can serve, and caches play no part in
    interference. PCP caches are the top d ranks; UCP caches are independent
    uniform d-subsets per SBS, drawn from ``cache_rng`` (None: ``rng``).
    """
    _check_window(params, window)
    mbs, sq = _squared_distances(params, window, rng)
    near = _near(sq[mbs:], params)  # the rule association applies
    caches = _caches(policy, library, near.size, lambda: rng if cache_rng is None else cache_rng)
    return NetworkRealization(
        mbs_points=sq[:mbs], active_sbs_points=sq[mbs:], sbs_caches=caches, cached_sbs=near
    )


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

    ``sq`` is each one's squared distance to the reference user, and
    ``gain`` its transmit power times path gain, p * sq^(-alpha/2): a
    distance is only compared or raised to a power, so none is taken; only
    :func:`simulate_request` reports one, the square root of its server's
    ``sq``. The caches play no part, so the realizations of one network
    under several cache sets share them.
    """

    mbs: int
    sq: np.ndarray
    gain: np.ndarray


def _near(sbs_sq: np.ndarray, params: SystemParams) -> np.ndarray:
    """The indices of the SBSs within r_sbs, from their squared distances."""
    return np.flatnonzero(sbs_sq <= params.r_sbs * params.r_sbs)


def _links(mbs: int, sq: np.ndarray, params: SystemParams) -> _Links:
    """The links of transmitters at squared distances ``sq``, the first ``mbs`` of them MBSs."""
    with np.errstate(divide="ignore", over="ignore"):  # a link at or next to the origin: infinite gain
        gain = np.power(sq, -0.5 * params.alpha)
    gain[:mbs] *= params.p_mbs
    if sq.size > mbs:  # p_sbs is undefined at beta = 0, where no SBS is active
        gain[mbs:] *= params.p_sbs
    return _Links(mbs, sq, gain)


def _servers(links: _Links, caches: np.ndarray, cached_sbs: np.ndarray, params: SystemParams, interference: str):
    """Associate the rank of each column of ``caches``; yield one group per distinct server.

    ``caches`` and ``cached_sbs`` are cache rows and the SBSs that hold them,
    as in :class:`NetworkRealization`, with one column per rank to associate.
    A rank's server is the nearest SBS within r_sbs caching it (ties by
    index), else the nearest MBS within r_mbs, else none (a miss, in no
    group). An SBS within r_sbs that holds no row serves nothing. Groups
    come SBSs nearest first, then the MBS, as (columns, tier, server's link
    index, signal gain, interferer gains); a gain is transmit power times
    path gain, interferers MBSs first, in index order. Every test is on the
    squared distances of ``links``: the radii, the nearest MBS, the order of
    the SBSs and, under "beyond_server", the interferers at or beyond the
    server. With no cache row (no SBS within r_sbs, in the estimator) every
    rank goes to the MBS, if it serves, before any row is gathered, and its
    columns are a slice.
    """
    mbs_count, sq, gain = links.mbs, links.sq, links.gain
    mbs = int(np.argmin(sq[:mbs_count])) if mbs_count else -1
    mbs_serves = mbs >= 0 and sq[mbs] <= params.r_mbs * params.r_mbs
    beyond = interference == INTERFERENCE_BEYOND_SERVER

    def group(requests, index: int, tier: Tier):
        interferers = sq >= sq[index] if beyond else np.ones(sq.size, dtype=bool)
        interferers[index] = False
        return requests, tier, index, gain[index], gain[interferers]

    rows = _near(sq[mbs_count:][cached_sbs], params) if cached_sbs.size else cached_sbs
    if not rows.size:
        if mbs_serves:
            yield group(slice(0, caches.shape[1]), mbs, Tier.MBS)
        return
    rows = rows[np.argsort(sq[mbs_count + cached_sbs[rows]], kind="stable")]
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
    ``"beyond_server"`` (the geometry the closed forms integrate). The
    server distance is the square root of its squared distance.
    """
    check_rank(content, realization.sbs_caches.shape[1])
    check_interference(interference)
    sq = np.concatenate((realization.mbs_points, realization.active_sbs_points))
    links = _links(realization.mbs_points.size, sq, params)
    sbs_sq, cached_sbs = links.sq[links.mbs :], realization.cached_sbs
    if _near(sbs_sq[cached_sbs], params).size < _near(sbs_sq, params).size:
        raise ConfigError("an SBS within r_sbs can serve but the realization holds no cache for it")
    column = realization.sbs_caches[:, content - 1 : content]
    group = next(_servers(links, column, cached_sbs, params, interference), None)
    if group is None:
        return ServiceOutcome(Tier.MISS, None, None, False)
    _, tier, index, signal_gain, gains = group
    [sir] = _sir(signal_gain, gains, rng.exponential(size=gains.size + 1).reshape(1, -1))
    return ServiceOutcome(tier, math.sqrt(sq[index]), float(sir), bool(sir > params.gamma))


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
    streams: _Streams,
    trials_per_content: int,
    interference: str,
    r_index: int,
) -> list[np.ndarray]:
    """Per-content failure counts of every read of a call for realization ``r_index``, in query order.

    Draws one block of uniforms from the ``fading`` stream, with the rows of
    the largest library, then the networks one at a time, each dropped
    before the next is drawn. Each network reads the ``geometry`` stream
    from its start, and each UCP cache set the ``caches`` stream.
    """
    rows = max(library.size for *_, cache_sets in networks for _, library in cache_sets)
    uniforms = streams.at("fading", r_index).random((rows, trials_per_content))
    caches = partial(streams.at, "caches", r_index)
    failures = {}
    for network in networks:
        failures.update(_network_failures(network, streams.at("geometry", r_index), caches, interference, uniforms))
    return [failures[query] for query in range(len(failures))]


def _network_failures(
    network: _Network,
    geometry: np.random.Generator,
    cache_rng: Callable[[], np.random.Generator],
    interference: str,
    uniforms: np.ndarray,
):
    """Yield (query index, per-content failure counts) for each read of one network.

    The network draws its squared distances from ``geometry`` and computes
    its links once; each cache set is drawn once, UCP's from
    ``cache_rng()``, which gives the ``caches`` stream at its start. Reads of equal caches (as when
    no SBS lies within r_sbs) share one association and are counted one
    server group at a time: the group's rows of ``uniforms`` are taken once
    and, per distinct gamma of those reads, a trial fails when its uniform
    is not below the group's success probability at that gamma; the group
    is dropped before the next is built. Reads at one gamma share one count
    array, yielded for each. A missed rank, in no group, fails every trial.
    A read of |C| ranks compares the first |C| rows of ``uniforms``.
    """
    params, window, cache_sets = network
    links = _links(*_squared_distances(params, window, geometry), params)
    near = _near(links.sq[links.mbs :], params)
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
                counts[requests] = (rows >= _success(signal_gain, gains, gamma)).sum(axis=1)
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

    A network is a window and params equal up to gamma: squared distances,
    links and the SBSs within r_sbs never read gamma, so the points of a
    gamma axis share one. A cache set is a network's policy and library.
    The work, in expected points drawn, is each network's points once, plus
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
    realizations = check_realizations(realizations)
    workers = check_count("workers", workers, 1)
    check_interference(interference)
    seed = check_count("seed", seed, 0)
    if not queries:
        return []
    networks, work = _plan(queries, trials_per_content)
    task = partial(_realization_failures, networks, _Streams(seed), trials_per_content, interference)
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
