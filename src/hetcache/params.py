"""Model parameters, content library, request distributions, caching policies.

Public configuration (config files, ``from_db`` constructors) takes the SIR
threshold in dB and transmit powers in dBm; everything is converted to linear
units exactly once, here. The computational core never sees dB again.

All types are immutable after construction and safe to share across
concurrent workers without synchronization (a RequestDistribution caches the
sums it has made, which never changes a value). Nothing here imports numpy
unless the Monte-Carlo engine asks for the request weight vector.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING

from .errors import ConfigError, InvalidLibraryError, InvalidRankError

if TYPE_CHECKING:
    import numpy as np

#: Default margin, in m, between the disc of radius r_mbs and the edge of the
#: Monte-Carlo window.
DEFAULT_GUARD = 250.0


#: The Monte-Carlo interference conventions (see :mod:`geometry_sim`), kept
#: here so that every command checks a config file's one without numpy.
INTERFERENCE_BEYOND_SERVER = "beyond_server"
INTERFERENCE_ALL = "all"


def check_interference(interference: str) -> str:
    """The interference convention; refuses any but the two above."""
    if interference not in (INTERFERENCE_BEYOND_SERVER, INTERFERENCE_ALL):
        raise ConfigError(
            f"unknown interference convention {interference!r}; choose "
            f"'{INTERFERENCE_BEYOND_SERVER}' or '{INTERFERENCE_ALL}'"
        )
    return interference


def check_guard(guard: float) -> None:
    """Refuse a Monte-Carlo window margin that is negative or not finite."""
    if not (math.isfinite(guard) and guard >= 0.0):
        raise ConfigError(f"guard must be a finite margin >= 0 m, got {guard}")


def check_count(name: str, value: int, least: int) -> int:
    """The Monte-Carlo count as a plain int; refuses a non-integer or one below ``least``.

    numpy integers pass, as in :func:`replication_probability`.
    """
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


#: The spacing, in draws, of the Monte-Carlo realizations' RNG streams:
#: realization r reads each named stream's PCG64DXSM generator advanced by
#: r * STREAM_SPACING (:func:`geometry_sim.stream_rng`). One realization
#: draws at most about 1e7 values from a stream (the per-realization budgets
#: cap its points, cache entries and uniforms), far fewer than 2**64, so no
#: two realizations' streams overlap. The generator's period is 2**128, so
#: the streams wrap at r = 2**64; :func:`check_realizations` refuses 2**64
#: realizations or more.
STREAM_SPACING = 1 << 64


def check_realizations(realizations: int) -> int:
    """The realization count as a plain int; refuses one below 1 or from 2**64 up.

    Realization r reads its RNG streams r * :data:`STREAM_SPACING` draws in,
    which wraps the generator's period of 2**128 at r = 2**64.
    """
    realizations = check_count("realizations", realizations, 1)
    if realizations >= STREAM_SPACING:
        raise ConfigError(
            f"realizations must be below 2**64, where the realizations' RNG streams wrap, got {realizations}"
        )
    return realizations


def _check_fits_float(name: str, value: int, error: type[ConfigError]) -> None:
    if value > sys.float_info.max:  # the closed forms take it as a float
        raise error(f"{name} must be at most {sys.float_info.max:.6g}, the largest float")


def db_to_linear(value_db: float) -> float:
    """Convert a dB ratio to a linear ratio (inf when it overflows a float)."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:  # SystemParams refuses inf, naming the field
        return math.inf


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a dBm power to watts (inf when it overflows a float)."""
    try:
        return 10.0 ** ((value_dbm - 30.0) / 10.0)
    except OverflowError:  # SystemParams refuses inf, naming the field
        return math.inf


@dataclass(frozen=True)
class SystemParams:
    """Physical-layer and geometry parameters of the two-tier network.

    Units: densities per m^2, radii in m, powers in W, ``gamma`` linear.
    The regime of interest has ``lambda_sbs >> lambda_mbs`` but this is not
    enforced. Every value must be finite, and so must the MBS service area
    pi * r_mbs^2 and, when beta > 0, :attr:`p_sbs`; the per-subchannel
    powers must not underflow to 0 W; ``subchannels_b`` must fit in a
    float. The total bandwidth is not a parameter because no formula uses
    it: only ``subchannels_b`` and ``beta`` enter.
    """

    lambda_mbs: float  # macro-cell density, per m^2
    lambda_sbs: float  # small-cell density, per m^2
    beta: float        # spectrum access factor, in [0, 1]
    p_max_mbs: float   # maximum MBS transmit power, W
    p_max_sbs: float   # maximum SBS transmit power, W
    alpha: float       # path-loss exponent, > 2
    gamma: float       # SIR threshold, linear, > 0
    r_sbs: float       # SBS service radius, m
    r_mbs: float       # MBS service radius, m
    subchannels_b: int = 1

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name != "subchannels_b" and math.isinf(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if not self.lambda_mbs >= 0.0:
            raise ConfigError(f"lambda_mbs must be >= 0, got {self.lambda_mbs}")
        if not self.lambda_sbs >= 0.0:
            raise ConfigError(f"lambda_sbs must be >= 0, got {self.lambda_sbs}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if not self.p_max_mbs > 0.0:
            raise ConfigError(f"p_max_mbs must be > 0 W, got {self.p_max_mbs}")
        if not self.p_max_sbs > 0.0:
            raise ConfigError(f"p_max_sbs must be > 0 W, got {self.p_max_sbs}")
        if not self.alpha > 2.0:
            raise ConfigError(f"alpha must be > 2, got {self.alpha}")
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be > 0 (linear), got {self.gamma}")
        if not (self.r_mbs > self.r_sbs > 0.0):
            raise ConfigError(
                f"service radii must satisfy r_mbs > r_sbs > 0, "
                f"got r_mbs={self.r_mbs}, r_sbs={self.r_sbs}"
            )
        if not math.isfinite(math.pi * self.r_mbs * self.r_mbs):  # bounds the SBS disc too
            raise ConfigError(
                f"r_mbs must have a finite disc area pi * r_mbs^2, got r_mbs={self.r_mbs}"
            )
        if not (isinstance(self.subchannels_b, int) and self.subchannels_b >= 1):
            raise ConfigError(f"subchannels_b must be an integer >= 1, got {self.subchannels_b}")
        _check_fits_float("subchannels_b", self.subchannels_b, ConfigError)
        if self.beta > 0.0 and math.isinf(self.p_sbs):  # beta * B >= beta > 0 here
            raise ConfigError(f"beta must be 0 or large enough that p_sbs is finite, got {self.beta}")
        # a per-subchannel power that underflows to 0 W divides the kernels' power ratios
        if self.p_mbs == 0.0:
            raise ConfigError(
                f"p_max_mbs must be large enough that p_mbs = p_max_mbs / subchannels_b is > 0, "
                f"got {self.p_max_mbs} W"
            )
        if self.beta > 0.0 and self.p_sbs == 0.0:
            raise ConfigError(
                f"p_max_sbs must be large enough that p_sbs = p_max_sbs / (beta * subchannels_b) is > 0, "
                f"got {self.p_max_sbs} W"
            )

    @classmethod
    def from_db(
        cls,
        *,
        lambda_mbs: float,
        lambda_sbs: float,
        beta: float,
        p_max_mbs_dbm: float,
        p_max_sbs_dbm: float,
        alpha: float,
        gamma_db: float,
        r_sbs: float,
        r_mbs: float,
        subchannels_b: int = 1,
    ) -> "SystemParams":
        """Build params from boundary units (powers in dBm, threshold in dB)."""
        return cls(
            lambda_mbs=lambda_mbs,
            lambda_sbs=lambda_sbs,
            beta=beta,
            p_max_mbs=dbm_to_watts(p_max_mbs_dbm),
            p_max_sbs=dbm_to_watts(p_max_sbs_dbm),
            alpha=alpha,
            gamma=db_to_linear(gamma_db),
            r_sbs=r_sbs,
            r_mbs=r_mbs,
            subchannels_b=subchannels_b,
        )

    @property
    def p_mbs(self) -> float:
        """Per-subchannel MBS transmit power, p_max_mbs / B."""
        return self.p_max_mbs / self.subchannels_b

    @property
    def p_sbs(self) -> float:
        """Per-subchannel SBS transmit power, p_max_sbs / (beta * B).

        Defined only when beta * B > 0.
        """
        denom = self.beta * self.subchannels_b
        if denom <= 0.0:
            raise ConfigError("p_sbs is undefined: beta * subchannels_b == 0")
        return self.p_max_sbs / denom


def _check_library_size(size: int) -> None:
    if not (isinstance(size, int) and size >= 1):
        raise InvalidLibraryError(f"library_size must be an integer >= 1, got {size}")
    _check_fits_float("library_size", size, InvalidLibraryError)


@dataclass(frozen=True)
class ContentLibrary:
    """A ranked content library of equal-size items and a per-SBS cache size.

    Contents are identified by popularity rank only (1 = most popular).
    :meth:`from_normalized` is the one source of a normalized cache size.
    """

    size: int
    cache_slots: int

    def __post_init__(self) -> None:
        _check_library_size(self.size)
        if not (isinstance(self.cache_slots, int) and 0 <= self.cache_slots <= self.size):
            raise ConfigError(
                f"cache_slots must be an integer in [0, {self.size}], got {self.cache_slots}"
            )

    @classmethod
    def from_normalized(cls, d_tilde: float, size: int) -> ContentLibrary:
        """The library of ``size`` contents whose caches hold the fraction ``d_tilde`` of it.

        The cache size is d_tilde * size rounded half to even, and at most
        ``size``. All configurations of interest have an integral
        d_tilde * |C|, so the rounding rule is unobservable there.
        """
        _check_library_size(size)
        if not 0.0 <= d_tilde <= 1.0:
            raise ConfigError(f"d_tilde must lie in [0, 1], got {d_tilde}")
        return cls(size=size, cache_slots=min(size, round(d_tilde * size)))


@dataclass(frozen=True)
class RequestDistribution:
    """Zipf request law q_c = c^(-skew) / sum_i i^(-skew) over ranks c = 1..size.

    The law is held as its two parameters; ``skew == 0`` is the uniform
    distribution. The closed forms read request masses of rank ranges
    (:meth:`mass`) summed in pure ``math``; only the Monte-Carlo engine reads
    the full :attr:`weights` vector, which is the one place numpy is loaded.
    """

    size: int
    skew: float
    _masses: dict[tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_library_size(self.size)
        if not self.skew >= 0.0:
            raise ConfigError(f"delta (the Zipf skew) must be >= 0, got {self.skew}")

    def _power_sum(self, first: int, last: int) -> float:
        return math.fsum(map(pow, range(first, last + 1), repeat(-self.skew)))

    @cached_property
    def _normalizer(self) -> float:
        return self._power_sum(1, self.size)

    def mass(self, first: int, last: int) -> float:
        """Request probability of ranks first..last; 0.0 for an empty range.

        Each range is summed once (correctly rounded by ``math.fsum``) and
        cached, so a sweep pays for each distinct cache size once.
        """
        key = (first, last)
        if key not in self._masses:
            self._masses[key] = self._power_sum(first, last) / self._normalizer
        return self._masses[key]

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only float64 vector, ``weights[c-1]`` = q_c, built on first access."""
        import numpy as np

        ranks = np.arange(1, self.size + 1, dtype=float)
        weights = np.power(ranks, -self.skew)
        weights /= weights.sum()
        weights.setflags(write=False)
        return weights


def zipf_request_distribution(library_size: int, delta: float) -> RequestDistribution:
    """Zipf request distribution q_c = c^(-delta) / sum_i i^(-delta).

    ``delta`` controls the skew of the popularity profile; delta = 0
    reproduces the uniform distribution exactly. Nothing is summed here:
    masses and weights are computed when first asked for.
    """
    return RequestDistribution(size=library_size, skew=float(delta))


class CachePolicy(enum.Enum):
    """Cache placement rule for small cells.

    UCP stores a uniform random d-subset of the library at each SBS; PCP
    stores the d most popular contents at every SBS.
    """

    UCP = "ucp"
    PCP = "pcp"


def replication_probability(policy: CachePolicy, c: int, library: ContentLibrary) -> float:
    """Probability P_c that content rank c is cached at a given SBS.

    UCP: d / |C| for every rank. PCP: 1 for c <= d, else 0.
    """
    if not ((type(c) is int or isinstance(c, numbers.Integral)) and 1 <= c <= library.size):
        raise InvalidRankError(f"content rank must lie in 1..{library.size}, got {c}")
    if policy is CachePolicy.UCP:
        return library.cache_slots / library.size
    return 1.0 if c <= library.cache_slots else 0.0


@dataclass(frozen=True)
class ModelSetup:
    """One complete model instance: network, policy, library and requests."""

    params: SystemParams
    policy: CachePolicy
    library: ContentLibrary
    requests: RequestDistribution

    def __post_init__(self) -> None:
        if self.requests.size != self.library.size:
            raise ConfigError(
                f"request distribution size {self.requests.size} does not match "
                f"library_size {self.library.size}"
            )


# --------------------------------------------------------------------------
# Plain-text configuration files: one `key = value` per line, `#` comments.
# --------------------------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a string map.

    Blank lines are skipped; everything after ``#`` is a comment. Duplicate
    or malformed keys raise ConfigError naming the offender.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw.strip()!r}")
        if key in values:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        values[key] = value
    return values


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {cfg[key]!r}") from None


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {cfg[key]!r}") from None


#: Keys consumed by :func:`setup_from_config`. Powers are in dBm, gamma in dB,
#: densities per m^2, radii in m.
SETUP_KEYS = frozenset(
    {
        "lambda_mbs",
        "lambda_sbs",
        "subchannels_b",
        "beta",
        "p_max_mbs",
        "p_max_sbs",
        "alpha",
        "gamma",
        "r_sbs",
        "r_mbs",
        "library_size",
        "cache_slots",
        "d_tilde",
        "policy",
        "delta",
    }
)


def setup_from_config(cfg: dict[str, str]) -> ModelSetup:
    """Build a ModelSetup from parsed config values (boundary units)."""
    params = SystemParams.from_db(
        lambda_mbs=get_float(cfg, "lambda_mbs"),
        lambda_sbs=get_float(cfg, "lambda_sbs"),
        beta=get_float(cfg, "beta"),
        p_max_mbs_dbm=get_float(cfg, "p_max_mbs"),
        p_max_sbs_dbm=get_float(cfg, "p_max_sbs"),
        alpha=get_float(cfg, "alpha"),
        gamma_db=get_float(cfg, "gamma"),
        r_sbs=get_float(cfg, "r_sbs"),
        r_mbs=get_float(cfg, "r_mbs"),
        subchannels_b=get_int(cfg, "subchannels_b", 1),
    )
    size = get_int(cfg, "library_size")
    if "cache_slots" in cfg and "d_tilde" in cfg:
        raise ConfigError("give either 'cache_slots' or 'd_tilde', not both")
    if "cache_slots" in cfg:
        library = ContentLibrary(size=size, cache_slots=get_int(cfg, "cache_slots"))
    else:
        library = ContentLibrary.from_normalized(get_float(cfg, "d_tilde"), size)
    policy_name = cfg.get("policy", "ucp").lower()
    try:
        policy = CachePolicy(policy_name)
    except ValueError:
        raise ConfigError(f"key 'policy': expected 'ucp' or 'pcp', got {cfg['policy']!r}") from None
    requests = zipf_request_distribution(size, get_float(cfg, "delta", 0.0))
    return ModelSetup(params=params, policy=policy, library=library, requests=requests)
