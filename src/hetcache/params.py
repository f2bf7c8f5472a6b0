"""Model parameters, content library, request distributions, caching policies.

Public configuration (config files, ``from_db`` constructors) takes the SIR
threshold in dB and transmit powers in dBm; everything is converted to linear
units exactly once, here. The computational core never sees dB again.

All types are immutable after construction and safe to share across
concurrent workers without synchronization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, InvalidLibraryError, InvalidRankError


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
    enforced. Every value must be finite. The total bandwidth is not a
    parameter because no formula uses it: only ``subchannels_b`` and
    ``beta`` enter.
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
        if not (isinstance(self.subchannels_b, int) and self.subchannels_b >= 1):
            raise ConfigError(f"subchannels_b must be an integer >= 1, got {self.subchannels_b}")

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


@dataclass(frozen=True)
class ContentLibrary:
    """A ranked content library of equal-size items and a per-SBS cache size.

    Contents are identified by popularity rank only (1 = most popular).
    """

    size: int
    cache_slots: int

    def __post_init__(self) -> None:
        if not (isinstance(self.size, int) and self.size >= 1):
            raise InvalidLibraryError(f"library_size must be an integer >= 1, got {self.size}")
        if not (isinstance(self.cache_slots, int) and 0 <= self.cache_slots <= self.size):
            raise ConfigError(
                f"cache_slots must be an integer in [0, {self.size}], got {self.cache_slots}"
            )

    @property
    def normalized_cache(self) -> float:
        """Cache size as a fraction of the library, d / |C|."""
        return self.cache_slots / self.size

    @classmethod
    def from_normalized(cls, d_tilde: float, size: int) -> "ContentLibrary":
        return cls(size=size, cache_slots=cache_slots_from_normalized(d_tilde, size))


def cache_slots_from_normalized(d_tilde: float, library_size: int) -> int:
    """Integer cache size for a normalized cache fraction.

    Rounds half to even and clamps to [0, library_size]. All configurations
    of interest have an integral d_tilde * |C|, so the rounding rule is
    unobservable there.
    """
    if not (isinstance(library_size, int) and library_size >= 1):
        raise InvalidLibraryError(f"library_size must be an integer >= 1, got {library_size}")
    if not 0.0 <= d_tilde <= 1.0:
        raise ConfigError(f"d_tilde must lie in [0, 1], got {d_tilde}")
    slots = round(d_tilde * library_size)
    return max(0, min(library_size, slots))


@dataclass(frozen=True, eq=False)
class RequestDistribution:
    """Request probabilities q_c over popularity ranks c = 1..|C|.

    ``weights[c-1]`` is the probability of requesting rank c. Weights are
    normalized and nonincreasing in rank; ``skew == 0`` is the uniform
    distribution.
    """

    weights: np.ndarray
    skew: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size < 1:
            raise InvalidLibraryError("request weights must be a non-empty 1-D vector")
        if not self.skew >= 0.0:
            raise ConfigError(f"skew must be >= 0, got {self.skew}")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ConfigError(f"request weights must sum to 1 within 1e-12, got {w.sum()!r}")
        if np.any(np.diff(w) > 0.0):
            raise ConfigError("request weights must be nonincreasing in rank")
        w.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.weights.size)


def zipf_request_distribution(library_size: int, delta: float) -> RequestDistribution:
    """Zipf request distribution q_c = c^(-delta) / sum_i i^(-delta).

    ``delta`` controls the skew of the popularity profile; delta = 0
    reproduces the uniform distribution exactly.
    """
    if not (isinstance(library_size, int) and library_size >= 1):
        raise InvalidLibraryError(f"library_size must be an integer >= 1, got {library_size}")
    if not delta >= 0.0:
        raise ConfigError(f"delta must be >= 0, got {delta}")
    ranks = np.arange(1, library_size + 1, dtype=float)
    weights = np.power(ranks, -float(delta))
    weights /= weights.sum()
    return RequestDistribution(weights=weights, skew=float(delta))


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
    if not (isinstance(c, (int, np.integer)) and 1 <= c <= library.size):
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
