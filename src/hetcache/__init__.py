"""Outage analysis for cache-enabled two-tier Poisson cellular networks.

Closed forms (module ``analytic``) and an independent Monte-Carlo simulator
(module ``geometry_sim``) for the storage-bandwidth tradeoff in a macro +
small-cell network with Zipf content popularity, plus sweep orchestration
(``experiments``) and a CLI (``cli``).

``import hetcache`` loads only the configuration layer, ``errors`` and
``params``: enough to parse a config and build a :class:`ModelSetup`. Every
other name below, and the modules ``analytic``, ``experiments`` and
``geometry_sim`` themselves, load on first access (PEP 562), each from the
module named in ``_LAZY``. ``experiments`` loads ``analytic``; ``cli`` loads
both. The closed forms, sweeps of them and the CLI run in pure ``math``:
only ``geometry_sim``, the Monte-Carlo engine, loads numpy.
"""

import importlib

from .errors import (
    ConfigError,
    DivergentIntegralError,
    DomainError,
    HetcacheError,
    InvalidLibraryError,
    InvalidRankError,
)
from .params import (
    INTERFERENCE_ALL,
    INTERFERENCE_BEYOND_SERVER,
    CachePolicy,
    ContentLibrary,
    ModelSetup,
    RequestDistribution,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    parse_config_text,
    replication_probability,
    setup_from_config,
    zipf_request_distribution,
)

__version__ = "0.1.0"

#: Every lazily loaded public name, with the module that defines it.
_LAZY = {
    **dict.fromkeys(
        (
            "InterferenceKernels",
            "OutageBreakdown",
            "average_outage",
            "combine_outage",
            "kernel_integral",
            "kernels",
            "mbs_hit_probability",
            "sbs_hit_probability",
            "total_outage",
        ),
        "analytic",
    ),
    **dict.fromkeys(
        (
            "ENGINE_ANALYTIC",
            "ENGINE_MONTECARLO",
            "McBudget",
            "SweepResult",
            "SweepRow",
            "SweepSpec",
            "Variant",
            "run_sweep",
            "sweep_spec_from_config",
        ),
        "experiments",
    ),
    **dict.fromkeys(
        (
            "McEstimate",
            "NetworkRealization",
            "ServiceOutcome",
            "SimWindow",
            "Tier",
            "default_window",
            "estimate_outage",
            "realize_network",
            "sample_ppp",
            "simulate_request",
            "stream_rng",
        ),
        "geometry_sim",
    ),
}


def __getattr__(name: str):
    if name in _LAZY.values():  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
