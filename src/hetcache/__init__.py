"""Outage analysis for cache-enabled two-tier Poisson cellular networks.

Closed forms (module ``analytic``) and an independent Monte-Carlo simulator
(module ``geometry_sim``) for the storage-bandwidth tradeoff in a macro +
small-cell network with Zipf content popularity, plus sweep orchestration
(``experiments``) and a CLI (``cli``).
"""

from .analytic import (
    InterferenceKernels,
    OutageBreakdown,
    average_outage,
    combine_outage,
    kernel_integral,
    kernels,
    mbs_hit_probability,
    outage_mbs,
    outage_sbs,
    sbs_hit_probability,
    serving_distance_cdf_sbs,
    serving_distance_pdf_mbs,
    serving_distance_pdf_sbs,
    total_outage,
)
from .errors import (
    ConfigError,
    ContentUnreachableError,
    DegenerateNetworkError,
    DivergentIntegralError,
    DomainError,
    HetcacheError,
    InvalidLibraryError,
    InvalidRankError,
)
from .experiments import (
    ENGINE_ANALYTIC,
    ENGINE_MONTECARLO,
    McBudget,
    SweepResult,
    SweepRow,
    SweepSpec,
    Variant,
    run_sweep,
    sweep_spec_from_config,
)
from .geometry_sim import (
    INTERFERENCE_ALL,
    INTERFERENCE_BEYOND_SERVER,
    McEstimate,
    NetworkRealization,
    ServiceOutcome,
    SimWindow,
    Tier,
    default_window,
    estimate_outage,
    realize_network,
    sample_ppp,
    simulate_outcomes,
    simulate_request,
    stream_rng,
)
from .params import (
    CachePolicy,
    ContentLibrary,
    ModelSetup,
    RequestDistribution,
    SystemParams,
    cache_slots_from_normalized,
    db_to_linear,
    dbm_to_watts,
    parse_config_text,
    replication_probability,
    setup_from_config,
    zipf_request_distribution,
)

__version__ = "0.1.0"
