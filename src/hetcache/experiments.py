"""Parameter sweeps running the analytic and Monte-Carlo engines side by side.

A sweep is a grid over one or two configuration axes, evaluated for a set of
caching/popularity variants with one row per (grid point, variant, engine).
A row holds results only, so the table is a function of the spec and its
seed, the same for any worker count. Rows are emitted in deterministic grid
order and serialize to CSV with floats written to 17 significant digits, so
they re-parse exactly.

All Monte-Carlo rows of a sweep share one seed, so its random streams
serve the whole grid and every variant (common random numbers): along a
gamma axis this makes estimated outage exactly monotone per realization,
since only the threshold changes, and the rows of two variants at a grid
point are paired, drawn on the same networks and uniforms. They share the draws
too: a sweep makes one :func:`estimate_outage` call, with one query per
distinct Monte-Carlo row input, and in every realization the variants at a
grid point, and the points of a gamma axis, share one network (see
:mod:`geometry_sim`).
Each row still equals ``simulate`` of its point at the same seed, bit for
bit: the sweep hands its master seed to the simulator unchanged. Every
query is checked before the first realization runs.

A sweep evaluates each distinct input once. Each axis1 value is applied once,
a parameter axis2 value once per distinct axis1 parameter set (a d_tilde
axis1 leaves the parameters alone) and a d_tilde axis2 value once per axis1
value; the variants share the resulting parameters and the content library,
except the no-caching baseline, whose library holds 0 slots. The
interference kernels are evaluated once per distinct parameter set, the
per-content total outage once per distinct (params, P_c), and a closed-form
row's value once per distinct (params, policy, library, requests), the
same key under which both engines keep their values. In a realization,
Monte-Carlo associates once per network and cache set, counts failures
at each threshold, and weights them by each query's request law. Both engines are
deterministic in these inputs, so a repeated input (the ``none`` variant
along a d_tilde axis, say) reuses the earlier value exactly, bit for bit.
These memos live for one sweep and never hold an error.

A spec names each axis, variant label and engine at most once: a repeat
would write duplicate columns or rows, and a repeated Monte-Carlo variant
would carry two estimates under one label.

A sweep evaluates the interference kernels of every analytic parameter set
first, then makes its one Monte-Carlo call, then evaluates the closed-form
rows. So a parameter set the closed forms refuse (beta * B = 0) is refused
before any realization, and a point the simulator refuses before any
closed-form row. The Monte-Carlo call opens at most one process pool and
shuts it down before it returns or raises. Sweeps without Monte-Carlo rows
import neither the simulator nor the pool.

The ``simulate`` and ``sweep`` commands read the Monte-Carlo settings one
way: the keys of :data:`MC_KEYS`, the budget and window margin through
:meth:`McBudget.from_config`, and the master seed from ``cli._resolve_seed``,
which alone reads the ``seed`` key (after ``--seed`` and HETCACHE_SEED).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

from .analytic import _kernels_if_served, average_outage
from .errors import ConfigError
from .params import (
    DEFAULT_GUARD,
    CachePolicy,
    ContentLibrary,
    ModelSetup,
    RequestDistribution,
    SystemParams,
    check_count,
    check_guard,
    check_realizations,
    db_to_linear,
    get_float,
    get_int,
    setup_from_config,
    zipf_request_distribution,
)

if TYPE_CHECKING:
    from .geometry_sim import McEstimate

ENGINE_ANALYTIC = "analytic"
ENGINE_MONTECARLO = "montecarlo"
_ENGINES = (ENGINE_ANALYTIC, ENGINE_MONTECARLO)

#: Axes a sweep may vary. gamma values are given in dB, matching the config
#: file boundary; everything else is in core units.
SWEEPABLE_AXES = ("lambda_sbs", "beta", "gamma", "d_tilde")


class Variant(NamedTuple):
    """One caching/popularity combination evaluated across the grid.

    A caching variant takes the grid point's library (the base cache size,
    or the d_tilde axis value's). ``no_cache`` marks the no-caching
    baseline, whose library holds 0 slots at every grid point on every axis.
    A plain record: it iterates in field order and compares equal to the
    tuple of its values.
    """

    label: str
    policy: CachePolicy
    requests: RequestDistribution
    no_cache: bool = False


#: The Monte-Carlo keys that ``simulate`` and ``sweep`` both read: the
#: fields of :class:`McBudget`, the master seed, and the legacy count of
#: trials per content, which :meth:`McBudget.from_config` accepts at 1 only.
MC_KEYS = frozenset({"realizations", "trials_per_content", "seed", "guard"})


@dataclass(frozen=True)
class McBudget:
    """The Monte-Carlo settings that ``simulate`` and ``sweep`` both read.

    The budget, ``realizations`` network realizations with one request per
    content in each, and ``guard``, the least margin in m between the disc
    of radius r_mbs and the window's edge. The field defaults are the config
    defaults (the margin's lives in :data:`params.DEFAULT_GUARD`);
    :meth:`from_config` alone reads the keys.
    """

    realizations: int = 100
    guard: float = DEFAULT_GUARD

    def __post_init__(self) -> None:
        check_realizations(self.realizations)
        check_guard(self.guard)

    @classmethod
    def from_config(cls, cfg: dict[str, str]) -> McBudget:
        """The settings a config file gives, with the field default for each key it omits.

        The legacy count of trials per content is refused unless it is 1.
        """
        if get_int(cfg, "trials_per_content", 1) != 1:
            raise ConfigError(
                f"trials_per_content must be 1, got {cfg['trials_per_content']}: a realization "
                "simulates one request per content; to cut the standard error, raise realizations"
            )
        return cls(
            realizations=get_int(cfg, "realizations", cls.realizations),
            guard=get_float(cfg, "guard", cls.guard),
        )


@dataclass(frozen=True)
class SweepSpec:
    base: ModelSetup
    axis1: tuple[str, tuple[float, ...]]
    variants: tuple[Variant, ...]
    axis2: tuple[str, tuple[float, ...]] | None = None
    engines: tuple[str, ...] = (ENGINE_ANALYTIC,)
    mc: McBudget = McBudget()
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for axis in filter(None, (self.axis1, self.axis2)):
            name, values = axis
            if name not in SWEEPABLE_AXES:
                raise ConfigError(
                    f"axis '{name}' is not sweepable; choose one of {', '.join(SWEEPABLE_AXES)}"
                )
            if len(values) == 0:
                raise ConfigError(f"axis '{name}': value list must be nonempty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"axis '{name}': values must be sorted ascending")
            for value in values:  # refuse an out-of-model value before any row runs
                _apply_axis(self.base.params, self.base.library, name, value)
        if self.axis2 and self.axis2[0] == self.axis1[0]:
            raise ConfigError(f"axis '{self.axis1[0]}' is given as both axis1 and axis2")
        if not self.variants:
            raise ConfigError("at least one variant is required")
        _refuse_repeats("variant", [variant.label for variant in self.variants])
        if not self.engines:
            raise ConfigError("at least one engine is required")
        for engine in self.engines:
            if engine not in _ENGINES:
                raise ConfigError(f"unknown engine {engine!r}")
        _refuse_repeats("engine", self.engines)
        check_count("workers", self.workers, 1)
        check_count("seed", self.seed, 0)

    @property
    def axis_names(self) -> tuple[str, ...]:
        names = (self.axis1[0],)
        return names + (self.axis2[0],) if self.axis2 else names


def _refuse_repeats(kind: str, names: Iterable[str]) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"{kind} {name!r} is given more than once")
        seen.add(name)


class SweepRow(NamedTuple):
    """One row of a sweep table.

    A plain record: it iterates in field order and compares equal to the
    tuple of its values.
    """

    axes: tuple[float, ...]
    variant: str
    engine: str
    avg_outage: float
    std_error: float | None


#: The columns after the axis names in a sweep CSV header.
_RESULT_COLUMNS = ("policy", "engine", "avg_outage", "std_error")


class SweepResult(NamedTuple):
    """A sweep's rows in grid order.

    The table is a function of the spec and its seed, the same for any
    worker count. Its CSV writes floats to 17 significant digits, so they
    re-parse exactly. A plain record: it iterates as (axis_names, rows) and
    compares equal to that tuple.
    """

    axis_names: tuple[str, ...]
    rows: tuple[SweepRow, ...]

    def header(self) -> tuple[str, ...]:
        return self.axis_names + _RESULT_COLUMNS

    def to_csv_text(self) -> str:
        lines = [",".join(self.header())]
        for row in self.rows:
            fields = [_fmt(v) for v in row.axes]
            fields += [row.variant, row.engine, _fmt(row.avg_outage)]
            fields += ["" if row.std_error is None else _fmt(row.std_error)]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv_text())


def _fmt(value: float) -> str:
    # 17 significant digits: exact float round trip.
    return f"{value:.17g}"


def _apply_axis(
    params: SystemParams, library: ContentLibrary, name: str, value: float
) -> tuple[SystemParams, ContentLibrary]:
    if name == "lambda_sbs":
        return replace(params, lambda_sbs=value), library
    if name == "beta":
        return replace(params, beta=value), library
    if name == "gamma":
        return replace(params, gamma=db_to_linear(value)), library
    if name == "d_tilde":
        return params, ContentLibrary.from_normalized(value, library.size)
    raise ConfigError(f"axis '{name}' is not sweepable")


def estimate_outage(
    queries: Iterable[tuple],
    seed: int,
    budget: McBudget = McBudget(),
    **options,
) -> list[tuple[list[McEstimate], McEstimate]]:
    """:func:`geometry_sim.estimate_batch` of (params, policy, library, requests) queries.

    The queries take the inputs of :func:`analytic.average_outage`. Each
    runs ``budget`` under the master seed ``seed`` in its point's default
    window with margin ``budget.guard``; one (per-content, average)
    estimate per query, in order. The simulator, and with it numpy, is
    imported on the first call, so closed-form commands never load it.
    ``options`` (workers, interference) are passed through.
    """
    from .geometry_sim import default_window, estimate_batch

    windowed = [
        ((params, library, default_window(params, budget.guard)), policy, requests)
        for params, policy, library, requests in queries
    ]
    return estimate_batch(windowed, seed, realizations=budget.realizations, **options)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; rows ordered by (grid index, variant, engine).

    Each distinct input is evaluated once: parameters per axis value,
    kernels per parameter set, total outage per (parameter set, P_c), a
    row's value per distinct row input (see the module docstring). All
    Monte-Carlo rows come from one :func:`estimate_outage` call at
    ``spec.seed``, which checks every point before any closed-form row is
    evaluated; each row equals ``simulate`` of its point at the same seed.
    """
    return SweepResult(axis_names=spec.axis_names, rows=tuple(_run_rows(spec)))


def _grid(spec: SweepSpec) -> Iterator[tuple[tuple[float, ...], SystemParams, ContentLibrary]]:
    """(axis values, params, axis library) per grid point, in grid order.

    Each axis1 value is applied once, and a parameter axis2 value once per
    distinct axis1 parameter set.
    """
    name1, values1 = spec.axis1
    name2, values2 = spec.axis2 or (None, ())
    params_by_input: dict[tuple[SystemParams, float], SystemParams] = {}
    for v1 in values1:
        params1, library1 = _apply_axis(spec.base.params, spec.base.library, name1, v1)
        if name2 is None:
            yield (v1,), params1, library1
        for v2 in values2:
            if name2 == "d_tilde":
                yield (v1, v2), *_apply_axis(params1, library1, name2, v2)
                continue
            params = params_by_input.get((params1, v2))
            if params is None:
                params = params_by_input[params1, v2] = _apply_axis(params1, library1, name2, v2)[0]
            yield (v1, v2), params, library1


def _run_rows(spec: SweepSpec) -> list[SweepRow]:
    # Sweep-local, so every sweep evaluates afresh; an error propagates
    # before its memo stores anything.
    empty = ContentLibrary(spec.base.library.size, 0)
    # Row values per engine, keyed by the row's inputs: equal variants share
    # them, and the Monte-Carlo keys are the queries of the master seed
    values: dict[str, dict[tuple, tuple | None]] = {engine: {} for engine in _ENGINES}
    plan = []
    for axes, params, axis_library in _grid(spec):
        for variant in spec.variants:
            library = empty if variant.no_cache else axis_library
            key = (params, variant.policy, library, variant.requests)
            for engine in spec.engines:
                values[engine][key] = None
                plan.append((axes, variant.label, engine, key))
    analytic, montecarlo = values[ENGINE_ANALYTIC], values[ENGINE_MONTECARLO]
    # P_c = 1 bounds the SBS hit probability of every row, so these kernels
    # serve each row that needs any; the dict collects total outage by P_c.
    # Evaluated before any realization, so a parameter set the closed forms
    # refuse stops the sweep first
    memo_by_params = {
        params: (_kernels_if_served(params, 1.0), {})
        for params in dict.fromkeys(key[0] for key in analytic)
    }
    if montecarlo:
        queries = list(montecarlo)
        # refuses a bad point before any closed-form row
        estimates = estimate_outage(queries, spec.seed, budget=spec.mc, workers=spec.workers)
        for key, (_, avg) in zip(queries, estimates):
            montecarlo[key] = (avg.mean, avg.std_error)
    for key in analytic:
        analytic[key] = (average_outage(*key, *memo_by_params[key[0]]), None)
    return [SweepRow(axes, label, engine, *values[engine][key]) for axes, label, engine, key in plan]


# --------------------------------------------------------------------------
# Spec files: the point-config schema plus sweep keys.
# --------------------------------------------------------------------------

SWEEP_KEYS = frozenset({"axis1", "axis1_values", "axis2", "axis2_values", "variants", "engines"}) | MC_KEYS

_VARIANT_TOKENS = ("none", "ucp", "pcp", "ucp:uniform", "ucp:zipf", "pcp:uniform", "pcp:zipf")


def _parse_values(cfg: dict[str, str], key: str) -> tuple[float, ...]:
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"missing required key '{key}'")
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a list of numbers, got {raw!r}") from None


def _parse_variant(token: str, base: ModelSetup) -> Variant:
    token = token.lower()
    if token not in _VARIANT_TOKENS:
        raise ConfigError(
            f"key 'variants': unknown variant {token!r}; choose from {', '.join(_VARIANT_TOKENS)}"
        )
    if token == "none":
        return Variant(label="none", policy=CachePolicy.UCP, requests=base.requests, no_cache=True)
    policy_name, _, requests_name = token.partition(":")
    if requests_name == "uniform":
        requests = zipf_request_distribution(base.library.size, 0.0)
    else:  # "zipf" is the base law; sharing it shares its cached masses
        requests = base.requests
    return Variant(label=token, policy=CachePolicy(policy_name), requests=requests)


def sweep_spec_from_config(cfg: dict[str, str], seed: int, workers: int = 1) -> SweepSpec:
    """Build a SweepSpec from a parsed spec file and the master seed.

    The file's ``seed`` key is not read here: ``cli._resolve_seed`` reads it.
    Unknown keys are rejected by the CLI before this runs.
    """
    base = setup_from_config(cfg)
    axis1_name = cfg.get("axis1")
    if axis1_name is None:
        raise ConfigError("missing required key 'axis1'")
    axis1 = (axis1_name, _parse_values(cfg, "axis1_values"))
    axis2 = None
    if "axis2" in cfg:
        axis2 = (cfg["axis2"], _parse_values(cfg, "axis2_values"))
    elif "axis2_values" in cfg:
        raise ConfigError("key 'axis2_values' given without 'axis2'")
    variant_tokens = [t for chunk in cfg.get("variants", "").split(",") for t in chunk.split()]
    if not variant_tokens:
        raise ConfigError("missing required key 'variants'")
    variants = tuple(_parse_variant(token, base) for token in variant_tokens)
    engine_tokens = [t for chunk in cfg.get("engines", "analytic").split(",") for t in chunk.split()]
    return SweepSpec(
        base=base,
        axis1=axis1,
        axis2=axis2,
        variants=variants,
        engines=tuple(engine_tokens),
        mc=McBudget.from_config(cfg),
        seed=seed,
        workers=workers,
    )
