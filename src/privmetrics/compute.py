"""One declared spec per implemented catalog metric.

A spec names the metric's input kinds in file order and the library call.
The metric's ``--param`` parameters are the library function's parameters
after the ones its input files fill, with their names, defaults and types
read from its signature. ``compute`` loads each file with the loader of its
kind, converts the parameters, calls the library and wraps the result in a
MetricValue carrying the catalog unit. The fixture files under ``fixtures/``
document the concrete input shape for every metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
from itertools import chain
from types import ModuleType
from typing import Callable, NamedTuple, Sequence

from . import core, ranges, registry
from .core import (
    _REQUIRED, MetricValue, _boolean, _distribution, _fields, _finite, _floats, _integer, _label,
    _labels, _list, _load_json, _mapping, _matrix, _point, _read, _string, _tuple,
)
from .errors import DomainError, ParamError, SchemaError


_MODULES: dict[str, ModuleType] = {}  # each metric module, once its import is done


def _function(path: str) -> Callable:
    """The function ``module.function`` of this package, looked up at use
    rather than at import. The module comes from the import system the first
    time, so that the first use imports a metric module and a use from another
    thread waits until that import is done; it is kept only once the import has
    returned. The function's attribute is read on every use, so that a wrapper
    installed on the module attribute is the one that runs."""
    module, name = path.rsplit(".", 1)
    mod = _MODULES.get(module)
    if mod is None:
        mod = _MODULES[module] = importlib.import_module(f"{__package__}.{module}")
    return getattr(mod, name)


# ---------------------------------------------------------------------------
# Parameter types: ``--param`` values arrive as strings and are converted by
# the type of the library parameter's annotation; a conversion error is
# reported as E_PARAM


def _json_array(item: Callable) -> Callable:
    """Parameter type of a JSON array whose elements have field type ``item``."""
    items = _list(item)
    return lambda raw: items(raw if isinstance(raw, list) else json.loads(raw), "JSON array")


# The ``--param`` type of each annotation a library parameter may have, once
# ``| None`` is stripped
_TYPES = {
    "float": float, "int": int, "str": str, "Value": str,
    "Sequence[float]": _json_array(_finite), "Sequence[str]": _json_array(_label),
}


# ---------------------------------------------------------------------------
# Input kinds: a loader turns one file into the library arguments it holds


def _load(path: str, read: Callable):
    """Read one JSON file and apply the field type ``read`` to its content."""
    name = os.path.basename(path)
    return read(_load_json(_read(path), name), name)


class _Kind(NamedTuple):
    help: str
    # (path, schema, parsed) -> the library arguments the file holds. A kind
    # that keeps its value between calls asks ``parsed(key, make)`` for it.
    load: Callable[[str, str | None, Callable], tuple]
    width: int = 1  # the number of library arguments ``load`` returns


# The values the last ``compute`` call handed out, as a tuple of (key, value)
# entries. A key is the loader of the value's kind and the texts the value
# depends on. The tuple is read and replaced whole, so two threads never get
# each other's input.
_kept: tuple = ()


def _load_inputs(spec: _Spec, paths: Sequence[str], schema: str | None) -> list:
    """The library arguments the spec's input files hold, loaded in file
    order, after the kept values of kinds the spec does not take are dropped."""
    global _kept
    _kept = tuple([entry for entry in _kept if entry[0][0] in spec.loads])
    used = []  # the (key, value) entries this call hands out

    def parsed(key, make):
        """``make(kept)``, handed out and kept under ``key``. ``kept`` is the
        value this call or the last one handed out under ``key``, or None
        when there is none; then the kept values of the same kind are
        dropped before ``make`` parses the file."""
        global _kept
        for k, kept in chain(used, _kept):
            if k == key:
                break
        else:
            _kept = tuple([entry for entry in _kept if entry[0][0] is not key[0]])
            kept = None
        value = make(kept)
        used.append((key, value))
        return value

    args = []
    for i, (kind, arity) in enumerate(spec.inputs):
        if arity == "+":
            args.append([arg for path in paths[i:] for arg in kind.load(path, schema, parsed)])
        elif i < len(paths):
            args += kind.load(paths[i], schema, parsed)
        else:
            args.append(None)  # an omitted optional input
    _kept = tuple(used)
    return args


def _parsed(parser: str, help: str) -> _Kind:
    """A kind that keeps the value ``parser`` returns for the file's text."""
    def load(path: str, schema, parsed) -> tuple:
        text = _read(path)
        return (parsed((load, text), lambda kept: _function(parser)(text) if kept is None else kept),)

    return _Kind(help, load)


def _record(**fields) -> _Kind:
    """A JSON object whose typed fields, in declared order, are library arguments."""
    read = _fields(**fields)
    return _Kind(read.shape, lambda path, *_: _load(path, read), len(fields))


def _table(path: str, schema: str | None, parsed) -> tuple:
    """A table is kept on its CSV text and column kinds, not on its roles: a
    kept table is handed out re-tagged with the roles of the call, and the
    re-tag is kept in its place, with the grouping it gets."""
    if schema is None:
        raise ParamError("table metrics need --schema with the role/kind sidecar")
    sidecar, text = _read(schema), _read(path)
    sidecar = _load_json(sidecar, "schema sidecar")
    # The kinds as written, not typed: a kept table's kinds are valid ones,
    # which no invalid kinds equal, so invalid kinds are parsed and named.
    kinds = sidecar.get("kinds", {}) if type(sidecar) is dict else None

    def make(kept):
        if kept is None:
            return core.parse_table(text, sidecar)
        return kept.with_roles(core._SIDECAR(sidecar, "schema sidecar")[0])
    return (parsed((_table, text, kinds), make),)


def _csv_table(path: str, csv_path: str, roles: dict, kinds: dict) -> core.DataTable:
    """A table named in the JSON file at ``path``, its CSV path relative to that file."""
    csv_path = os.path.join(os.path.dirname(path), csv_path)
    return core.parse_table(_read(csv_path), {"roles": roles, "kinds": kinds})


_TABLE_ENTRY = _fields(
    csv_path=_string, roles=(_mapping(_string), {}), kinds=(_mapping(_string), {})
)
_JOIN_SPEC = _fields(persons=_TABLE_ENTRY, relations=_list(_TABLE_ENTRY), join_keys=_labels)
_PRESENCE_SPEC = _fields(external=_TABLE_ENTRY, published=_TABLE_ENTRY)
_RELEASES = _list(_fields(
    csv_path=_string, roles=_mapping(_string), kinds=(_mapping(_string), {}), owners=_labels
))
_PARTITIONS = _fields(partitions=_list(_fields(blocks=_list(_labels), prob=_finite)))


def _join_spec(path: str, *_) -> tuple:
    persons, relations, join_keys = _load(path, _JOIN_SPEC)
    return _csv_table(path, *persons), [_csv_table(path, *r) for r in relations], join_keys


def _presence_spec(path: str, *_) -> tuple:
    return tuple(_csv_table(path, *entry) for entry in _load(path, _PRESENCE_SPEC))


def _releases(path: str, *_) -> tuple:
    releases = enumerate(_load(path, _RELEASES))
    release = _function("tabular.Release")
    return ([release(_csv_table(path, *t), i, owners) for i, (*t, owners) in releases],)


def _partitions(path: str, *_) -> tuple:
    (entries,) = _load(path, _PARTITIONS)
    parts = tuple(_function("uncertainty.make_partition")(blocks) for blocks, _ in entries)
    return (_function("uncertainty.PartitionDistribution")(parts, tuple(p for _, p in entries)),)


_KINDS = {
    "distribution": _parsed("core.parse_distribution", "distribution JSON"),
    "joint": _parsed("core.parse_joint", "joint distribution JSON"),
    "mechanism": _parsed("core.parse_mechanism", "mechanism JSON"),
    "neighbors": _parsed("indist.parse_neighbor_relation", "neighbor-relation JSON"),
    "trace": _parsed("core.parse_trace", "trace JSON"),
    "region": _parsed("core.parse_region", "region JSON"),
    "transcript": _parsed("indist.parse_game_transcript", "game transcript JSON"),
    "adjacency": _parsed("infogain.parse_adjacency", '{"n", "bits", "classes"?}'),
    "geo_mechanism": _parsed("indist.parse_geo_mechanism", '{"locations", "outputs", "matrix"}'),
    "estimate": _parsed("adversary.parse_estimate", '{"posterior", "truth", "metric"?, "coords"?}'),
    "histories": _parsed("tabular.parse_location_histories", "location histories JSON"),
    "releases": _Kind("releases JSON", _releases),
    "table": _Kind("table CSV + --schema", _table),
    "join_spec": _Kind("join spec " + _JOIN_SPEC.shape, _join_spec, 3),
    "presence_spec": _Kind("presence spec " + _PRESENCE_SPEC.shape, _presence_spec, 2),
    "partitions": _Kind('{"partitions": [{"blocks", "prob"}, ...]}', _partitions),
}
_pairs = _list(_tuple(_finite, _finite))
_XY = _record(x=_floats, y=_floats)
_FEATURE_SERIES = _record(transitions=_floats, window=(_integer, None))


# ---------------------------------------------------------------------------
# Specs


class _Spec(NamedTuple):
    inputs: tuple[tuple[_Kind, str], ...]  # arity "" once, "?" optional, "+" one or more
    call: str  # the library function, as "module.function"
    min_files: int
    max_files: float
    loads: frozenset  # the loaders of its input kinds, which key the values it keeps

    @property
    def params(self) -> dict:
        """name -> (type, default or _REQUIRED) of each ``--param``, in call order."""
        return _params(self.call, sum(kind.width for kind, _ in self.inputs))


@functools.cache
def _params(call: str, filled: int) -> dict:
    """The parameters of the library function ``call`` after the first
    ``filled``, each with the type of its annotation and its default."""
    parameters = list(inspect.signature(_function(call)).parameters.values())[filled:]
    return {
        p.name: (
            _TYPES[p.annotation.removesuffix(" | None")],
            _REQUIRED if p.default is p.empty else p.default,
        )
        for p in parameters
    }


def _spec(call: str, *inputs) -> _Spec:
    """Declare a metric: its library call and its input kinds in file order.

    ``call`` names the library function as ``"module.function"``; it receives
    the loaded inputs, then the ``--param``s, positionally: the ``--param``s
    are its parameters that the inputs do not fill (see ``_Spec.params``).
    An input is a kind name, suffixed ``?`` when optional (omitted: None) or
    ``+`` when it takes all remaining files (as one list), or a ``_record``.
    """
    kinds = []
    for kind in inputs:
        if isinstance(kind, str):
            name = kind.rstrip("?+")
            kinds.append((_KINDS[name], kind[len(name):]))
        else:
            kinds.append((kind, ""))
    arities = [arity for _, arity in kinds]
    return _Spec(
        tuple(kinds),
        call,
        min_files=arities.count("") + arities.count("+"),
        max_files=math.inf if "+" in arities else len(arities),
        loads=frozenset(kind.load for kind, _ in kinds),
    )


_SPECS: dict[str, _Spec] = {
    # --- uncertainty -------------------------------------------------------
    "anonymity_set_size": _spec("uncertainty.anonymity_set_size", _record(members=_labels)),
    "entropy": _spec("uncertainty.shannon_entropy", "distribution"),
    "renyi_entropy": _spec("uncertainty.renyi_entropy", "distribution"),
    "max_entropy": _spec("uncertainty.max_entropy", "distribution"),
    "min_entropy": _spec("uncertainty.min_entropy", "distribution"),
    "normalized_entropy": _spec("uncertainty.normalized_entropy", "distribution"),
    "asymmetric_entropy": _spec("uncertainty.asymmetric_entropy", "distribution"),
    "quantile_entropy": _spec("uncertainty.quantile_entropy", "distribution"),
    "conditional_entropy": _spec("uncertainty.conditional_entropy", "joint"),
    "normalized_conditional_entropy": _spec("uncertainty.normalized_conditional_entropy", "joint"),
    "inherent_privacy": _spec("uncertainty.inherent_privacy", "distribution"),
    "conditional_privacy": _spec("uncertainty.conditional_privacy", "joint"),
    "cross_entropy": _spec("uncertainty.cross_entropy", "distribution", "distribution"),
    "degree_of_unlinkability": _spec(
        "uncertainty.unlinkability_degree", "partitions", "partitions?"
    ),
    "entropy_bayes": _spec(
        "uncertainty.bayes_entropy_series",
        _record(states=_labels, prior=_floats, transition=_matrix, likelihoods=_matrix),
    ),
    "cumulative_entropy": _spec("uncertainty.cumulative_entropy", _record(values=_floats)),
    "genomic_privacy": _spec(
        "uncertainty.genomic_privacy", _record(probs=_floats, weights=_floats)
    ),
    "protection_level": _spec(
        "uncertainty.protection_level", _record(regions=_list(_distribution)), "distribution"
    ),
    "user_centric_privacy": _spec("uncertainty.user_centric_privacy"),
    # --- information gain --------------------------------------------------
    "leaked_information": _spec("infogain.leaked_count", _record(items=_labels)),
    "relative_entropy": _spec("infogain.kl_divergence", "distribution", "distribution"),
    "mutual_information": _spec("infogain.mutual_information", "joint"),
    "normalized_mutual_information": _spec("infogain.normalized_mutual_information", "joint"),
    "conditional_privacy_loss": _spec("infogain.conditional_privacy_loss", "joint"),
    "conditional_mutual_information": _spec(
        "infogain.conditional_mutual_information", _record(tensor=_list(_matrix))
    ),
    "loss_of_anonymity": _spec("infogain.loss_of_anonymity", "mechanism+"),
    "max_information_leakage": _spec("infogain.max_information_leakage", "joint"),
    "system_anonymity_level": _spec("infogain.system_anonymity_level", "adjacency"),
    "information_surprisal": _spec("infogain.surprisal"),
    "belief_increase": _spec("infogain.belief_increase_check"),
    "feature_reduction": _spec("infogain.feature_mass_reduction", _FEATURE_SERIES, _FEATURE_SERIES),
    "privacy_score": _spec(
        "infogain.privacy_score", _record(sensitivities=_floats, visibilities=_floats)
    ),
    "pearson_correlation": _spec("infogain.pearson_abs", _XY),
    # --- similarity --------------------------------------------------------
    "k_anonymity": _spec("tabular.k_anonymity", "table"),
    "alpha_k_anonymity": _spec("tabular.alpha_k_anonymity", "table"),
    "l_diversity": _spec("tabular.l_diversity", "table"),
    "m_invariance": _spec("tabular.m_invariance", "releases"),
    "t_closeness": _spec("tabular.t_closeness", "table"),
    "ct_isolation": _spec("tabular.ct_isolation", _record(points=_matrix, guess=_floats)),
    "ke_anonymity": _spec("tabular.ke_anonymity", "table"),
    "em_anonymity": _spec("tabular.em_anonymity", "table"),
    "multirelational_k_anonymity": _spec("tabular.multirelational_k", "join_spec"),
    "xy_privacy": _spec("tabular.xy_privacy", "table"),
    "historical_k_anonymity": _spec(
        "tabular.historical_k", "histories",
        _record(requests=_list(_fields(t=_finite, cell=_label))),
    ),
    "haplotype_snp_test": _spec("tabular.haplotype_safety"),
    "cluster_similarity": _spec(
        "tabular.cluster_similarity", _record(original=_labels, protected=_labels)
    ),
    "r_squared": _spec("tabular.r_squared_transitions", _record(transitions=_floats)),
    "normalized_variance": _spec("tabular.normalized_variance", _XY),
    # --- indistinguishability ----------------------------------------------
    "differential_privacy": _spec("indist.dp_epsilon", "mechanism", "neighbors"),
    "approximate_differential_privacy": _spec("indist.adp_delta", "mechanism", "neighbors"),
    "geo_indistinguishability": _spec("indist.geo_indistinguishability", "geo_mechanism"),
    "information_privacy": _spec("indist.information_privacy", "joint"),
    "distributional_privacy": _spec("indist.distributional_privacy"),
    "cryptographic_game": _spec("indist.game_advantage", "transcript"),
    "unconditional_privacy": _spec("indist.unconditional_privacy", "transcript"),
    # --- success -----------------------------------------------------------
    "success_rate": _spec("adversary.success_rate", _record(trials=_list(_boolean))),
    "path_compromise": _spec("adversary.path_compromise_probability"),
    "degrees_of_anonymity": _spec("adversary.degrees_of_anonymity", "distribution"),
    "privacy_breach_level": _spec("adversary.privacy_breach_check", _record(posteriors=_floats)),
    "dg_privacy": _spec("adversary.dg_privacy_check"),
    "delta_presence": _spec("adversary.delta_presence", "presence_spec"),
    "hiding_property": _spec("adversary.hiding_property", _record(matrix=_matrix)),
    # --- error -------------------------------------------------------------
    "expected_estimation_error": _spec("adversary.expected_estimation_error", "estimate"),
    "expectation_of_distance_error": _spec(
        "adversary.distance_error_expectation",
        _record(steps=_list(_pairs), n_users=_integer),
    ),
    "mean_squared_error": _spec(
        "adversary.mean_squared_error", _record(truths=_list(_point), observations=_list(_point))
    ),
    "pct_incorrectly_classified": _spec("adversary.pct_incorrect"),
    "health_privacy": _spec("adversary.health_privacy", _record(weights=_floats, values=_floats)),
    # --- time --------------------------------------------------------------
    "time_until_success": _spec("adversary.batch_mix_rounds"),
    "max_tracking_time": _spec("adversary.max_tracking_time", "trace"),
    "time_to_confusion": _spec("adversary.time_to_confusion", "trace"),
    # --- accuracy ----------------------------------------------------------
    "confidence_interval_width": _spec(
        "adversary.confidence_interval_width",
        _record(atoms=(_pairs, None), samples=(_floats, None)),  # exactly one of them
    ),
    "tp_privacy_violation": _spec("adversary.tp_violation_check"),
    "event_unobservability": _spec(
        "adversary.event_unobservability", _record(f1=_floats, f2=_floats)
    ),
    "uncertainty_region_size": _spec("adversary.region_size", "region"),
    "coverage_of_sensitive_region": _spec("adversary.region_coverage", "region", "region"),
    "accuracy_of_obfuscated_region": _spec("adversary.obfuscation_accuracy"),
}


# ---------------------------------------------------------------------------
# Range checking and the public compute() front


def in_declared_range(value, rng: dict) -> bool:
    """Best-effort check of a metric value against its catalog range.

    Symbolic endpoints (like the alphabet size) and mixed records against
    scalar ranges cannot be checked and count as in range.
    """
    if rng["kind"] == "per_parameter":
        return not isinstance(value, dict) or all(
            ranges.contains(part, value[k])
            for k, part in rng["parts"].items() if isinstance(value.get(k), (int, float))
        )
    if rng["kind"] == "enum":
        value = str(value).lower() if isinstance(value, bool) else value
        return not isinstance(value, str) or ranges.contains(rng, value)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    return not numeric or ranges.contains(rng, value)


def _param_domains(metric_id: str) -> dict:
    """Each ``--param`` of a metric and the domain its library function declares
    for the parameter of that name, or None."""
    spec = _SPECS[metric_id]
    declared = getattr(_function(spec.call), "domains", {})
    return {name: declared.get(name) for name in spec.params}


def inputs_help(metric_id: str) -> str:
    """The input files and ``--param`` parameters a metric takes, read from its spec."""
    spec = _SPECS[metric_id]
    files = ", ".join(
        {"": kind.help, "?": f"[{kind.help}]", "+": f"{kind.help} (one or more)"}[arity]
        for kind, arity in spec.inputs
    )
    params = []
    for name, domain in _param_domains(metric_id).items():
        default = spec.params[name][1]
        param = f"{name}={'...' if default is _REQUIRED or default is None else default}"
        param += f" in {ranges.fmt_range(domain)}" if domain else ""
        params.append(param if default is _REQUIRED else f"[{param}]")
    params = " ".join(params)
    return "; ".join(filter(None, (files, params and f"--param {params}")))


def compute(
    metric_id: str,
    paths: Sequence[str] = (),
    schema: str | None = None,
    params: dict | None = None,
) -> MetricValue:
    """Compute one catalog metric from input files and parameters."""
    descriptor = registry.lookup(metric_id)
    if not descriptor.implemented:
        raise ParamError(f"{metric_id} is a descriptor-only metric with no implementation")
    spec = _SPECS[metric_id]
    params = params or {}
    if not spec.min_files <= len(paths) <= spec.max_files:
        raise ParamError(
            f"{metric_id} takes {inputs_help(metric_id)}; got {len(paths)} input file(s)"
        )
    declared = spec.params
    if not params.keys() <= declared.keys():
        unknown = sorted(params.keys() - declared.keys())
        raise ParamError(
            f"unknown parameter(s) {unknown}; {metric_id} takes {inputs_help(metric_id)}"
        )
    args = _load_inputs(spec, paths, schema)
    for name, (kind, default) in declared.items():
        if name in params:
            try:
                value = kind(params[name])
            except (TypeError, ValueError, SchemaError) as exc:
                raise ParamError(f"parameter {name!r}: {exc}")
            if isinstance(value, float) and math.isnan(value):  # ±inf are meaningful values
                raise ParamError(f"parameter {name!r}: NaN is not a number")
            args.append(value)
        elif default is _REQUIRED:
            raise ParamError(f"missing required parameter {name!r}")
        else:
            args.append(default)
    try:
        value = _function(spec.call)(*args)
    except OverflowError as exc:
        raise DomainError(f"{metric_id}: floating-point overflow ({exc})")
    return MetricValue(
        metric_id=metric_id,
        value=value,
        unit=descriptor.unit,
        out_of_range=not in_declared_range(value, descriptor.value_range),
    )
