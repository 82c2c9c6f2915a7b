"""Parameter domains: each scalar ``--param``'s bound is declared once, beside
its library function, with ``ranges.domains``.

The library is called directly here, with the arguments a metric's fixture
passes it and one declared parameter replaced: NaN and the nearest float
outside a finite boundary raise ParamError, and the boundary itself and the
nearest float inside it do not fail the domain. NaN in a float parameter with
no declared domain raises ParamError too.
"""

from __future__ import annotations

import functools
import importlib
import math
import tempfile
from pathlib import Path

import pytest

from privmetrics import compute, ranges
from privmetrics.adversary import event_unobservability, tp_violation_check
from privmetrics.errors import ParamError
from privmetrics.indist import distributional_privacy
from privmetrics.tabular import ct_isolation, haplotype_safety

from conftest import load_fixture, materialize_fixture

NAN = math.nan

# The float and int ``--param`` parameters that no constant bound fits: a
# time or threshold that may be any real, or one whose bound depends on
# another parameter or on the data, which its function checks itself.
UNCONSTRAINED = {
    ("user_centric_privacy", "t"): "any time; t >= t_last is checked by the function",
    ("user_centric_privacy", "t_last"): "any time",
    ("belief_increase", "delta"): "a threshold on a gap in [-1, 1]",
    ("l_diversity", "c"): "c > 0 is checked in recursive mode only; entropy mode ignores c",
    ("ct_isolation", "t"): "optional count threshold; any int",
    ("cryptographic_game", "eps"): "a threshold on the advantage",
    ("privacy_breach_level", "rho"): "a threshold on posteriors",
    ("hiding_property", "theta"): "a threshold on probabilities",
    ("max_tracking_time", "end_time"): "end_time >= the last sample is checked by the function",
    ("time_to_confusion", "delta"): "a threshold on entropies",
    ("time_to_confusion", "end_time"): "end_time >= the last sample is checked by the function",
    ("event_unobservability", "p1"): "a distribution parameter; any real",
    ("event_unobservability", "p2"): "a distribution parameter; any real",
}


DECLARED = [
    (metric_id, name, domain)
    for metric_id in compute._SPECS
    for name, domain in compute._param_domains(metric_id).items()
    if domain is not None
]


def test_every_numeric_param_has_a_domain_or_is_listed():
    faults = []
    for metric_id, spec in compute._SPECS.items():
        domains = compute._param_domains(metric_id)
        for name, (kind, _) in spec.params.items():
            listed = (metric_id, name) in UNCONSTRAINED
            if kind in (float, int) and (domains[name] is None) != listed:
                faults.append(f"{metric_id} {name}: " + (
                    "declared and listed as unconstrained" if listed else "no declared domain"
                ))
    assert not faults, "\n".join(faults)


def _library_call(metric_id: str, monkeypatch) -> tuple:
    """The library function of a metric and the arguments its fixture passes it."""
    module, name = compute._SPECS[metric_id].call.split(".")
    module = importlib.import_module(f"privmetrics.{module}")
    function, seen = getattr(module, name), []
    # wrapped, so that ``compute`` reads the --params from the function's own signature
    recording = functools.wraps(function)(lambda *args: seen.append(args) or function(*args))
    monkeypatch.setattr(module, name, recording)
    fixture = load_fixture(metric_id)
    with tempfile.TemporaryDirectory() as directory:
        args = materialize_fixture(fixture, Path(directory))
        paths = [args[i + 1] for i, a in enumerate(args) if a == "--in"]
        schema = args[args.index("--schema") + 1] if "--schema" in args else None
        compute.compute(metric_id, paths, schema, fixture["params"])
    return function, list(seen[0])


def _position(metric_id: str, name: str, args: list) -> int:
    """The position of a ``--param`` among a library call's arguments: the
    parameters come after the arguments the input files fill."""
    params = compute._SPECS[metric_id].params
    return len(args) - len(params) + list(params).index(name)


def _domain_fault(function, args: list, position: int, value):
    """The ParamError a call with ``value`` at ``position`` raises for the
    parameter's domain, or None. The parameter is named as the function names it."""
    name = list(function.domains)[position]
    args = args[:position] + [value] + args[position + 1:]
    try:
        function(*args)
    except Exception as exc:  # a check after the domain's may still refuse the value
        if isinstance(exc, ParamError) and exc.detail.startswith(f"{name} must lie in "):
            return exc
    return None


def _nan_for(metric_id: str, name: str):
    """A call of a metric's library function with the arguments its fixture
    passes it, and NaN for the parameter ``name``."""
    def call():
        with pytest.MonkeyPatch.context() as monkeypatch:
            function, args = _library_call(metric_id, monkeypatch)
        args[_position(metric_id, name, args)] = NAN
        return function(*args)
    return call


UNCONSTRAINED_FLOATS = [
    (metric_id, name) for metric_id, name in UNCONSTRAINED
    if compute._SPECS[metric_id].params[name][0] is float
]


@pytest.mark.parametrize(
    "call",
    [
        lambda: ct_isolation([[0, 0], [1, 1]], [0, 0], 0, NAN),
        lambda: event_unobservability([1.0], [2.0], 1.0, 1.0, NAN, 0.1),
        lambda: haplotype_safety(10, 5, log_base=NAN),
        lambda: haplotype_safety(10, 5, alpha=NAN),
        lambda: distributional_privacy(NAN, 0.5, 1.0, 1.0),
        lambda: tp_violation_check(0.3, 0.2, NAN),
        *(_nan_for(metric_id, name) for metric_id, name in UNCONSTRAINED_FLOATS),
    ],
    ids=["ct_isolation-c", "event_unobservability-alpha", "haplotype_safety-log_base",
         "haplotype_safety-alpha", "distributional_privacy-l1", "tp_violation_check-p",
         *(f"{metric_id}-{name}" for metric_id, name in UNCONSTRAINED_FLOATS)],
)
def test_nan_raises_in_direct_library_calls(call):
    with pytest.raises(ParamError):
        call()


def _outside(domain: dict) -> list:
    if domain["kind"] == "enum":
        return [NAN, "", domain["values"][0].upper()]
    out = [NAN]
    if isinstance(domain["lo"], (int, float)):
        out.append(domain["lo"] if domain["lo_open"] else math.nextafter(domain["lo"], -math.inf))
    if isinstance(domain["hi"], (int, float)):
        out.append(math.nextafter(domain["hi"], math.inf))
    return out


def _inside(domain: dict, kind) -> list:
    """Each finite closed end, and the nearest value inside each finite end
    (for an int parameter, the nearest int)."""
    if domain["kind"] == "enum":
        return list(domain["values"])
    lo, hi, out = domain["lo"], domain["hi"], []
    if isinstance(lo, (int, float)):
        out += [] if domain["lo_open"] else [lo]
        out.append(lo + 1 if kind is int else math.nextafter(lo, math.inf))
    if isinstance(hi, (int, float)):
        out += [hi, hi - 1 if kind is int else math.nextafter(hi, -math.inf)]
    return out


@pytest.mark.parametrize(
    "metric_id, name, domain", DECLARED, ids=[f"{m}-{n}" for m, n, _ in DECLARED]
)
def test_declared_domain_is_the_library_bound(metric_id, name, domain, monkeypatch):
    params = compute._SPECS[metric_id].params
    kind, default = params[name]
    function, args = _library_call(metric_id, monkeypatch)
    position = _position(metric_id, name, args)
    for value in _outside(domain):
        assert not ranges.contains(domain, value)
        assert _domain_fault(function, args, position, value) is not None, value
    for value in _inside(domain, kind):
        assert ranges.contains(domain, value)
        assert _domain_fault(function, args, position, value) is None, value
    if default is not compute._REQUIRED:
        assert ranges.contains(domain, default)


@pytest.mark.parametrize(
    "rng, text",
    [
        (ranges.interval(0, None), "[0, inf]"),
        (ranges.interval(None, 1), "[-inf, 1]"),
        (ranges.interval(1, None, lo_open=True), "(1, inf]"),
        (ranges.interval(0, "|X|"), "[0, |X|]"),
        (ranges.enum_range("entropy", "recursive"), "{entropy, recursive}"),
    ],
)
def test_fmt_range_writes_the_catalog_notation(rng, text):
    assert ranges.fmt_range(rng) == text


def test_a_symbolic_endpoint_bounds_nothing_and_nan_lies_in_no_interval():
    assert ranges.contains(ranges.interval(1, "|X|"), 1e300)
    assert not ranges.contains(ranges.interval(None, None), NAN)
    assert not ranges.contains(ranges.interval(0, "H0(X)"), NAN)
