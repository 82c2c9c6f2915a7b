"""Command-line front end: list, describe, compute, advise, export.

Exit codes: 0 success, 2 input/validation error, 3 computation error.
Results go to stdout; diagnostics go to stderr. Errors are also printed to
stdout as machine-readable ``{"error": code, "detail": ...}`` objects; a
command line click cannot parse is ``E_USAGE``, exit code 2.
"""

from __future__ import annotations

import json
import sys

import click

from . import compute as compute_mod
from . import ranges, registry
from .core import _load_json, _read, jsonable
from .errors import COMPUTATION_CODES, MetricError, ParamError, UsageError

FORMATS = ("json", "csv", "text")


def _fail(exc: MetricError):
    click.echo(json.dumps({"error": exc.code, "detail": exc.detail}))
    click.echo(f"{exc.code}: {exc.detail}", err=True)
    sys.exit(3 if exc.code in COMPUTATION_CODES else 2)


def _emit(payload: dict, fmt: str, text_lines):
    if fmt == "json":
        click.echo(json.dumps(jsonable(payload), sort_keys=True))
    elif fmt == "csv":
        for key, value in payload.items():
            click.echo(f"{key},{_csv_cell(value)}")
    else:
        for line in text_lines:
            click.echo(line)


def _csv_cell(value) -> str:
    value = jsonable(value)
    if isinstance(value, (dict, list)):
        return '"' + json.dumps(value).replace('"', '""') + '"'
    return str(value)


def _fmt_direction(direction) -> str:
    if isinstance(direction, dict):
        return "; ".join(f"{k}: {v}" for k, v in direction.items())
    return direction


class _Group(click.Group):
    """The command group, run with click's ``standalone_mode`` off, so that a
    usage fault goes through ``_fail`` as every other fault does, after
    click's own usage text on stderr. ``--help`` prints and exits 0 as before."""

    def main(self, args=None, prog_name=None, **extra):
        try:
            return super().main(args, prog_name, standalone_mode=False, **extra)
        except click.UsageError as exc:
            exc.show()  # a bare ``privmetrics`` shows the help, whose text is not the detail
            help_only = isinstance(exc, getattr(click.exceptions, "NoArgsIsHelpError", ()))
            _fail(UsageError("Missing command." if help_only else exc.format_message()))
        except click.Abort:  # end of input or Ctrl-C at a prompt, as in standalone mode
            click.echo("Aborted!", err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main():
    """Privacy-metric toolbox: compute metrics, browse the catalog, get advice."""


@main.command("list")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text", show_default=True)
@click.option("--category", default=None, help="Only metrics in this output category.")
def list_cmd(fmt, category):
    """List catalog metrics with category and direction."""
    if category is not None and category not in registry.CATEGORIES:
        _fail(ParamError(f"unknown category {category!r}"))
    rows = [
        {"id": d.id, "category": d.category, "direction": d.direction, "implemented": d.implemented}
        for d in map(registry.lookup, registry.all_ids())
        if category is None or d.category == category
    ]
    if fmt == "json":
        click.echo(json.dumps(rows, sort_keys=True))
    elif fmt == "csv":
        click.echo("id,category,direction,implemented")
        for r in rows:
            click.echo(
                f"{r['id']},{r['category']},{_csv_cell(_fmt_direction(r['direction']))},{r['implemented']}"
            )
    else:
        width = max(len(r["id"]) for r in rows)
        for r in rows:
            flag = "" if r["implemented"] else "  (descriptor only)"
            click.echo(
                f"{r['id']:<{width}}  {r['category']:<20} {_fmt_direction(r['direction'])}{flag}"
            )


@main.command()
@click.argument("metric_id")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text", show_default=True)
def describe(metric_id, fmt):
    """Show the full catalog record for one metric."""
    try:
        d = registry.lookup(metric_id)
    except MetricError as exc:
        _fail(exc)
    payload = d.to_json_dict()
    lines = [
        f"{d.name} ({d.id})",
        f"  category:    {d.category}",
        f"  range:       {ranges.fmt_range(d.value_range)}",
        f"  direction:   {_fmt_direction(d.direction)} (high/low values mean high privacy)",
        f"  sources:     {', '.join(sorted(d.data_sources))}",
        f"  inputs:      {', '.join(sorted(d.inputs)) or 'none'}"
        + (f" (optional: {', '.join(sorted(d.optional_inputs))})" if d.optional_inputs else ""),
        f"  unit:        {d.unit}",
        f"  implemented: {d.implemented}" + (f" (op {d.op_ref})" if d.op_ref else ""),
        f"  summary:     {d.summary}",
    ]
    if d.implemented:
        lines.append(f"  expects:     {compute_mod.inputs_help(d.id)}")
    for c in d.caveats:
        lines.append(f"  caveat:      {c}")
    _emit(payload, fmt, lines)


@main.command("compute")
@click.argument("metric_id")
@click.option("--in", "inputs", multiple=True, type=click.Path(), help="Input file (repeatable).")
@click.option("--schema", type=click.Path(), default=None, help="Role/kind sidecar for CSV tables.")
@click.option("--param", "params", multiple=True, help="key=value metric parameter (repeatable).")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text", show_default=True)
def compute_cmd(metric_id, inputs, schema, params, fmt):
    """Compute one metric from its input files and parameters."""
    try:
        kv = {}
        for p in params:
            if "=" not in p:
                raise ParamError(f"--param must be key=value, got {p!r}")
            key, _, value = p.partition("=")
            kv[key.strip()] = value
        result = compute_mod.compute(metric_id, list(inputs), schema, kv)
    except MetricError as exc:
        _fail(exc)
    payload = result.to_json_dict()
    value = jsonable(result.value)
    lines = [f"{metric_id} = {json.dumps(value) if isinstance(value, dict) else value} [{result.unit}]"]
    if result.out_of_range:
        lines.append("note: value lies outside the catalog's declared range")
    _emit(payload, fmt, lines)


@main.command()
@click.option("--answers", type=click.Path(), default=None,
              help="JSON answers file; omit for interactive prompts.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text", show_default=True)
def advise(answers, fmt):
    """Filter the catalog through the eight selection questions."""
    try:
        if answers is not None:
            ans = registry.AdvisorAnswers.from_json_dict(_load_json(_read(answers), "answers"))
        else:
            ans = _prompt_answers()
        rec = registry.filter_metrics(ans)
    except MetricError as exc:
        _fail(exc)
    payload = rec.to_json_dict()
    lines = ["metrics:"]
    lines += [f"  {m}" for m in rec.metrics] or ["  (none)"]
    for w in rec.warnings:
        lines.append(f"warning: {w}")
    for n in rec.notes:
        lines.append(f"note: {n}")
    _emit(payload, fmt, lines)


def _prompt_answers() -> registry.AdvisorAnswers:
    questions = dict(registry.ADVISOR_QUESTIONS)

    def ask_set(q, label, universe):
        click.echo(questions[q], err=True)
        raw = click.prompt(label, default="all", show_default=True, err=True)
        if raw.strip().lower() in ("all", ""):
            return frozenset(universe)
        return frozenset(s.strip() for s in raw.split(",") if s.strip())

    cats = ask_set("q1", f"q1 output categories {registry.CATEGORIES}", registry.CATEGORIES)
    guarantee = click.confirm("q1 are provable guarantees required?", default=False, err=True)
    adversary_required = click.confirm(
        questions["q2"] + "\nq2 must metrics model an adversary?", default=False, err=True
    )
    sources = ask_set("q3", f"q3 data sources {registry.DATA_SOURCES}", registry.DATA_SOURCES)
    avail = ask_set("q4", f"q4 available inputs {registry.INPUT_KINDS}", registry.INPUT_KINDS)
    free = {}
    for q, field_name in (
        ("q5", "q5_audience"),
        ("q6", "q6_related"),
        ("q7", "q7_quality"),
        ("q8", "q8_impl"),
    ):
        click.echo(questions[q], err=True)
        free[field_name] = click.prompt(q, default="", show_default=False, err=True)
    return registry.AdvisorAnswers(
        q1_categories=cats,
        q1_guarantee=guarantee,
        q2_adversary_required=adversary_required,
        q3_sources=sources,
        q4_inputs_available=avail,
        **free,
    )


@main.command()
@click.option("--format", "fmt", type=click.Choice(("json",)), default="json", show_default=True)
def export(fmt):
    """Dump the whole catalog as deterministic JSON, sorted by metric id."""
    click.echo(registry.export_registry())


if __name__ == "__main__":
    main()
