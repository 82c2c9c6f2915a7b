"""privmetrics benchmark: three closed-loop workloads, each driven by one client.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a checkout. WORKLOAD is one of

    cli_cold       sequential ``python -m privmetrics.cli compute ... --format json``
                   processes over a seeded draw of the fixtures;
    fixture_sweep  ``compute.compute`` plus JSON serialisation on every fixture, in
                   process and warm, pass after pass in seeded orders;
    large_inputs   the same in-process path on seeded large inputs.

Every output is checked: against the fixture's ``expected``, or for
large_inputs against references computed here without privmetrics. With
``--trace 0`` the end-to-end metrics are measured, with no wrappers in the
measured processes; with ``--trace 1`` a separate traced process gives the
per-layer metrics (see perfbench/README.md). The last line of stdout is one
JSON object; the exit code is 0 only if every output was right.

Inputs are written under ``.perfbench-work/`` in the checkout and removed at
the end; the package is run from ``src/`` through PYTHONPATH, never installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# One BLAS thread, here and in every child (set before numpy is imported).
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import inputs  # noqa: E402
from tracing import is_parse  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_cold", "fixture_sweep", "large_inputs")
# Percentile reported as call_ms.tail, fixed per workload so that every run of
# a workload reports the same one; each has at least ten samples beyond it at
# the benchmark's run length.
TAIL_PERCENTILE = {"cli_cold": 70, "fixture_sweep": 99, "large_inputs": 70}
SETUP_PROBES = 5
IMPORT_PROBES = 5
FLOOR_PROBES = 10
# A child is killed if it runs this long, beyond the seconds it is asked to measure.
CHILD_TIMEOUT_S = 170
IMPORTS = {
    "import.privmetrics_cli_ms": "privmetrics.cli",
    "import.privmetrics_compute_ms": "privmetrics.compute",
    "import.privmetrics_tabular_ms": "privmetrics.tabular",
    "import.privmetrics_registry_ms": "privmetrics.registry",
    "import.scipy_optimize_ms": "scipy.optimize",
    "import.numpy_ms": "numpy",
    "import.click_ms": "click",
}
KERNEL_MODULES = ("uncertainty", "infogain", "indist", "adversary", "tabular")
TIMED_SPANS_S = (
    "infogain.channel_capacity", "infogain.system_anonymity_level",
    "indist.dp_epsilon", "indist.adp_delta",
    "tabular.k_anonymity", "tabular.l_diversity", "tabular.t_closeness",
    "tabular.alpha_k_anonymity", "tabular.ke_anonymity", "tabular.em_anonymity",
)


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float


class Bench:
    """Where the checkout is, where inputs go, and how to start a child interpreter."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.python = sys.executable
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.specs = 0

    def run(self, argv: list[str], timeout: float = CHILD_TIMEOUT_S, on_pause=None) -> Child:
        """Run a child to completion; its wall time and peak RSS come from wait4.

        With ``on_pause``, each ``pause`` line the child prints runs ``on_pause``
        and then answers the child with a line on its stdin.
        """
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            pipe = subprocess.PIPE if on_pause else None
            proc = subprocess.Popen(argv, stdin=pipe, stdout=pipe or out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                if on_pause:
                    for line in proc.stdout:
                        if line == b"pause\n":
                            on_pause()
                            proc.stdin.write(b"go\n")
                            proc.stdin.flush()
                        else:
                            out.write(line)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                for stream in (proc.stdin, proc.stdout):
                    if stream:
                        stream.close()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read().decode(), err.read().decode(), wall,
                         usage.ru_maxrss / 1024)

    def worker(self, jobs, warm, seed, seconds, shuffle=False, trace=False, probe=False,
               pause_at=(), on_pause=None):
        """Run perfbench/worker.py; returns (Child, result dict, per-call ms).

        The worker pauses at each of the run times ``pause_at`` (in seconds),
        and ``on_pause`` runs while it waits.
        """
        self.specs += 1
        spec = self.work / f"spec{self.specs}.json"
        result, calls = self.work / "result.json", self.work / "calls.bin"
        spec.write_text(json.dumps({"jobs": jobs, "warm": warm, "seed": seed, "seconds": seconds,
                                    "shuffle": shuffle, "trace": trace, "pause_at": list(pause_at),
                                    "result_path": str(result), "calls_path": str(calls)}))
        argv = [self.python, str(HERE / "worker.py"), str(spec)] + (["--probe"] if probe else [])
        # Each pause may wait for a child that is itself given CHILD_TIMEOUT_S.
        child = self.run(argv, seconds + CHILD_TIMEOUT_S * (1 + len(pause_at)),
                         on_pause if pause_at else None)
        if child.code != 0:
            raise BenchError(f"worker exited {child.code}: {child.err[-2000:]}")
        if probe:
            return child, None, None
        call_ms = array("d")
        with open(calls, "rb") as fh:
            call_ms.frombytes(fh.read())
        return child, json.loads(result.read_text()), list(call_ms)

    def setup_probe(self, warm) -> float:
        """Wall time of a fresh interpreter importing privmetrics.cli and warming up."""
        return self.worker([], warm, 0, 0, probe=True)[0].wall_s

    def cli(self, j: dict, traced_spans: Path | None = None) -> Child:
        args = ["compute", j["metric"], "--format", "json"]
        for p in j["in"]:
            args += ["--in", p]
        if j["schema"]:
            args += ["--schema", j["schema"]]
        for key, value in j["params"].items():
            args += ["--param", f"{key}={value}"]
        if traced_spans is None:
            return self.run([self.python, "-m", "privmetrics.cli"] + args)
        return self.run([self.python, str(HERE / "cli_traced.py"), str(traced_spans)] + args)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Statistics


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def call_stats(call_ms: list[float], pct: float) -> dict:
    """Median and nearest-rank ``pct`` percentile of the per-call times."""
    ordered = sorted(call_ms)
    tail = nearest_rank(ordered, pct)
    return {"p50": statistics.median(ordered), "tail": tail,
            "beyond": sum(1 for v in ordered if v > tail)}


# ---------------------------------------------------------------------------
# Correctness


class Gate:
    """Collects every wrong output; a run with any is not correct."""

    def __init__(self):
        self.problems = []

    def worker(self, jobs, result: dict):
        """Every distinct output of every job, and every call that raised, in a worker result."""
        for j, outs in zip(jobs, result["outputs"]):
            if not outs:
                self.problems.append(f"{j['metric']}: no output")
            for text in outs:
                self.note(inputs.check_output(j, text))
        self.problems += result["errors"]

    def note(self, problem):
        if problem:
            self.problems.append(problem)


def perturb(value, tol):
    """The expected value moved just outside the tolerance."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 10 * max(tol, 1e-12) + (1 if isinstance(value, int) else 0)
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: perturb(value[key], tol)}
    if isinstance(value, list) and value:
        return [perturb(value[0], tol)] + value[1:]
    return f"{value}-perturbed"


# ---------------------------------------------------------------------------
# Per-layer metrics from span summaries


def layer_metrics(agg: dict, distinct_inputs: int) -> dict:
    def total(pred, field):
        return sum(v[field] for k, v in agg.items() if pred(k))

    def field(name, i):
        return agg.get(name, [0, 0, 0, 0])[i]

    parse_calls = total(is_parse, 0)
    out = {
        "compute.self_ms": total(
            lambda k: k.startswith("compute.") and k != "compute.in_declared_range", 2) / 1e6,
        "compute.calls": field("compute.compute", 0),
        "registry.lookup_ms": field("registry.lookup", 1) / 1e6,
        "compute.range_check_ms": field("compute.in_declared_range", 1) / 1e6,
        "cli.serialize_ms": field("cli.serialize", 1) / 1e6,
        "core.parse_ms": total(is_parse, 3) / 1e6,
        "core.parse_calls": parse_calls,
        "core.parse_table_ms": field("core.parse_table", 1) / 1e6,
        "core.parse_mechanism_ms": field("core.parse_mechanism", 1) / 1e6,
        "core.parse_calls_per_input_file": parse_calls / distinct_inputs,
        "core.equivalence_classes_ms": field("core.equivalence_classes", 1) / 1e6,
        "core.equivalence_classes_calls": field("core.equivalence_classes", 0),
    }
    for name in TIMED_SPANS_S:
        out[f"{name}_s"] = field(name, 1) / 1e9
    for mod in KERNEL_MODULES:
        out[f"{mod}.kernel_ms"] = total(
            lambda k: k.startswith(mod + ".") and not is_parse(k), 2) / 1e6
    return out


def merge(aggs: list[dict]) -> dict:
    out = {}
    for agg in aggs:
        for name, vals in agg.items():
            acc = out.setdefault(name, [0, 0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
    return out


def median_layers(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def import_breakdown(bench: Bench) -> dict:
    """Cumulative import times of chosen modules, medians over fresh interpreters."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_PROBES):
        child = bench.run([bench.python, "-X", "importtime", "-c", "import privmetrics.cli"])
        if child.code != 0:
            raise BenchError(f"import privmetrics.cli failed: {child.err[-2000:]}")
        cumulative = {}
        for line in child.err.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        for name, module in IMPORTS.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def interp_floor_ms(bench: Bench) -> float:
    return 1000 * statistics.median(
        bench.run([bench.python, "-c", "pass"]).wall_s for _ in range(FLOOR_PROBES))


# ---------------------------------------------------------------------------
# Workloads


def distinct_inputs(jobs) -> int:
    return len({p for j in jobs for p in j["in"]})


def checked_cli_call(bench: Bench, j: dict, gate: Gate, spans: Path | None = None) -> Child:
    child = bench.cli(j, spans)
    if child.code != 0:
        gate.note(f"{j['metric']}: exit {child.code}: {child.err.strip()[-500:]}")
    else:
        gate.note(inputs.check_output(j, child.out.strip()))
    return child


def cli_loop(bench: Bench, draw, seconds, gate, pause_at, on_pause):
    """Sequential CLI processes for ``seconds``.

    Returns the call walls in ms, the peak RSS of each call, the failures and
    the seconds the loop ran.

    ``on_pause`` runs between calls at each of the loop times ``pause_at``;
    the time it takes does not count towards the seconds.
    """
    walls, rss, failed = [], [], 0
    pauses, paused = list(pause_at), 0.0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start - paused < seconds:
        if pauses and time.perf_counter() - start - paused >= pauses[0]:
            pauses.pop(0)
            t0 = time.perf_counter()
            on_pause()
            paused += time.perf_counter() - t0
        child = checked_cli_call(bench, draw[len(walls) % len(draw)], gate)
        walls.append(child.wall_s * 1000)
        rss.append(child.maxrss_mb)
        failed += child.code != 0
    return walls, rss, failed, time.perf_counter() - start - paused


def end_to_end(bench, workload, jobs, warm, seed, seconds, gate) -> tuple[dict, dict, int, int]:
    """The end-to-end metrics.

    The set-up probes are spread over the run: one at the start of the timed
    loop, one at the first call or pass boundary after each further quarter
    of it, and the rest after it, so that a slow spell of the machine does not
    cover them all.
    """
    bench.setup_probe(warm)  # writes bytecode caches; not counted
    probes = []

    def probe():
        probes.append(bench.setup_probe(warm))

    pause_at = [k * seconds / (SETUP_PROBES - 1) for k in range(SETUP_PROBES - 1)]
    pct = TAIL_PERCENTILE[workload]
    if workload == "cli_cold":
        walls, rss, failed, loop_s = cli_loop(bench, inputs.shuffled(jobs, seed), seconds, gate,
                                              pause_at, probe)
        peak = max(rss)
    else:
        child, res, walls = bench.worker(jobs, warm, seed, seconds, workload == "fixture_sweep",
                                         pause_at=pause_at, on_pause=probe)
        gate.worker(jobs, res)
        failed, loop_s = len(res["errors"]), sum(res["pass_s"])
        peak = child.maxrss_mb
    while len(probes) < SETUP_PROBES:  # the last, and any a long pass left out
        probe()
    attempted = len(walls)
    stats = call_stats(walls, pct)
    metrics = {
        "setup_s": statistics.median(probes),
        "calls_per_s": attempted / loop_s,
        "call_ms.p50": stats["p50"],
        "call_ms.tail": stats["tail"],
        "peak_rss_mb": peak,
    }
    notes = {
        "setup_s": f"median of {len(probes)} fresh interpreters spread over the run",
        "calls_per_s": f"{attempted} calls / {loop_s:.3f} s",
        "call_ms.p50": f"{attempted} samples",
        "call_ms.tail": f"p{pct}, {stats['beyond']} of {attempted} samples beyond it",
        "peak_rss_mb": "largest CLI process" if workload == "cli_cold" else "worker process",
    }
    return metrics, notes, attempted, failed


def traced(bench, workload, jobs, warm, seed, seconds, gate) -> tuple[dict, dict, int, int]:
    """Per-layer metrics; the tracing overhead compares traced and untraced runs made in turn."""
    metrics = import_breakdown(bench)
    metrics["cli.interp_floor_ms"] = interp_floor_ms(bench)
    if workload == "cli_cold":
        # One traced pass over every fixture, so that every layer is reached,
        # whatever the seconds. An untraced call follows every eighth one; more
        # would bring the run near 180 s when a CLI call takes a second or more.
        aggs, traced_s, plain_s, failed = [], [], [], 0
        spans = bench.work / "spans.json"
        for i, j in enumerate(inputs.shuffled(jobs, seed)):
            child = checked_cli_call(bench, j, gate, spans)
            traced_s.append(child.wall_s)
            failed += child.code != 0
            aggs.append(json.loads(spans.read_text()))
            if i % 8 == 0:
                child = checked_cli_call(bench, j, gate)
                plain_s.append(child.wall_s)
                failed += child.code != 0
        attempted, passes = len(traced_s) + len(plain_s), 1
        metrics.update(layer_metrics(merge(aggs), distinct_inputs(jobs)))
    else:
        shuffle = workload == "fixture_sweep"
        plain_s, traced_s, layers, attempted, failed = [], [], [], 0, 0
        for trace in (False, True, False, True):
            _, res, calls = bench.worker(jobs, warm, seed, seconds / 4, shuffle, trace)
            gate.worker(jobs, res)
            attempted += len(calls)
            failed += len(res["errors"])
            (traced_s if trace else plain_s).extend(res["pass_s"])
            layers += res["layers"]
        passes = len(layers)
        metrics.update(median_layers([layer_metrics(a, distinct_inputs(jobs)) for a in layers]))
    metrics.update(inputs.input_sizes(jobs))
    metrics["trace.overhead_pct"] = 100 * (statistics.median(traced_s) / statistics.median(plain_s) - 1)
    unit = "call" if workload == "cli_cold" else "pass"
    notes = {"compute.self_ms": f"per pass; times are medians of {passes} traced passes",
             "trace.overhead_pct": f"median traced vs untraced {unit}, "
                                   f"{len(traced_s)} and {len(plain_s)} of them"}
    return metrics, notes, attempted, failed


def build_jobs(root: Path, work: Path, workload: str, seed: int):
    fixture_jobs = inputs.materialize_fixtures(inputs.load_fixtures(root), work / "fixtures")
    if workload == "cli_cold":
        return fixture_jobs, []
    if workload == "fixture_sweep":
        return fixture_jobs, fixture_jobs
    large = work / "large"
    large.mkdir()
    warm = [j for j in fixture_jobs if j["metric"] in inputs.LARGE_METRICS]
    return inputs.large_jobs(seed, large), warm


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(args, jobs, work: Path) -> dict:
    files = sorted({p for j in jobs for p in j["in"] + ([j["schema"]] if j["schema"] else [])})
    versions = {}
    for dist in ("numpy", "scipy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "sizes": inputs.input_sizes(jobs),
        "inputs_sha256": {str(Path(f).relative_to(work)): inputs.sha256(Path(f)) for f in files},
        "python": platform.python_version(), **versions,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="move one expected value just outside its tolerance; the run must fail")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "privmetrics" / "cli.py").is_file() or not (root / "fixtures").is_dir():
        print(f"error: {root} is not a privmetrics checkout (need src/privmetrics and fixtures/)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    (root / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench-work"))
    try:
        jobs, warm = build_jobs(root, work, args.workload, args.seed)
        if args.perturb:  # the first job the cli_cold draw runs; every pass runs it elsewhere
            j = inputs.shuffled(jobs, args.seed)[0]
            j["expected"] = {**j["expected"], "value": perturb(j["expected"]["value"], j["tolerance"])}
        bench, gate = Bench(root, work), Gate()
        measure = traced if args.trace else end_to_end
        metrics, notes, attempted, failed = measure(
            bench, args.workload, jobs, warm, args.seed, args.seconds, gate)
        rec = record(args, jobs, work)
        if set(metrics) != set(units):
            raise BenchError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench-work").rmdir()
        except OSError:
            pass

    for problem in gate.problems[:20]:
        print(f"WRONG {problem}")
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {units[name]}{note}")
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} calls)")
    print("record " + json.dumps(rec, sort_keys=True))
    correct = not gate.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
