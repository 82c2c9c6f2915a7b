"""One in-process client: imports privmetrics, warms up, then runs passes over its jobs.

    python perfbench/worker.py SPEC.json          # timed run, writes SPEC's result files
    python perfbench/worker.py SPEC.json --probe  # import and warm-up only (set-up time)

SPEC holds the jobs, the warm-up jobs, the seed, the seconds to run, whether
to shuffle each pass, whether to trace, the run times at which to pause, and
where to write ``result.json`` and ``calls.bin`` (one float64 per call: its
wall time in ms). Each call is ``compute.compute`` followed by the JSON
serialisation the CLI does for ``--format json``. A pass runs every job once,
in the given order or shuffled from the seed; passes repeat until the seconds
are used up, and the last one always completes.

At each pause time the worker finishes its pass, prints ``pause`` and waits
for a line on stdin; the parent measures a fresh interpreter meanwhile. Time
spent paused does not count towards the seconds.
"""

from __future__ import annotations

import json
import random
import sys
import time
from array import array
from pathlib import Path


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    import privmetrics.cli  # noqa: F401  (set-up is measured up to the CLI import)
    from privmetrics import compute as compute_mod
    from privmetrics.core import jsonable

    def serialize(result):
        return json.dumps(jsonable(result.to_json_dict()), sort_keys=True)

    def call(j):
        result = compute_mod.compute(j["metric"], j["in"], j["schema"], j["params"])
        return serialize(result)

    for j in spec["warm"]:
        call(j)
    if "--probe" in argv:
        return 0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        serialize = tracer.wrap("cli.serialize", serialize)

    jobs = spec["jobs"]
    rng = random.Random(spec["seed"])
    order = list(range(len(jobs)))
    outputs = [set() for _ in jobs]
    call_ms = array("d")
    pass_s, layers, errors = [], [], []
    clock = time.perf_counter_ns
    pauses = [p * 1e9 for p in spec["pause_at"]]
    paused = 0
    calls_file = open(spec["calls_path"], "wb")
    start = clock()
    while True:
        if pauses and clock() - start - paused >= pauses[0]:
            pauses.pop(0)
            t0 = clock()
            print("pause", flush=True)
            sys.stdin.readline()
            paused += clock() - t0
        if spec["shuffle"]:
            rng.shuffle(order)
        pass_start = clock()
        for i in order:
            t0 = clock()
            try:
                out = call(jobs[i])
            except Exception as exc:  # a failed call is counted, and the run goes on
                out = None
                errors.append(f"{jobs[i]['metric']}: {type(exc).__name__}: {exc}")
            call_ms.append((clock() - t0) / 1e6)
            outputs[i].add(out)
        end = clock()
        pass_s.append((end - pass_start) / 1e9)
        # Written out after each pass, so that the peak RSS does not grow with
        # the number of calls a run makes.
        call_ms.tofile(calls_file)
        del call_ms[:]
        if tracer is not None:
            layers.append(tracer.summary())
        if (end - start - paused) / 1e9 >= spec["seconds"]:
            break

    calls_file.close()
    result = {
        "pass_s": pass_s,
        "errors": errors,
        "outputs": [sorted(outs - {None}) for outs in outputs],
        "layers": layers,
    }
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
