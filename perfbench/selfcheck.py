"""Shows that the correctness gate passes right outputs and fails a wrong one.

    python3 perfbench/selfcheck.py [--seed N]

For each workload, runs the benchmark for one second as is, which must exit
0 with ``"correct": true``, and with ``--perturb``, which moves one expected
value just outside its tolerance and must exit 1 with ``"correct": false``.
Run from the root of a checkout; exits 1 if any of the six runs misbehaves.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    ok = True
    for workload in ("cli_cold", "fixture_sweep", "large_inputs"):
        for perturb in (False, True):
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", "0"] + (["--perturb"] if perturb else [])
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            correct = json.loads(lines[-1])["correct"] if lines else None
            wrong = [line for line in lines if line.startswith("WRONG ")]
            expected = (1, False) if perturb else (0, True)
            good = (proc.returncode, correct) == expected
            ok &= good
            label = "perturbed" if perturb else "as is"
            print(f"{'ok  ' if good else 'FAIL'} {workload:<14} {label:<9} exit {proc.returncode} "
                  f"correct {correct}" + (f"  {wrong[0]}" if wrong else ""))
            if not good:
                print(proc.stderr[-2000:], file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
