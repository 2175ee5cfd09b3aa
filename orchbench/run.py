"""Benchmark entry point.

Run from the repository root::

    python3 orchbench/run.py --workload fig1-churn --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer rollup.  A summary and the run's record go to stderr; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when the end-of-run
checks pass, 1 when they fail and 2 when the program under test cannot
be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: environment switches that change the program's behaviour; measured
#: runs clear them and record what they were
CLEARED_ENV = ("REPRO_OBS", "REPRO_SANITIZE", "REPRO_INDEX_VERIFY",
               "REPRO_JOURNAL")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"orchbench: no program source under {source}",
              file=sys.stderr)
        return 2
    # the program reads some of these switches at import time
    cleared = {name: os.environ.pop(name, None) for name in CLEARED_ENV}
    # the script's own directory would shadow standard modules (trace)
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(source), str(ROOT)] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != here]

    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        print(f"orchbench: imported repro from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2
    from orchbench import harness
    from orchbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"orchbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        outcome = harness.run_traced(args.workload, args.seed, args.seconds)
    else:
        outcome = harness.run_untraced(args.workload, args.seed, args.seconds)
    record = harness.stamp(ROOT, cleared)
    record.update(outcome.record)
    record["trace"] = args.trace
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True), file=sys.stderr)
    for problem in outcome.record["problems"]:
        print(f"orchbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(outcome.result_line()), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
