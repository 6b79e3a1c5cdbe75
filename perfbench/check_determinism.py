"""Check that the traced run's counts repeat exactly for a seed.

Usage, from the root of a source checkout::

    python3 perfbench/check_determinism.py --workload pump --seed 1 --other-seed 2

Runs ``run.py --trace 1`` twice with ``--seed`` and once with ``--other-seed``,
each in its own process (so string hashing differs between them).  Every
count -- calls, rules, terms, sites, letters, ``failed_share`` -- must be equal
in the two same-seed runs.  The other seed must run as many operations and
leave the same counters at zero, which is the op mix keeping its shape.
Exits 1 and names the differences when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def traced(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def counts(result: dict) -> dict[str, float]:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] != "s" and name != "trace.overhead"
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args()
    first, again, other = (
        traced(args.workload, seed) for seed in (args.seed, args.seed, args.other_seed)
    )
    problems = [
        f"seed {args.seed}: {name} is {value} then {counts(again)[name]}"
        for name, value in counts(first).items()
        if counts(again)[name] != value
    ]
    if (first["attempted"], first["failed"]) != (again["attempted"], again["failed"]):
        problems.append(f"seed {args.seed}: attempted or failed differ between runs")
    if other["attempted"] != first["attempted"]:
        problems.append(
            f"seed {args.other_seed} ran {other['attempted']} operations, not {first['attempted']}"
        )
    zero_here = {name for name, value in counts(first).items() if value == 0}
    zero_there = {name for name, value in counts(other).items() if value == 0}
    for name in sorted(zero_here ^ zero_there):
        problems.append(f"seed {args.other_seed} changes whether {name} is zero")
    for problem in problems:
        print(problem)
    print(f"{args.workload}: {len(counts(first))} counts compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
