"""Record the contest journal digests the benchmark checks against.

For every contest seed the timed runs can draw (``SEED_SLOTS * seeds``
per workload), run the contest once -- ``sharded`` over
the deterministic sim transport -- and store the sha256 of
``RunResult.as_journal()``.  Run from the repository root::

    python3 perfbench/make_references.py --workload contest-node2pl
    python3 perfbench/make_references.py --workload sharded

Each call replaces the workload's digests in
``perfbench/references.json`` with a full set from the current program.
Only regenerate when the contest's behaviour is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import contest  # noqa: E402
from common import digest  # noqa: E402


def record(workload: str, seeds) -> dict:
    digests = {}
    for seed in seeds:
        stack = contest.build(workload, transport="sim")
        try:
            result = contest.coordinator(workload, stack, seed).run()
        finally:
            stack.close()
        digests[str(seed)] = digest(result.as_journal())
        print(workload, seed, result.committed, file=sys.stderr, flush=True)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(contest.WORKLOADS))
    args = parser.parse_args()
    seeds = contest.SEED_SLOTS * contest.WORKLOADS[args.workload]["seeds"]
    digests = record(args.workload, range(seeds))
    table = contest.load_references()
    table[args.workload] = digests
    with open(contest.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
