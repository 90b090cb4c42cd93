"""The repository benchmark: one command, three workloads, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload contest-node2pl --seed 1 \\
        --seconds 24 --trace 0

* ``contest-node2pl`` -- embedded CLUSTER1 contest, Node2PL (contest.py);
* ``served`` -- a fresh ``repro`` lock server driven open-loop over TCP
  (served.py);
* ``sharded`` -- CLUSTER1 over two process shards (contest.py).

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Every correctness check runs in both modes; when one fails
the command prints the reason to stderr and exits 1 without a result.
The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("contest-node2pl", "served", "sharded")

#: Per-layer metrics a workload's path never produces, by name or by
#: ``layer.`` prefix: no wire, query or shards in the embedded contest, no
#: simulator or shards when served, and the client-side and server-SLO
#: ``net.`` figures plus the latency percentiles exist on ``served`` only.
#: These read 0; every other declared metric must come from the workload.
ABSENT = {
    "contest-node2pl": ("query.", "net.", "shard.", "p50_ms", "p99_ms"),
    "served": ("tamix.self_s", "sched.self_s", "shard."),
    "sharded": ("query.", "net.server_txn_p50_ms", "net.server_txn_p99_ms",
                "net.client_rtt_us", "net.conn_wait_ms_p99",
                "net.loop_lag_p99_ms", "net.gen_late_ms", "p50_ms", "p99_ms"),
}


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "served":
        import served as module
    else:
        import contest as module
    runner = module.run_traced if trace else module.run_timed
    return runner(workload, seed, seconds)


def absent(workload: str, name: str) -> bool:
    return any(name.startswith(entry) if entry.endswith(".") else name == entry
               for entry in ABSENT[workload])


def complete(workload: str, metrics: dict, declared: list) -> dict:
    """Every declared metric, in declared order: 0 for a metric the
    workload is declared not to produce, the workload's value otherwise.
    A metric missing from neither place is a bug of the benchmark."""
    out = {}
    for item in declared:
        name = item["name"]
        if absent(workload, name):
            value = metrics.get(name, {}).get("value", 0.0)
            if value:
                raise RuntimeError(f"{workload}: {name} is declared absent "
                                   f"but reads {value}")
            out[name] = {"value": 0.0, "unit": item["unit"]}
        elif name in metrics:
            out[name] = metrics[name]
        else:
            raise RuntimeError(f"{workload}: no value for {name}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from common import CheckFailed, host_cpu_ticks, ratio

    spec = load_spec()
    ticks = host_cpu_ticks()
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    busy, idle, steal = (b - a for a, b in zip(ticks, host_cpu_ticks()))
    outcome["samples"]["host_steal_frac"] = ratio(steal, busy + idle + steal)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = {item["name"] for item in declared}
    metrics = complete(args.workload, outcome["metrics"], declared)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "samples": outcome["samples"],
        "unbounded": {name: value for name, value
                      in outcome["metrics"].items() if name not in names},
    }, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
