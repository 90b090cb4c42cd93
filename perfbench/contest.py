"""The CLUSTER1 contest workloads: ``contest-node2pl`` and ``sharded``.

Both run the paper's CLUSTER1 mix (3 clients x 24 transactions) for a
fixed simulated duration per repetition, repeating build + contest a
fixed number of times: ``round(seconds / rep_s)``, where ``rep_s`` is a
repetition's measured wall time.  The count never depends on the live
pace, so a faster program runs the same contest seeds as a slower one.
A repetition's set-up is the document build and stack start -- for
``sharded`` that includes one PING answered by every shard, because
process shards build their replica after fork.

Inputs come from the seed: repetition ``k`` of seed ``s`` runs contest
seed ``(s mod SEED_SLOTS) * seeds + (k mod seeds)`` (``seeds`` per
workload), whose ``RunResult.as_journal()`` digest is recorded in
``references.json`` (``make_references.py`` regenerates it).  The digest
pins the commit count, so commits per wall second compare like for like.

Throughput is pooled -- all commits over all contest time of the run --
rather than a median of per-repetition rates: a shared host's CPU speed
wanders on every time scale, and a mean over the run's contest time
averages the wander where a median of short repetitions jumps with it.
Set-up and contest times are put at the reference host speed by the
host-speed probe sampled through the run (:class:`common.SpeedProbe`)
and steal-adjusted (:func:`common.delivered_s`); the raw wall-clock
figures go on the sample line.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from typing import Dict

from common import (
    SpeedProbe, check, child_pids, delivered_s, digest, host_cpu_ticks,
    median, metric, out_dir, own_peak_rss_mb, peak_rss_mb, ratio,
)

SCALE = 0.1
LOCK_DEPTH = 4
ISOLATION = "repeatable"
SEED_SLOTS = 32

#: ``run_ms`` is the simulated duration of one contest repetition, chosen
#: so the contest, not the set-up, fills most of a repetition's wall time
#: (``sharded`` builds three documents per set-up); ``seeds`` is the number
#: of distinct contest seeds per benchmark seed, one per repetition of a
#: 30 s run, since a seed's commit count sways its rate by several per
#: cent; ``rep_s`` is the wall time of one repetition, set-up included,
#: measured on a 2-vCPU VM (node2pl 2.5-2.9 s, sharded 7.5-9 s); it fixes
#: the repetition count only.
WORKLOADS = {
    "contest-node2pl": {"protocol": "Node2PL", "shards": 1,
                        "run_ms": 60_000.0, "seeds": 12, "rep_s": 2.5},
    "sharded": {"protocol": "taDOM3+", "shards": 2,
                "run_ms": 180_000.0, "seeds": 4, "rep_s": 7.5},
}

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(_HERE, "references.json")


def contest_seed(workload: str, seed: int, rep: int) -> int:
    seeds = WORKLOADS[workload]["seeds"]
    return (seed % SEED_SLOTS) * seeds + rep % seeds


def repetitions(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload]["rep_s"]))


def load_references() -> Dict[str, Dict[str, str]]:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


class Stack:
    """One built contest stack: database + bib info, with teardown."""

    def __init__(self, database, info, cluster=None):
        self.database = database
        self.info = info
        self.cluster = cluster

    @property
    def transport(self):
        return self.cluster.transport if self.cluster is not None else None

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()


def build(workload: str, *, transport: str = "process",
          observability=None) -> Stack:
    """Build the stack and wait until it can serve."""
    spec = WORKLOADS[workload]
    if spec["shards"] == 1:
        from repro.tamix.bibgen import generate_bib
        from repro.tamix.cluster import make_database

        info = generate_bib(scale=SCALE, seed=2006)
        database, info = make_database(
            spec["protocol"], LOCK_DEPTH, ISOLATION, scale=SCALE, info=info,
            observability=observability,
        )
        return Stack(database, info)
    from repro.net import wire
    from repro.shard import messages
    from repro.shard.runner import build_sharded_cluster

    cluster = build_sharded_cluster(
        spec["protocol"], shards=spec["shards"], lock_depth=LOCK_DEPTH,
        isolation=ISOLATION, scale=SCALE, observability=observability,
        transport=transport,
    )
    stack = Stack(cluster.database, cluster.info, cluster)
    try:
        for shard_id in range(spec["shards"]):
            opcode, _fields = wire.decode_frame(cluster.transport.request(
                shard_id, messages.encode_ping(0.0)
            ))
            check(opcode == messages.OP_SHARD_INFO,
                  f"shard {shard_id} did not answer PING")
    except BaseException:
        stack.close()
        raise
    return stack


def coordinator(workload: str, stack: Stack, seed: int):
    from repro.tamix.cluster import CLUSTER1_MIX
    from repro.tamix.coordinator import TaMixConfig, TaMixCoordinator

    spec = WORKLOADS[workload]
    config = TaMixConfig(
        protocol=spec["protocol"], lock_depth=LOCK_DEPTH,
        isolation=ISOLATION, run_duration_ms=spec["run_ms"],
        mix=dict(CLUSTER1_MIX), seed=seed,
    )
    return TaMixCoordinator(stack.database, stack.info, config)


def check_reference(workload: str, seed: int, result,
                    references: Dict[str, Dict[str, str]]) -> str:
    got = digest(result.as_journal())
    want = references.get(workload, {}).get(str(seed))
    check(want is not None, f"{workload}: no reference for contest seed {seed}")
    check(got == want, f"{workload}: journal digest {got[:12]} for contest "
          f"seed {seed} differs from the reference {want[:12]}")
    return got


def verify_history(workload: str, seed: int, want_digest: str) -> None:
    """Re-run one contest with access events on (the sim transport for
    ``sharded``): same journal as the timed run, and an oracle-clean
    history."""
    from repro.obs import Observability
    from repro.verify import verify_trace

    obs = Observability.enabled(capacity=None, access_events=True)
    stack = build(workload, transport="sim", observability=obs)
    try:
        result = coordinator(workload, stack, seed).run()
    finally:
        stack.close()
    check(digest(result.as_journal()) == want_digest,
          f"{workload}: traced/sim journal for contest seed {seed} differs "
          "from the timed run")
    report = verify_trace(list(obs.tracer.events()),
                          protocol=WORKLOADS[workload]["protocol"],
                          lock_depth=LOCK_DEPTH)
    check(report.ok, f"{workload}: history oracle: {report.summary()}")
    check(report.committed == result.committed,
          f"{workload}: oracle saw {report.committed} commits, "
          f"run reported {result.committed}")


def _stack_rss_mb(stack: Stack) -> float:
    total = own_peak_rss_mb()
    if stack.cluster is not None:
        total += sum(peak_rss_mb(pid) for pid in child_pids())
    return total


@contextmanager
def pinned(stack: Stack):
    """Put the coordinator and its shard processes on one CPU for the
    contest: every leg then pays a same-CPU context switch instead of a
    cross-CPU wake-up whose cost swings with the host's load.  Set-up
    stays unpinned, so the shards build their replicas in parallel."""
    cpus = os.sched_getaffinity(0)
    if stack.cluster is not None:
        for pid in (0, *child_pids()):
            os.sched_setaffinity(pid, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_timed(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    references = load_references()
    reps = []
    with SpeedProbe() as probe:
        for rep in range(repetitions(workload, seconds)):
            cseed = contest_seed(workload, seed, rep)
            gc.collect()
            k0, t0 = host_cpu_ticks(), time.perf_counter()
            stack = build(workload)
            t1, k1 = time.perf_counter(), host_cpu_ticks()
            try:
                with pinned(stack):
                    k2, t2 = host_cpu_ticks(), time.perf_counter()
                    result = coordinator(workload, stack, cseed).run()
                    t3, k3 = time.perf_counter(), host_cpu_ticks()
                rss = _stack_rss_mb(stack)
            finally:
                stack.close()
            got = check_reference(workload, cseed, result, references)
            reps.append({"seed": cseed, "digest": got, "setup_raw": t1 - t0,
                         "setup": delivered_s(probe.seconds(t0, t1), k0, k1),
                         "contest_raw": t3 - t2,
                         "contest": delivered_s(probe.seconds(t2, t3),
                                                k2, k3),
                         "committed": result.committed,
                         "aborted": result.aborted, "rss": rss})
    verify_history(workload, reps[0]["seed"], reps[0]["digest"])
    committed = sum(r["committed"] for r in reps)
    attempts = committed + sum(r["aborted"] for r in reps)
    contest_s = sum(r["contest"] for r in reps)
    setup_s = sum(r["setup"] for r in reps)
    metrics = {
        "setup_s": metric(median([r["setup"] for r in reps]), "s"),
        "commits_per_s": metric(committed / contest_s, "commits/s"),
        "goodput_tps": metric(committed / (setup_s + contest_s),
                              "commits/s"),
        # The first repetition runs in a fresh process; later ones
        # inherit its heap (and forked shards count it again).
        "peak_rss_mb": metric(reps[0]["rss"], "MB"),
    }
    raw_contest_s = sum(r["contest_raw"] for r in reps)
    samples = {"repetitions": len(reps), "commits": committed,
               "probe_samples": len(probe.samples),
               "failed_frac": ratio(attempts - committed, attempts),
               "wall_setup_s": median([r["setup_raw"] for r in reps]),
               "wall_commits_per_s": committed / raw_contest_s,
               "wall_goodput_tps": committed / (
                   raw_contest_s + sum(r["setup_raw"] for r in reps))}
    return {"attempted": attempts, "failed": 0, "metrics": metrics,
            "samples": samples}


# -- traced run -----------------------------------------------------------


def _traced_rep(workload: str, seed: int, *, transport: str,
                layers: str) -> Dict[str, object]:
    """One traced repetition; ``layers`` picks the probe set:
    ``all`` (every layer, in-process), ``router`` (coordinator side of
    the process transport), ``service`` (legs and shard handling only).
    """
    import probes
    from spans import Recorder

    setup_rec = Recorder()
    if layers == "all":
        probes.install_bibgen(setup_rec)
    try:
        stack = build(workload, transport=transport)
    finally:
        setup_rec.restore()
    rec = Recorder()
    databases = [stack.database]
    try:
        if layers == "service":
            rec.patch(stack.transport, "request", "shard.leg")
            for server in stack.transport.servers:
                rec.patch(server, "handle", "shard.service")
        else:
            probes.install_codecs(rec)
            probes.install_contest(rec)
            if stack.cluster is None:
                probes.install_database(rec, stack.database)
            else:
                probes.install_router(rec, stack.database, stack.transport)
                if layers == "all":
                    databases = [s.db for s in stack.transport.servers]
                    for server in stack.transport.servers:
                        rec.patch(server, "handle", "shard.service")
                        probes.install_database(rec, server.db)
        io = [db.document.buffer.stats for db in databases]
        reads0 = sum(s.logical_reads for s in io)
        misses0 = sum(s.physical_reads for s in io)
        gc.collect()
        with pinned(stack):
            t0 = time.perf_counter()
            result = coordinator(workload, stack, seed).run()
            wall = time.perf_counter() - t0
        rec.restore()
        router = getattr(stack.database, "router", None)
        return {
            "rec": rec, "setup_rec": setup_rec, "wall": wall,
            "result": result,
            "logical_reads": sum(s.logical_reads for s in io) - reads0,
            "physical_reads": sum(s.physical_reads for s in io) - misses0,
            "probes": router.detector.probes_sent if router else 0,
            "cross_deadlocks": router.detector.cross_count() if router else 0,
        }
    finally:
        rec.restore()
        stack.close()


def run_traced(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Per-layer numbers from one traced repetition of the contest seed
    of repetition 0, next to one untraced repetition of the same seed
    (their wall-time ratio is the tracing overhead)."""
    import probes

    references = load_references()
    cseed = contest_seed(workload, seed, 0)
    gc.collect()
    stack = build(workload)
    try:
        with pinned(stack):
            t0 = time.perf_counter()
            baseline = coordinator(workload, stack, cseed).run()
            untraced_wall = time.perf_counter() - t0
    finally:
        stack.close()
    want = check_reference(workload, cseed, baseline, references)
    sharded = WORKLOADS[workload]["shards"] > 1
    # Shard internals are traced over the sim transport: the shard code
    # and journals are identical, and forked shards never report back.
    full = _traced_rep(workload, cseed, layers="all",
                       transport="sim" if sharded else "process")
    reps = [full]
    if sharded:
        legs = _traced_rep(workload, cseed, transport="process",
                           layers="router")
        service = _traced_rep(workload, cseed, transport="sim",
                              layers="service")
        reps += [legs, service]
    for rep in reps:
        check(digest(rep["result"].as_journal()) == want,
              f"{workload}: traced journal differs from the untraced run")
    verify_history(workload, cseed, want)
    full["rec"].dump(os.path.join(out_dir(), f"spans-{workload}.jsonl"))
    result = full["result"]
    commits = result.committed
    metrics = probes.layer_metrics(
        full["rec"], full["setup_rec"], commits, full["wall"],
        lock_stats=result.lock_stats, logical_reads=full["logical_reads"],
        physical_reads=full["physical_reads"],
    )
    overhead = ratio(full["wall"], untraced_wall)
    if sharded:
        metrics.update(probes.shard_metrics(
            legs["rec"], service["rec"], commits,
            probes_sent=full["probes"],
            cross_deadlocks=full["cross_deadlocks"],
        ))
        # The untraced repetition ran over the process transport.
        overhead = ratio(legs["wall"], untraced_wall)
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    metrics["failed_frac"] = metric(
        ratio(result.aborted, commits + result.aborted), "ratio")
    return {"attempted": commits + result.aborted, "failed": 0,
            "metrics": metrics,
            "samples": {"commits": commits}}
