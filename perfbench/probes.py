"""Where the traced run records spans: the public calls of each layer.

Layers are named after the ``repro`` packages.  Every probe wraps a
public function from the outside (see :class:`spans.Recorder`); nothing
under ``src/`` knows it is traced.  Methods that ``repro`` rebinds per
instance -- ``BufferManager.fix`` (chosen by ``_rebind_fix``) and the
node-manager operations (bound raw when the program's own tracing is
off) -- are wrapped on the instance, after the database is built.
"""

from __future__ import annotations

from typing import Dict, List

from common import mean, metric, percentile, ratio
from spans import Recorder, by_layer, by_name

#: DocumentStore's public calls (the storage layer's entry points).
STORE_CALLS = (
    "exists", "get", "try_get", "put", "delete", "first_node",
    "next_in_document_order", "previous_in_document_order",
    "next_following", "first_child", "last_child", "next_sibling",
    "next_sibling_any", "previous_sibling", "previous_sibling_any",
    "children", "following_siblings", "preceding_siblings", "ancestors",
    "descendants", "following", "child_count", "attribute_root",
    "attributes", "string_child", "subtree", "subtree_labels",
    "subtree_size", "delete_subtree", "scan",
)

LOCK_GENERATORS = ("acquire", "acquire_children", "acquire_steps")


def install_bibgen(rec: Recorder) -> None:
    """Count and time document builds (setup)."""
    rec.patch_function("repro.tamix.bibgen", "generate_bib", "tamix.bibgen")


def install_codecs(rec: Recorder) -> None:
    """SPLID byte codec and the wire frame codec, at every binding."""
    from repro.splid.splid import Splid

    rec.patch_function("repro.splid.codec", "encode", "splid.encode")
    rec.patch_function("repro.splid.codec", "decode", "splid.decode")
    rec.patch(Splid, "parse", "splid.parse")
    rec.patch_function("repro.net.wire", "encode_frame", "net.encode_frame")
    rec.patch_function("repro.net.wire", "decode_frame", "net.decode_frame")


def install_contest(rec: Recorder) -> None:
    """The simulator loop and the TaMix transaction programs."""
    from repro.sched.simulator import Simulator
    from repro.tamix.transactions import TRANSACTION_TYPES

    rec.patch(Simulator, "run", "sched.run")
    for name in list(TRANSACTION_TYPES):
        rec.patch(TRANSACTION_TYPES, name, "tamix.program")


def install_database(rec: Recorder, database) -> None:
    """dom, locking, txn and storage probes on one embedded database."""
    from repro.net.server import NODE_OPS

    nodes, locks, document = database.nodes, database.locks, database.document
    clock = lambda: locks.clock()  # noqa: E731 - rebinds with set_clock

    def subtree_size(entries) -> None:
        rec.count("dom.subtree_reads")
        rec.count("dom.subtree_nodes", len(entries))

    for op in sorted(NODE_OPS):
        rec.patch(nodes, op, "dom.op", generator=True, txn_arg=0,
                  on_return=subtree_size if op == "read_subtree" else None)
    for name in LOCK_GENERATORS:
        rec.patch(locks, name, "locking.acquire", generator=True,
                  wait_clock=clock)
    rec.patch(locks, "end_operation", "locking.end_operation")
    rec.patch(locks, "release_transaction", "locking.release")
    rec.patch(database, "begin", "txn.begin")
    rec.patch(database, "commit", "txn.commit", txn_arg=0)
    rec.patch(database, "abort", "txn.rollback", txn_arg=0)
    for name in STORE_CALLS:
        rec.patch(document.store, name, "storage.store")
    rec.patch(document.buffer, "fix", "storage.fix")


def install_router(rec: Recorder, database, transport) -> None:
    """Coordinator side of the sharded stack: router, legs, txn facade."""

    def leg_bytes(reply) -> None:
        rec.count("shard.reply_bytes", len(reply))

    router = database.router
    rec.patch(router, "ship", "shard.router", generator=True, txn_arg=0)
    rec.patch(router, "finish", "shard.router", txn_arg=0)
    rec.patch(transport, "request", "shard.leg", on_return=leg_bytes)
    rec.patch(database, "begin", "txn.begin")
    rec.patch(database, "commit", "txn.commit", txn_arg=0)
    rec.patch(database, "abort", "txn.rollback", txn_arg=0)


# -- per-layer metrics -------------------------------------------------------

#: Layers reported as ``<layer>.self_s`` on every workload.
LAYERS = ("tamix", "sched", "dom", "query", "locking", "txn", "storage",
          "splid", "net", "shard")


def _row(rows, name):
    return rows.get(name, {"spans": 0, "total_ns": 0, "self_ns": 0})


def _per(rec: Recorder, rows, name: str, scale: float = 1e3) -> float:
    """Self time of ``name`` per call, in ``scale`` units per ns."""
    return ratio(_row(rows, name)["self_ns"] / scale,
                 rec.counts.get(name + ".calls", 0))


def layer_metrics(rec: Recorder, setup_rec: Recorder, commits: int,
                  wall_s: float, *, lock_stats=None, logical_reads=0,
                  physical_reads=0) -> Dict[str, Dict[str, object]]:
    """The layer breakdown of one traced window of ``wall_s`` seconds."""
    rows = by_name(rec.spans())
    layers = by_layer(rows)
    counts = rec.counts
    bibgen = _row(by_name(setup_rec.spans()), "tamix.bibgen")
    out = {f"{layer}.self_s": metric(layers.get(layer, 0) / 1e9, "s")
           for layer in LAYERS}
    attributed = sum(layers.values()) / 1e9
    out.update({
        "tamix.bibgen_s": metric(bibgen["total_ns"] / 1e9, "s"),
        "tamix.bibgen_calls": metric(
            setup_rec.counts.get("tamix.bibgen.calls", 0), "count"),
        "dom.ops_per_commit": metric(
            ratio(counts.get("dom.op.calls", 0), commits), "count"),
        "dom.self_us_per_op": metric(_per(rec, rows, "dom.op"), "us"),
        "dom.subtree_nodes_per_read": metric(ratio(
            counts.get("dom.subtree_nodes", 0),
            counts.get("dom.subtree_reads", 0)), "count"),
        "query.self_us_per_call": metric(
            _per(rec, rows, "query.evaluate"), "us"),
        "locking.acquire_self_us": metric(
            _per(rec, rows, "locking.acquire"), "us"),
        "locking.release_self_us_per_commit": metric(ratio(
            _row(rows, "locking.release")["self_ns"] / 1e3, commits), "us"),
        "locking.wait_ms_per_commit": metric(ratio(
            counts.get("locking.acquire.wait_ms", 0), commits), "ms"),
        "txn.commit_self_us": metric(_per(rec, rows, "txn.commit"), "us"),
        "txn.rollback_self_us": metric(_per(rec, rows, "txn.rollback"), "us"),
        "storage.logical_reads_per_commit": metric(
            ratio(logical_reads, commits), "count"),
        "storage.physical_reads": metric(physical_reads, "count"),
        "storage.self_us_per_commit": metric(
            ratio(layers.get("storage", 0) / 1e3, commits), "us"),
        "splid.decodes_per_commit": metric(
            ratio(counts.get("splid.decode.calls", 0), commits), "count"),
        "splid.self_us_per_commit": metric(
            ratio(layers.get("splid", 0) / 1e3, commits), "us"),
        "net.encode_us_per_frame": metric(
            _per(rec, rows, "net.encode_frame"), "us"),
        "net.decode_us_per_frame": metric(
            _per(rec, rows, "net.decode_frame"), "us"),
        "trace.wall_s": metric(wall_s, "s"),
        "trace.unattributed_s": metric(wall_s - attributed, "s"),
        "trace.unattributed_frac": metric(
            ratio(wall_s - attributed, wall_s), "ratio"),
        "trace.spans": metric(len(rec.start), "count"),
    })
    if lock_stats is not None:
        requests = lock_stats.get("requests", 0)
        out.update({
            "locking.requests_per_commit": metric(
                ratio(requests, commits), "count"),
            "locking.instant_grant_frac": metric(
                ratio(lock_stats.get("instant_grants", 0), requests), "ratio"),
            "locking.waits_per_commit": metric(
                ratio(lock_stats.get("waits", 0), commits), "count"),
            "locking.conversions_per_commit": metric(
                ratio(lock_stats.get("conversions", 0), commits), "count"),
            "locking.deadlocks_per_1k_commits": metric(
                ratio(1000 * lock_stats.get("deadlocks", 0), commits),
                "count"),
        })
    return out


def shard_metrics(legs: Recorder, service: Recorder, commits: int, *,
                  probes_sent: int, cross_deadlocks: int):
    """Leg round trips (process transport) against shard-side handling
    (the same contest over the sim transport)."""
    rtts = _durations_us(legs, "shard.leg")
    services = _durations_us(service, "shard.service")
    rows = by_name(legs.spans())
    rtt_mean, service_mean = mean(rtts), mean(services)
    return {
        "shard.legs_per_commit": metric(ratio(len(rtts), commits), "count"),
        "shard.leg_rtt_us_p50": metric(percentile(rtts, 50), "us"),
        "shard.leg_rtt_us_p99": metric(percentile(rtts, 99), "us"),
        "shard.service_us_per_leg": metric(service_mean, "us"),
        "shard.ipc_us_per_leg": metric(rtt_mean - service_mean, "us"),
        "shard.router_self_us_per_commit": metric(ratio(
            _row(rows, "shard.router")["self_ns"] / 1e3, commits), "us"),
        "shard.probes_per_commit": metric(ratio(probes_sent, commits),
                                          "count"),
        "shard.cross_deadlocks": metric(cross_deadlocks, "count"),
        "net.frames_per_commit": metric(ratio(len(rtts), commits), "count"),
        "net.reply_bytes_per_commit": metric(ratio(
            legs.counts.get("shard.reply_bytes", 0), commits), "bytes"),
    }


def _durations_us(rec: Recorder, name: str) -> List[float]:
    nid = rec.names.index(name) if name in rec.names else -1
    return [(rec.end[i] - rec.start[i]) / 1e3
            for i in range(len(rec.start)) if rec.name[i] == nid]
