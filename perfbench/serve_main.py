"""Launcher for the ``served`` workload's server: one fresh lock server.

Started by ``served.py`` as a child process, from the repository root::

    python3 perfbench/serve_main.py --trace 0

Builds the bib document, binds an ephemeral port on 127.0.0.1 and prints
``READY <port>``.  On SIGTERM the server shuts down gracefully and the
launcher prints one JSON line: peak RSS, the server's STATS payload, the
database statistics, the host-speed probe's samples taken in the server
process from its start (:class:`common.SpeedProbe`, untraced only), and
with ``--trace 1`` the server-side per-layer metrics.  The traced
variant installs its probes here, around the server the program builds,
before the first client connects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import SpeedProbe, out_dir, own_peak_rss_mb  # noqa: E402

#: The served stack: taDOM3+ at lock depth 4, isolation repeatable.
SERVER = {"protocol": "taDOM3+", "lock_depth": 4,
          "isolation": "repeatable", "scale": 0.1, "seed": 2006}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    from repro.net.server import ServerConfig, run_server

    traced = {}
    if args.trace:
        import probes
        from spans import Recorder

        traced["setup"] = Recorder()
        traced["rec"] = Recorder()
        probes.install_bibgen(traced["setup"])

    def ready(server, _host, port) -> None:
        if args.trace:
            traced["setup"].restore()
            rec = traced["rec"]
            probes.install_codecs(rec)
            probes.install_database(rec, server.database)
            rec.patch(server.query, "evaluate", "query.evaluate",
                      generator=True, txn_arg=0)
            stats = server.database.document.buffer.stats
            traced["io"] = (stats.logical_reads, stats.physical_reads)
        print(f"READY {port}", flush=True)

    config = ServerConfig(host="127.0.0.1", port=0, **SERVER)
    server = run_server(config, ready=ready)
    probe.stop()
    database = server.database
    out = {"peak_rss_mb": own_peak_rss_mb(), "stats": server.stats(),
           "db": database.statistics(), "probe": probe.samples}
    if args.trace:
        traced["rec"].restore()
        stats = database.document.buffer.stats
        reads0, misses0 = traced["io"]
        commits = server.slo.committed
        metrics = probes.layer_metrics(
            traced["rec"], traced["setup"], commits, 0.0,
            lock_stats=database.statistics(),
            logical_reads=stats.logical_reads - reads0,
            physical_reads=stats.physical_reads - misses0,
        )
        traced["rec"].dump(os.path.join(out_dir(), "spans-served.jsonl"))
        out["layers"] = metrics
        out["attributed_s"] = sum(
            metrics[f"{layer}.self_s"]["value"] for layer in probes.LAYERS)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
