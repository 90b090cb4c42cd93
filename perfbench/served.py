"""The ``served`` workload: open-loop CLUSTER1 traffic against a fresh server.

Each step starts a new server (``serve_main.py``: taDOM3+, depth 4,
repeatable, scale 0.1) and drives it over TCP through the public client
(:class:`repro.net.client.RemoteDatabase`) with at most two connections:

* **light** -- Poisson arrivals at ``LIGHT_RATE`` for ``LIGHT_SHARE`` of
  the run's seconds; its latencies give ``p50_ms``/``p99_ms``;
* **overload** -- Poisson arrivals at ``OVERLOAD_RATE``, about 1.5x
  what the server can commit, for ``OVERLOAD_SHARE`` of the seconds,
  split into ``OVERLOAD_STEPS`` equal steps, each on its own server; the
  backlog drains after a step's last arrival.  Commits per second from
  each step's first arrival to its last reply, drain included, pooled
  over the steps, give ``goodput_tps``.  The server is saturated
  throughout, so that span is steal-adjusted
  (:func:`common.delivered_s`), like the set-up.

``commits_per_s`` is every commit of all steps over the CPU seconds the
server process spent while serving them: the light step's commits per
wall second would only echo its offered rate.  Set-up, the overload span
and the server's CPU seconds are put at the reference host speed by the
probe the launcher samples inside the server process
(:class:`common.SpeedProbe`, :func:`common.normalised_s`).

Open loop: the dispatcher queues each arrival at its due time whatever
the backlog, two workers take them in order, and every latency runs
from the due time to the COMMIT reply, so queueing for a connection is
counted.  Transactions have zero think time; book and topic picks are
zipf-hot (s = 1.1), persons uniform.  A deadlock victim or lock-wait
timeout restarts the same work (a new attempt) up to ``MAX_ATTEMPTS``
times; an arrival that never commits is a give-up.

A fresh server per step matters: TAlendAndReturn always inserts a lend
but returns one only half the time, so the hot books and their
``read_subtree`` replies grow with uptime and latency with them.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import queue
import random
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (
    check, cpu_s, delivered_s, host_cpu_ticks, median, metric,
    normalised_s, out_dir, percentile, ratio,
)

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_main.py")

LIGHT_RATE = 67.0      # txn/s, about 30% of capacity
OVERLOAD_RATE = 300.0  # txn/s, about 1.5x capacity
LIGHT_SHARE = 0.5      # of the run's seconds: 1,005 latencies in 30 s
OVERLOAD_SHARE = 0.35  # of the run's seconds, of arrivals
#: The document grows with each server's uptime (see below), so one long
#: overload step's goodput follows one random growth path: over 200 seeds
#: a replay of the hot books' growth spread by 0.06 of its median with one
#: step and by 0.04 with three.
OVERLOAD_STEPS = 3
CONNECTIONS = 2        # at most nproc connections on a 2-CPU box
ZIPF_S = 1.1
MAX_ATTEMPTS = 4
TOPIC_NAMES = ("topic", "subject", "category", "area")
START_TIMEOUT_S = 120.0

#: The server and the client share one CPU, so the run does not depend on
#: where the scheduler places them, and the server's host-speed probe times
#: the CPU that both run on.  With a CPU each, the server was busy for only
#: about two thirds of the overload step, so the speed of the client's CPU,
#: which no probe saw, set part of its pace.
CPU = min(os.sched_getaffinity(0))
STOP_TIMEOUT_S = 30.0


# -- workload ---------------------------------------------------------------


class Zipf:
    """Rank ``i`` (0-based) drawn with weight ``1 / (i + 1) ** s``."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        running, self._cdf = 0.0, []
        for weight in weights:
            running += weight
            self._cdf.append(running / total)
        self.n = n

    def pick(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self._cdf, rng.random()), self.n - 1)


class Catalog:
    """The ids the programs draw from (the server's WELCOME payload)."""

    def __init__(self, info: Dict[str, object]):
        self.books = list(info["book_ids"])
        self.topics = list(info["topic_ids"])
        self.persons = list(info["person_ids"])
        self._books = Zipf(len(self.books), ZIPF_S)
        self._topics = Zipf(len(self.topics), ZIPF_S)

    def book(self, rng):
        return self.books[self._books.pick(rng)]

    def topic(self, rng):
        return self.topics[self._topics.pick(rng)]

    def person(self, rng):
        return rng.choice(self.persons)


def query_book(s, cat: Catalog, rng) -> None:
    book = s.run(s.nodes.get_element_by_id(cat.book(rng)))
    if book is not None:
        s.run(s.nodes.read_subtree(book))


def chapter(s, cat: Catalog, rng) -> None:
    book_id = cat.book(rng)
    book = s.run(s.nodes.get_element_by_id(book_id))
    if book is None:
        return
    s.run(s.nodes.read_subtree(book))
    summaries = s.run(s.query(f"id('{book_id}')/chapters/chapter/summary"))
    if not summaries:
        return
    text = s.run(s.nodes.get_first_child(rng.choice(list(summaries))))
    if text is not None:
        s.run(s.nodes.update_content(
            text, f"revised summary {rng.randrange(10_000)}"))


def rename_topic(s, cat: Catalog, rng) -> None:
    topic = s.run(s.nodes.get_element_by_id(cat.topic(rng)))
    if topic is not None:
        s.run(s.nodes.rename_element(topic, rng.choice(TOPIC_NAMES)))


def lend_and_return(s, cat: Catalog, rng) -> None:
    book = s.run(s.nodes.get_element_by_id(cat.book(rng)))
    if book is None:
        return
    history = s.run(s.nodes.get_last_child(book))
    if history is None:
        return
    lends = s.run(s.nodes.get_child_nodes(history))
    if lends and rng.random() < 0.5:
        s.run(s.nodes.delete_subtree(lends[0]))
    date = f"2006-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
    s.run(s.nodes.insert_tree(
        history, ("lend", {"person": cat.person(rng), "return": date}, [])))


PROGRAMS = {"TAqueryBook": query_book, "TAchapter": chapter,
            "TArenameTopic": rename_topic, "TAlendAndReturn": lend_and_return}


def schedule(rng: random.Random, rate: float,
             duration_s: float) -> List[tuple]:
    """Poisson arrivals at ``rate`` over ``duration_s``: (offset s, txn
    type, program seed).

    The count is fixed at ``rate * duration_s`` and the offsets are that
    many uniform draws, sorted -- a Poisson process conditioned on its
    count -- so every seed offers the same rate over the same span.
    """
    from repro.tamix.cluster import CLUSTER1_MIX

    names, weights = list(CLUSTER1_MIX), list(CLUSTER1_MIX.values())
    count = max(1, round(rate * duration_s))
    offsets = sorted(rng.uniform(0.0, duration_s) for _ in range(count))
    return [(offset, rng.choices(names, weights)[0], rng.getrandbits(63))
            for offset in offsets]


# -- server lifecycle -------------------------------------------------------


class Server:
    """One launched server process (killed and reaped on every exit path)."""

    def __init__(self, trace: bool, log_dir: str):
        self.started = time.perf_counter()
        self._log = open(os.path.join(log_dir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, "--trace", str(int(trace))],
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            line = self._readline(START_TIMEOUT_S)
            check(line.startswith("READY "), f"server did not start: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.port = int(line.split()[1])

    def _readline(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            return ""
        return self.proc.stdout.readline().decode("utf-8", "replace").strip()

    def stop(self) -> Dict[str, object]:
        """SIGTERM, then the launcher's final JSON line."""
        self.proc.send_signal(signal.SIGTERM)
        line = self._readline(STOP_TIMEOUT_S)
        self.close()
        check(line.startswith("{"), f"server gave no final report: {line!r}")
        return json.loads(line)

    def close(self) -> None:
        """Reap the process (killing it if it outstays the stop timeout)."""
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()


# -- client probes ----------------------------------------------------------


class ClientProbe:
    """Client side of the wire: round trips, frames and reply bytes.

    Patches :class:`WireConnection` for the traced step only; list
    appends are atomic, so the two worker threads share the lists.
    """

    def __init__(self):
        from repro.net.client import WireConnection

        self.rtt_us: List[float] = []
        self.reply_bytes: List[int] = []
        self._cls = WireConnection
        self._originals = (WireConnection.request, WireConnection._read_exactly)
        request, read_exactly = self._originals
        clock, rtts, sizes = time.perf_counter, self.rtt_us, self.reply_bytes

        def timed_request(conn, *args, **kwargs):
            t0 = clock()
            try:
                return request(conn, *args, **kwargs)
            finally:
                rtts.append((clock() - t0) * 1e6)

        def counted_read(conn, n):
            data = read_exactly(conn, n)
            sizes.append(n)
            return data

        WireConnection.request = timed_request
        WireConnection._read_exactly = counted_read

    def restore(self) -> None:
        self._cls.request, self._cls._read_exactly = self._originals


# -- one step ---------------------------------------------------------------


def run_step(arrivals: List[tuple], *, trace: bool,
             log_dir: str) -> Dict[str, object]:
    """Start a server, replay ``arrivals`` open-loop, stop the server."""
    from repro.errors import ProtocolError, ReproError, is_transient
    from repro.net.client import RemoteDatabase, WireConnection

    gc.collect()
    # The server process and the worker threads started later inherit it.
    os.sched_setaffinity(0, {CPU})
    setup_ticks = host_cpu_ticks()
    server = Server(trace, log_dir)
    probe = None
    try:
        hello = WireConnection("127.0.0.1", server.port,
                               client_name="perfbench")
        ready_at = time.perf_counter()
        setup_ticks = (setup_ticks, host_cpu_ticks())
        catalog = Catalog(hello.server_info)
        hello.close()
        if trace:
            probe = ClientProbe()
        db = RemoteDatabase("127.0.0.1", server.port,
                            pool_size=CONNECTIONS, client_name="perfbench")
        n = len(arrivals)
        outcome: List[Optional[tuple]] = [None] * n
        picked = [0.0] * n
        late: List[float] = []
        errors: List[str] = []
        work: "queue.SimpleQueue" = queue.SimpleQueue()
        run_ticks = host_cpu_ticks()
        server_cpu = cpu_s(server.proc.pid)
        cpu_from = time.perf_counter()
        t0 = cpu_from + 0.05

        def serve_one(index: int) -> None:
            _offset, txn_type, program_seed = arrivals[index]
            attempts = 0
            while attempts < MAX_ATTEMPTS:
                attempts += 1
                rng = random.Random(program_seed)
                try:
                    with db.session(txn_type) as session:
                        PROGRAMS[txn_type](session, catalog, rng)
                except ReproError as exc:
                    if is_transient(exc) and not isinstance(exc,
                                                            ProtocolError):
                        continue  # deadlock victim, lock timeout: restart
                    errors.append(f"{type(exc).__name__}: {exc}")
                    break
                except Exception as exc:  # reported by the correctness gate
                    errors.append(f"{type(exc).__name__}: {exc}")
                    break
                outcome[index] = (True, attempts, time.perf_counter())
                return
            outcome[index] = (False, attempts, time.perf_counter())

        def worker() -> None:
            while True:
                index = work.get()
                if index is None:
                    return
                picked[index] = time.perf_counter()
                serve_one(index)

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        try:
            for index, (offset, _type, _seed) in enumerate(arrivals):
                due = t0 + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                work.put(index)
                late.append((time.perf_counter() - due) * 1000.0)
        finally:
            for _ in threads:
                work.put(None)
            for thread in threads:
                thread.join()
        run_ticks = (run_ticks, host_cpu_ticks())
        server_cpu = cpu_s(server.proc.pid) - server_cpu
        cpu_to = time.perf_counter()
        stats = db.stats()
        telemetry = db.telemetry() if trace else None
        db.close()
        report = server.stop()
    except BaseException:
        server.kill()
        raise
    finally:
        if probe is not None:
            probe.restore()
    check(not errors, f"failed arrivals: {errors[:3]}")
    check(all(o is not None for o in outcome), "an arrival never finished")
    check(int(stats["protocol_errors"]) == 0, "server counted protocol errors")
    dues = [t0 + a[0] for a in arrivals]
    commits = [o[2] - due for o, due in zip(outcome, dues) if o[0]]
    last = max(o[2] for o in outcome)
    speed = report["probe"]
    result = {
        "setup_wall_s": ready_at - server.started,
        "setup_s": delivered_s(
            normalised_s(server.started, ready_at, speed), *setup_ticks),
        "wall_s": last - dues[0],
        "busy_s": delivered_s(normalised_s(dues[0], last, speed),
                              *run_ticks),
        "server_cpu_raw_s": server_cpu,
        "server_cpu_s": normalised_s(cpu_from, cpu_to, speed,
                                     elapsed=server_cpu),
        "probe_samples": len(speed),
        "latencies_ms": [x * 1000.0 for x in commits],
        "committed": len(commits),
        "attempts": sum(o[1] for o in outcome),
        "given_up": sum(1 for o in outcome if not o[0]),
        "conn_wait_ms": [(p - d) * 1000.0 for p, d in zip(picked, dues)],
        "late_ms": late,
        "stats": stats,
        "telemetry": telemetry,
        "server": report,
        "probe": probe,
    }
    check(result["committed"] + result["given_up"] == n,
          "arrivals unaccounted for")
    check(int(stats["committed"]) == result["committed"],
          f"server committed {stats['committed']}, client saw "
          f"{result['committed']}")
    return result


def _steps(seed: int, seconds: float):
    """The light step's arrivals and each overload step's."""
    rng = random.Random(f"perfbench-served-{seed}")
    light = schedule(rng, LIGHT_RATE, LIGHT_SHARE * seconds)
    overload = [schedule(rng, OVERLOAD_RATE,
                         OVERLOAD_SHARE * seconds / OVERLOAD_STEPS)
                for _ in range(OVERLOAD_STEPS)]
    return light, overload


def run_timed(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    light_arrivals, overload_arrivals = _steps(seed, seconds)
    log_dir = out_dir()
    light = run_step(light_arrivals, trace=False, log_dir=log_dir)
    overload = [run_step(arrivals, trace=False, log_dir=log_dir)
                for arrivals in overload_arrivals]
    steps = [light, *overload]
    overload_commits = sum(s["committed"] for s in overload)
    attempts = sum(s["attempts"] for s in steps)
    committed = sum(s["committed"] for s in steps)
    metrics = {
        "setup_s": metric(median([s["setup_s"] for s in steps]), "s"),
        "commits_per_s": metric(ratio(committed, sum(
            s["server_cpu_s"] for s in steps)), "commits/s"),
        "goodput_tps": metric(ratio(overload_commits, sum(
            s["busy_s"] for s in overload)), "commits/s"),
        "p50_ms": metric(percentile(light["latencies_ms"], 50), "ms"),
        "p99_ms": metric(percentile(light["latencies_ms"], 99), "ms"),
        "peak_rss_mb": metric(max(s["server"]["peak_rss_mb"] for s in steps),
                              "MB"),
    }
    samples = {"light_arrivals": len(light_arrivals),
               "latency_samples": len(light["latencies_ms"]),
               "overload_arrivals": sum(map(len, overload_arrivals)),
               "overload_commits": overload_commits,
               "failed_frac": ratio(attempts - committed, attempts),
               "gen_late_ms_p99": percentile(light["late_ms"], 99),
               "wall_setup_s": median([s["setup_wall_s"] for s in steps]),
               "wall_goodput_tps": ratio(overload_commits, sum(
                   s["wall_s"] for s in overload)),
               "wall_commits_per_s": ratio(committed, sum(
                   s["server_cpu_raw_s"] for s in steps)),
               "probe_samples": sum(s["probe_samples"] for s in steps)}
    return {"attempted": attempts,
            "failed": sum(s["given_up"] for s in steps),
            "metrics": metrics, "samples": samples}


def run_traced(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """The light step twice, untraced then traced, on fresh servers."""
    from repro.tamix.metrics import histogram_percentile

    light_arrivals, _ = _steps(seed, seconds)
    log_dir = out_dir()
    plain = run_step(light_arrivals, trace=False, log_dir=log_dir)
    traced = run_step(light_arrivals, trace=True, log_dir=log_dir)
    server = traced["server"]
    metrics = dict(server["layers"])
    commits = traced["committed"]
    wall = traced["wall_s"]
    attributed = server["attributed_s"]
    overall = traced["stats"]["slo"].get("_overall", {})
    lag = traced["telemetry"]["snapshot"]["histograms"]["server.loop_lag_ms"]
    bounds = [float(key[3:]) for key in lag["buckets"] if key != "le_inf"]
    lag_p99 = histogram_percentile(bounds, list(lag["buckets"].values()), 99)
    probe = traced["probe"]
    metrics.update({
        "trace.wall_s": metric(wall, "s"),
        "trace.unattributed_s": metric(wall - attributed, "s"),
        "trace.unattributed_frac": metric(ratio(wall - attributed, wall),
                                          "ratio"),
        "trace.overhead_ratio": metric(ratio(
            percentile(traced["latencies_ms"], 50),
            percentile(plain["latencies_ms"], 50)), "ratio"),
        "net.frames_per_commit": metric(ratio(len(probe.rtt_us), commits),
                                        "count"),
        "net.reply_bytes_per_commit": metric(ratio(
            sum(probe.reply_bytes), commits), "bytes"),
        "net.client_rtt_us": metric(median(probe.rtt_us), "us"),
        "net.conn_wait_ms_p99": metric(percentile(traced["conn_wait_ms"], 99),
                                       "ms"),
        "net.gen_late_ms": metric(percentile(traced["late_ms"], 99), "ms"),
        "net.server_txn_p50_ms": metric(overall.get("p50_ms", 0.0), "ms"),
        "net.server_txn_p99_ms": metric(overall.get("p99_ms", 0.0), "ms"),
        "net.loop_lag_p99_ms": metric(lag_p99 or 0.0, "ms"),
        "p50_ms": metric(percentile(plain["latencies_ms"], 50), "ms"),
        "p99_ms": metric(percentile(plain["latencies_ms"], 99), "ms"),
        "failed_frac": metric(ratio(
            plain["attempts"] - plain["committed"], plain["attempts"]),
            "ratio"),
    })
    return {"attempted": traced["attempts"], "failed": traced["given_up"],
            "metrics": metrics,
            "samples": {"commits": commits,
                        "latency_samples": len(plain["latencies_ms"])}}
