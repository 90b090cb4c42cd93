"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The last test runs the command (in this process) once per workload and
mode (a few minutes in all).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import Recorder, SpanTable, by_layer, by_name, self_times  # noqa: E402


def _table(rows):
    """rows: (parent, name, start, end)."""
    parent, name, start, end = zip(*rows)
    return SpanTable(list(parent), list(start), list(end), list(name))


def test_self_time_subtracts_the_union_of_children():
    # root [0,100]: children [10,30] and [20,50] overlap -> union 40;
    # a child [90,120] sticks out past the root -> 10 counted.
    # child 1 [10,30] has a grandchild [15,25] -> self 10.
    spans = _table([
        (-1, "sched.run", 0, 100),
        (0, "dom.op", 10, 30),
        (1, "storage.fix", 15, 25),
        (0, "dom.op", 20, 50),
        (0, "locking.acquire", 90, 120),
    ])
    assert self_times(spans) == [100 - 50, 20 - 10, 10, 30, 30]


def test_self_times_roll_up_by_name_and_layer():
    spans = _table([
        (-1, "sched.run", 0, 100),
        (0, "dom.op", 10, 40),
        (1, "storage.fix", 20, 30),
        (0, "dom.op", 50, 60),
    ])
    rows = by_name(spans)
    assert rows["dom.op"] == {"spans": 2, "total_ns": 40, "self_ns": 30}
    assert by_layer(rows) == {"sched": 60, "dom": 30, "storage": 10}
    assert sum(by_layer(rows).values()) == 100  # nothing double-counted


def test_generator_wrapper_counts_resumes_and_waits():
    from repro.locking.lock_table import WaitTicket

    ticket = WaitTicket(txn="T1", resource=("node", "1"), mode="S",
                        is_conversion=False)
    clock = iter([5.0, 12.5]).__next__
    rec = Recorder()

    def op():
        yield ticket
        yield "delay"
        return 7

    traced = rec.wrap("locking.acquire", op, wait_clock=clock)
    gen = traced()
    assert len(rec.start) == 0  # creating the generator records nothing
    assert next(gen) is ticket
    assert gen.send(None) == "delay"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 7
    assert len(rec.start) == 3  # one span per resume
    assert rec.counts["locking.acquire.calls"] == 1
    assert rec.counts["locking.acquire.waits"] == 1
    assert rec.counts["locking.acquire.wait_ms"] == 7.5


def test_patches_nest_and_restore():
    rec = Recorder()

    class Store:
        def get(self, key):
            return key * 2

    store = Store()
    rec.patch(store, "get", "storage.store")
    outer = rec.wrap("dom.op", lambda: store.get(21))
    assert outer() == 42
    assert list(rec.parent) == [-1, 0]
    rec.restore()
    assert "get" not in vars(store)


def test_normalised_seconds_put_an_interval_at_the_nominal_speed():
    from common import PROBE_NOMINAL_S, normalised_s

    nominal = PROBE_NOMINAL_S
    # Host at half speed: kernels take twice the nominal time.  The
    # interval [0, 10] holds three samples, 24 nominal kernels of probe
    # time in all; the sample at 9.9999 ends past the interval and the one
    # at 20 lies outside it.  The 10x sample was preempted: its time is
    # subtracted but it does not count towards the speed.
    samples = [(1.0, 2 * nominal), (2.0, 2 * nominal), (3.0, 20 * nominal),
               (9.9999, 2 * nominal), (20.0, 2 * nominal)]
    inside = 24 * nominal
    assert normalised_s(0.0, 10.0, samples) == pytest.approx(
        (10.0 - inside) / 2)
    # Another measure of the same interval (CPU seconds) scales alike.
    assert normalised_s(0.0, 10.0, samples, elapsed=4.0) == pytest.approx(
        (4.0 - inside) / 2)
    # No sample inside: the raw seconds.
    assert normalised_s(30.0, 31.0, samples) == 1.0


def test_speed_probe_samples_while_running_and_stops():
    import signal
    import time

    from common import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    count = len(probe.samples)
    assert count >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < probe.seconds(t0, t1)
    time.sleep(0.05)
    assert len(probe.samples) == count


def test_correctness_failure_prints_no_numbers(monkeypatch, capsys):
    import contest

    monkeypatch.setattr(contest, "load_references",
                        lambda: {"contest-node2pl": {}})
    code = run.main(["--workload", "contest-node2pl", "--seed", "0",
                     "--seconds", "1"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "no reference" in out.err


def test_every_declared_per_layer_metric_has_a_prediction():
    spec = run.load_spec()
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        rationale = json.load(fh)
    predicted = {item["metric"] for item in rationale["predictions"]}
    unbounded = set(rationale["end_to_end_unbounded"]) - {"about"}
    assert {m["name"] for m in spec["per_layer"]} == predicted | unbounded
    assert set(rationale["workloads"]) == {w["name"]
                                           for w in spec["workloads"]}
    assert set(rationale["end_to_end"]) == {m["name"]
                                            for m in spec["end_to_end"]}


#: Per-layer counts of events a short run may legitimately never see.
MAY_BE_ZERO = {"storage.physical_reads", "shard.cross_deadlocks",
               "locking.deadlocks_per_1k_commits", "txn.rollback_self_us",
               "failed_frac"}


@pytest.fixture
def keep_affinity():
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["contest-node2pl", "served", "sharded"])
def test_command_prints_every_declared_metric(workload, trace, monkeypatch,
                                              capsys, keep_affinity):
    spec = run.load_spec()
    produced = {}

    def spy(*args):
        outcome = real_run(*args)
        produced.update(outcome["metrics"])
        return outcome

    real_run = run.run
    monkeypatch.setattr(run, "run", spy)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "10",
                     "--trace", str(trace)])
    out = capsys.readouterr()
    assert code == 0, out.err
    result = json.loads(out.out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for item in declared:
        assert result["metrics"][item["name"]]["unit"] == item["unit"]
    # Checked on what the workload produced, before absent layers are
    # filled in: a renamed span or a probe that patched nothing reads 0.
    present = [m["name"] for m in declared
               if not run.absent(workload, m["name"])]
    assert present
    for name in present:
        assert name in produced, name
        if name not in MAY_BE_ZERO:
            assert produced[name]["value"] > 0, name
