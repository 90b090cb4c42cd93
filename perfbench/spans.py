"""In-memory span recorder, call wrappers, and self-time arithmetic.

The traced run attributes wall time to the ``repro`` packages without
touching them: the benchmark wraps the public functions of each layer
(see :mod:`probes`) and every call -- or, for an operation generator,
every *resume* -- becomes one span::

    (parent span, name, start ns, end ns, transaction id)

A span's parent is whichever span was open when it started, so the
spans of one thread form a tree.  A layer's *self time* is the summed
duration of its spans minus the part of each interval that child spans
cover (:func:`self_times`).

Generator-aware wrapping (:meth:`Recorder.wrap`):

* creating the generator costs neither busy nor wait time;
* busy time is the time spent inside resumes (one span per resume);
* with ``wait_clock`` set, a yielded :class:`WaitTicket` starts a wait
  that ends at the next resume, measured on that clock (simulated ms in
  a contest, wall ms on a live server).

Spans stay in memory as flat arrays until :meth:`Recorder.dump` writes
them out after the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_now_ns = time.perf_counter_ns


class Recorder:
    """Span arrays, per-name counters, and the open-span stack."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.txn = array("q")
        self._stack: List[int] = []
        self._txn_ids: Dict[object, int] = {}
        #: Free-form counters (calls, waits, bytes, ...), by name.
        self.counts: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def txn_id(self, txn: object) -> int:
        """A small integer per transaction (``-1``: inherit the parent's)."""
        key = getattr(txn, "label", None) or getattr(txn, "txn_id", None)
        if key is None:
            return -1
        tid = self._txn_ids.get(key)
        if tid is None:
            tid = self._txn_ids[key] = len(self._txn_ids)
        return tid

    def open(self, nid: int, txn: int = -1) -> int:
        sid = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if txn < 0 and parent >= 0:
            txn = self.txn[parent]
        self.parent.append(parent)
        self.name.append(nid)
        self.txn.append(txn)
        self.end.append(0)
        stack.append(sid)
        self.start.append(_now_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = _now_ns()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        generator: Optional[bool] = None,
        txn_arg: Optional[int] = None,
        on_return: Optional[Callable[[Any], None]] = None,
        wait_clock: Optional[Callable[[], float]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``.

        ``generator`` says whether calls return a generator to be traced
        per resume (default: ``inspect.isgeneratorfunction(fn)``).
        ``txn_arg`` is the positional index of the transaction argument,
        ``on_return`` sees each result, ``wait_clock`` turns yielded
        ``WaitTicket`` effects into measured waits.
        """
        nid = self.name_id(name)
        calls = name + ".calls"
        if generator is None:
            generator = inspect.isgeneratorfunction(fn)
        if generator:
            drive = self._drive

            def traced_generator(*args, **kwargs):
                self.count(calls)
                txn = -1 if txn_arg is None else self.txn_id(args[txn_arg])
                return drive(nid, fn(*args, **kwargs), txn, on_return,
                             wait_clock, name)

            traced_generator.__wrapped__ = fn
            return traced_generator

        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            self.count(calls)
            txn = -1 if txn_arg is None else self.txn_id(args[txn_arg])
            sid = open_(nid, txn)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _drive(self, nid, gen, txn, on_return, wait_clock, name):
        from repro.locking.lock_table import WaitTicket

        send: Any = None
        throw: Optional[BaseException] = None
        open_, close = self.open, self.close
        while True:
            sid = open_(nid, txn)
            try:
                if throw is not None:
                    error, throw = throw, None
                    effect = gen.throw(error)
                else:
                    effect = gen.send(send)
            except StopIteration as stop:
                close(sid)
                if on_return is not None:
                    on_return(stop.value)
                return stop.value
            except BaseException:
                close(sid)
                raise
            close(sid)
            waiting = wait_clock is not None and type(effect) is WaitTicket
            if waiting:
                self.count(name + ".waits")
                wait_from = wait_clock()
            try:
                send = yield effect
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # injected abort: forward it inside
                send, throw = None, exc
            if waiting:
                self.count(name + ".wait_ms", wait_clock() - wait_from)

    # -- installing ----------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced stand-in (undone by
        :meth:`restore`).  Works on instances (bound methods rebound per
        instance), classes, modules, and dict entries."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, **options)
            self._patches.append((owner, attr, original, True))
            return
        had_own = attr in getattr(owner, "__dict__", {})
        original = owner.__dict__[attr] if had_own else None
        current = getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, **options))
        else:
            wrapped = self.wrap(name, current, **options)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, had_own))

    def patch_function(self, module: str, attr: str, name: str,
                       **options) -> None:
        """Trace a module-level function at its home and at every loaded
        ``repro`` module that imported it by name."""
        original = getattr(sys.modules[module], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                self.patch(mod, attr, name, **options)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------------

    def spans(self) -> "SpanTable":
        return SpanTable(self.parent, self.start, self.end,
                         [self.names[n] for n in self.name], self.txn)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: id, parent, name, start,
        end (ns), txn."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            for sid in range(len(self.start)):
                handle.write(json.dumps([
                    sid, self.parent[sid], names[self.name[sid]],
                    self.start[sid], self.end[sid], self.txn[sid],
                ]) + "\n")


class SpanTable:
    """Columnar spans; ids are positions, parents precede children."""

    def __init__(self, parent: Sequence[int], start: Sequence[int],
                 end: Sequence[int], name: Sequence[str],
                 txn: Optional[Sequence[int]] = None):
        self.parent = parent
        self.start = start
        self.end = end
        self.name = name
        self.txn = txn if txn is not None else [-1] * len(start)

    def __len__(self) -> int:
        return len(self.start)


def self_times(spans: SpanTable) -> List[int]:
    """Per span: its duration minus the union of its children's
    intervals, clipped to its own interval.

    Children are visited in id order, which is start order for spans
    recorded by one thread, so the union is one sweep per parent.
    """
    n = len(spans)
    parent, start, end = spans.parent, spans.start, spans.end
    covered = [0] * n
    reach = list(start)  # per parent: covered up to here
    for sid in range(n):
        p = parent[sid]
        if p < 0:
            continue
        lo = max(start[sid], reach[p])
        hi = min(end[sid], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[sid] - start[sid] - covered[sid] for sid in range(n)]


def by_name(spans: SpanTable) -> Dict[str, Dict[str, float]]:
    """{span name: {"spans", "total_ns", "self_ns"}} over a span table."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, name in enumerate(spans.name):
        row = out.setdefault(name, {"spans": 0, "total_ns": 0, "self_ns": 0})
        row["spans"] += 1
        row["total_ns"] += spans.end[sid] - spans.start[sid]
        row["self_ns"] += selfs[sid]
    return out


def by_layer(rows: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self nanoseconds per layer (the span name up to its first dot)."""
    layers: Dict[str, float] = {}
    for name, row in rows.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + row["self_ns"]
    return layers

