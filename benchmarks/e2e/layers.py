"""Per-layer tracing from outside the program.

Nothing under ``src/`` knows about this file. :func:`install` replaces each
layer's *public* callables with timing wrappers at run time, in every
``repro.*`` module that imported them by name, so calls made through an
imported binding (``repro.server.server.parse``, the maintainer's
``propagate_*`` names) are seen too.

Each thread has its own span stack (the server runs an event loop, executor
threads and one commit thread at once), so a span's parent is always the
span that called it on the same thread. A layer's **self time** is its
span's duration minus the time its child spans cover. Spans carry the id of
the operation they serve (``client:seq``); the first ``SPAN_CAP`` are kept
for the trace file, the per-layer totals cover all of them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter_ns
from typing import Any, Callable

from common import delta_rows

#: spans kept for ``trace-<workload>.json`` (totals are never capped)
SPAN_CAP = 40_000


class _ThreadState:
    """One thread's span stack and its private totals (merged on report)."""

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.stack: list[list] = []
        self.totals: dict[str, list[int]] = {}  # layer -> [self_ns, calls, inclusive_ns]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op: str | None = None

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self.stack)


class Recorder:
    """Collects spans and counts from every wrapped callable."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        #: shared hand-over maps the op-id hooks use (see install())
        self.pending_ops: dict[str, str] = {}
        self.txn_ops: dict[str, str] = {}
        self.reply_ops: dict[int, str] = {}

    def state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads), threading.current_thread().name)
                self._threads.append(st)
            self._local.state = st
        return st

    # -- wrapping ------------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` timed as one span of ``layer``. ``before(state, args,
        kwargs)`` runs ahead of the span, ``after(state, args, kwargs,
        result)`` after a call that returned."""
        state = self.state

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            st = state()
            if before is not None:
                before(st, args, kwargs)
            stack = st.stack
            span_id = st.next_id
            st.next_id = span_id + 1
            frame = [layer, span_id, 0]  # layer, id, ns covered by children
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                total = st.totals.get(layer)
                if total is None:
                    st.totals[layer] = [duration - frame[2], 1, duration]
                else:
                    total[0] += duration - frame[2]
                    total[1] += 1
                    total[2] += duration
                if len(st.spans) < SPAN_CAP:
                    st.spans.append(
                        (span_id, parent[1] if parent else None, layer, start, end, st.op)
                    )
            if after is not None:
                after(st, args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, module: str, name: str, layer: str, **hooks: Any) -> None:
        """Wrap ``module.name`` and rebind every ``repro.*`` global that is
        the same function object."""
        fn = getattr(importlib.import_module(module), name)
        wrapped = self.wrap(fn, layer, **hooks)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    def patch_method(self, cls: type, name: str, layer: str, **hooks: Any) -> None:
        setattr(cls, name, self.wrap(cls.__dict__[name], layer, **hooks))

    # -- reporting -----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """layer -> {"self_ns", "calls", "inclusive_ns"} summed over threads."""
        out: dict[str, dict[str, int]] = {}
        for st in list(self._threads):
            for layer, (self_ns, calls, inclusive_ns) in list(st.totals.items()):
                entry = out.setdefault(layer, {"self_ns": 0, "calls": 0, "inclusive_ns": 0})
                entry["self_ns"] += self_ns
                entry["calls"] += calls
                entry["inclusive_ns"] += inclusive_ns
        return out

    def self_ns_by_thread(self) -> dict[str, int]:
        """thread name -> self time of every span it ran (threads that share
        a name, such as executor workers, are summed)."""
        out: dict[str, int] = {}
        for st in list(self._threads):
            out[st.name] = out.get(st.name, 0) + sum(t[0] for t in list(st.totals.values()))
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for st in list(self._threads):
            for name, value in list(st.counts.items()):
                out[name] = out.get(name, 0) + value
        return out

    def spans(self) -> list[dict[str, Any]]:
        """Recorded spans, ids made unique across threads as ``thread.n``."""
        out = []
        for st in list(self._threads):
            for span_id, parent, layer, start, end, op in st.spans:
                out.append(
                    {
                        "id": f"{st.index}.{span_id}",
                        "parent": None if parent is None else f"{st.index}.{parent}",
                        "thread": st.name,
                        "name": layer,
                        "start_ns": start,
                        "end_ns": end,
                        "op": op,
                    }
                )
        out.sort(key=lambda s: s["start_ns"])
        return out[:SPAN_CAP]

    def report(self) -> dict[str, Any]:
        return {
            "layers": self.totals(),
            "counts": self.counts(),
            "self_ns_by_thread": self.self_ns_by_thread(),
        }


class TimedLatch:
    """Stands in for ``Database.latch``: the wait to acquire it is a span
    (``storage.latch.wait``), the time it is held is not — the holder's own
    spans cover that."""

    def __init__(self, latch: Any, recorder: Recorder) -> None:
        self._latch = latch
        self._acquire = recorder.wrap(latch.acquire, "storage.latch.wait")

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        return self._acquire(*args, **kwargs)

    def release(self) -> None:
        self._latch.release()

    def __enter__(self) -> bool:
        return self._acquire()

    def __exit__(self, *exc: object) -> None:
        self._latch.release()


def install(recorder: Recorder, db: Any = None, setup_only: bool = False) -> None:
    """Wrap every layer's public callables. ``setup_only`` wraps just the
    ones that run once while the world is built (load, DAG, optimizer,
    materialize), which is how a traced run still gets an untraced stretch
    of operations to compare its traced stretch with."""
    from repro.ivm.maintainer import ViewMaintainer
    from repro.storage.database import Database

    if setup_only:

        def after_optimize(st, args, kwargs, result):
            st.count("core.view_sets_considered", result.view_sets_considered)
            st.count("cost.estimated_io_milli", int(1000 * result.best.weighted_cost))

        recorder.patch_method(Database, "create_relation", "workload.load")
        recorder.patch_function("repro.workload.paperdb", "generate_corporate_db", "workload.load")
        recorder.patch_function("repro.dag.builder", "build_dag", "dag.build")
        recorder.patch_function("repro.dag.builder", "build_multi_dag", "dag.build")
        recorder.patch_function(
            "repro.core.optimizer", "optimal_view_set", "core.optimize", after=after_optimize
        )
        recorder.patch_method(ViewMaintainer, "materialize", "ivm.materialize")
        return

    import repro.ivm.propagate as propagate
    from repro.engine.engine import Engine
    from repro.server.commit import CommitRequest, GroupCommitter
    from repro.storage.durable import DurableStore
    from repro.storage.index import HashIndex
    from repro.storage.relation import StoredRelation
    from repro.storage.undo import EpochLog, UndoLog
    from repro.storage.wal import WriteAheadLog

    # -- op ids: a request carries "id"; the hooks hand it from the event
    # loop (decode) to the executor thread (parse) to the commit thread
    # (compose_batch / Engine.execute) and, with the reply (ok), back to the
    # event loop (encode), keyed by what each call is given.
    def after_decode(st, args, kwargs, message):
        if isinstance(message, dict) and "id" in message and "q" in message:
            op = recorder.pending_ops[message["q"]] = str(message["id"])
            if st.spans and st.spans[-1][2] == "server.protocol":
                st.spans[-1] = st.spans[-1][:5] + (op,)  # the decode span itself

    def before_parse(st, args, kwargs):
        st.op = recorder.pending_ops.pop(args[0], st.op) if args else st.op

    def before_submit(st, args, kwargs):
        if st.op is not None:
            recorder.txn_ops[args[1].type_name] = st.op

    def before_compose_batch(st, args, kwargs):
        ops = [recorder.txn_ops.get(t.type_name) for t in args[1]]
        st.op = "+".join(o for o in ops if o) or None

    def before_execute(st, args, kwargs):
        op = recorder.txn_ops.pop(args[1].type_name, None)
        if op is not None:  # a rider replayed on its own
            st.op = op

    def after_ok(st, args, kwargs, response):
        if st.op is not None:
            recorder.reply_ops[id(response)] = st.op

    def before_encode(st, args, kwargs):
        st.op = recorder.reply_ops.pop(id(args[0]), None) if args else None

    def after_encode(st, args, kwargs, frame):
        st.op = None

    recorder.patch_function("repro.server.protocol", "decode", "server.protocol", after=after_decode)
    recorder.patch_function("repro.server.protocol", "ok", "server.protocol", after=after_ok)
    recorder.patch_function(
        "repro.server.protocol", "encode", "server.protocol",
        before=before_encode, after=after_encode,
    )
    recorder.patch_method(GroupCommitter, "submit", "server.commit.submit", before=before_submit)
    recorder.patch_method(CommitRequest, "wait", "server.commit.wait")
    recorder.patch_function(
        "repro.server.commit", "compose_batch", "server.commit.compose",
        before=before_compose_batch,
    )

    recorder.patch_function("repro.sql.parser", "parse", "sql.parse", before=before_parse)

    def after_dml(st, args, kwargs, result):
        st.count("sql.dml_to_delta.rows_changed", delta_rows(result[1]))

    recorder.patch_function("repro.sql.dml", "dml_to_delta", "sql.dml_to_delta", after=after_dml)

    contents = StoredRelation.contents

    @functools.wraps(contents)
    def counted_contents(self):
        # Not a span (it is an accessor), only a count: who asked for a full
        # copy of a relation, and how many distinct rows the copy held.
        result = contents(self)
        st = recorder.state()
        if st.inside("sql.dml_to_delta"):
            st.count("sql.dml_to_delta.rows_examined", len(result))
        elif st.inside("engine.select"):
            st.count("engine.select.rows_copied", len(result))
        return result

    StoredRelation.contents = counted_contents

    recorder.patch_method(Engine, "execute", "engine.execute", before=before_execute)
    recorder.patch_method(UndoLog, "rollback", "engine.rollback")

    def after_select(st, args, kwargs, result):
        st.count("engine.select.calls")

    recorder.patch_method(Engine, "select", "engine.select", after=after_select)

    def after_inverses(st, args, kwargs, result):
        st.count("engine.select.inverses_replayed", sum(len(e) for _, e in result))

    recorder.patch_method(EpochLog, "inverses_since", "engine.select", after=after_inverses)
    recorder.patch_method(Engine, "violations", "constraints.check")

    recorder.patch_method(ViewMaintainer, "apply", "ivm.apply")
    recorder.patch_method(ViewMaintainer, "apply_adhoc", "ivm.apply")
    recorder.patch_method(ViewMaintainer, "choose_track", "ivm.choose_track")

    def before_fetch(st, args, kwargs):
        st.count("ivm.fetch.keys", len(args[3]) if len(args) > 3 else len(kwargs.get("keys", ())))

    recorder.patch_method(ViewMaintainer, "fetch", "ivm.fetch", before=before_fetch)
    for name in propagate.__dict__:
        fn = getattr(propagate, name)
        if (
            not name.startswith("_")
            and callable(fn)
            and not isinstance(fn, type)
            and getattr(fn, "__module__", None) == propagate.__name__
        ):
            recorder.patch_function(propagate.__name__, name, "ivm.propagate")

    recorder.patch_function("repro.algebra.evaluate", "evaluate", "algebra.evaluate")

    def before_apply_delta(st, args, kwargs):
        st.count("storage.relation.apply_delta.rows", delta_rows(args[1]))

    recorder.patch_method(
        StoredRelation, "apply_delta", "storage.relation.apply_delta", before=before_apply_delta
    )

    # The maintainer probes HashIndex directly (StoredRelation.lookup* are
    # thin callers of the same three methods), so the index is where every
    # lookup passes.
    def before_probe(st, args, kwargs):
        st.count("storage.relation.lookup.keys")

    def before_probe_many(st, args, kwargs):
        keys = args[1] if len(args) > 1 else kwargs.get("keys", ())
        st.count("storage.relation.lookup.keys", len(keys) if hasattr(keys, "__len__") else 0)

    recorder.patch_method(HashIndex, "probe", "storage.relation.lookup", before=before_probe)
    for name in ("probe_many", "probe_buckets"):
        recorder.patch_method(
            HashIndex, name, "storage.relation.lookup", before=before_probe_many
        )

    recorder.patch_method(DurableStore, "commit", "storage.durable.commit")
    recorder.patch_method(DurableStore, "checkpoint", "storage.durable.checkpoint")
    recorder.patch_method(WriteAheadLog, "append", "storage.wal.append")
    recorder.patch_method(WriteAheadLog, "sync", "storage.wal.sync")

    if db is not None:
        db.latch = TimedLatch(db.latch, recorder)
