"""Property-based tests: the CommitCache is observationally invisible.

For random update streams (inserts, deletes, modifications — including
group-moving department transfers, which force the aggregate-recompute
fetch path the cache serves), under the immediate and enforcing engines and
the ``batched`` cell (chunks of 3 through ``GroupCommitter.commit_batch``)
on both execution backends, a run with the commit cache ON must be
bit-identical to a run with it OFF in everything storage-visible:

* base relation contents,
* every materialized view,
* the per-commit view deltas the engine returns,
* which transactions an enforcing engine rejects (rollback results).

Measured page I/O may only decrease — asserted as ``io_on <= io_off``.

The cache splits a stored fetch per key only when a later fetch overlaps
it. Against an eager reference — the algorithm that split every fetch when
storing it, copied below — random fetch sequences must return the same rows
in the same order and leave the same hits, misses, ``io_saved`` and page
I/O, with callers mutating what they get back.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.compile import set_default_backend
from repro.algebra.multiset import Multiset
from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.ivm.cache import CommitCache, CommitCacheStats
from repro.ivm.delta import Delta
from repro.server.commit import GroupCommitter
from repro.storage.database import Database
from repro.storage.pager import IOCounter
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

DEPTS = tuple(f"dp{i}" for i in range(3))

#: riders per composed commit in the ``batched`` cell
BATCH = 3

KINDS = ("raise", "big_raise", "transfer", "hire", "fire", "budget_cut")


def _make_txn(kind: str, emps: list, depts: list, rng: random.Random) -> Transaction | None:
    if kind == "raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(1, 5))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "big_raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(400, 900))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "transfer" and emps:
        # A group-moving modification: exercises aggregate recompute,
        # the fetch path the CommitCache serves.
        old = rng.choice(emps)
        targets = [d for d in DEPTS if d != old[1]]
        new = (old[0], rng.choice(targets), old[2])
        return Transaction("Transfer", {"Emp": Delta.modification([(old, new)])})
    if kind == "hire":
        row = (f"h{rng.randrange(10**9)}", rng.choice(DEPTS), rng.randint(1, 40))
        return Transaction("Hire", {"Emp": Delta.insertion([row])})
    if kind == "fire" and emps:
        return Transaction("Fire", {"Emp": Delta.deletion([rng.choice(emps)])})
    if kind == "budget_cut" and depts:
        old = rng.choice(depts)
        new = (old[0], old[1], max(old[2] - rng.randint(50, 300), 0))
        return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
    return None


def _delta_key(deltas: dict[int, Delta]):
    """A comparable, order-insensitive image of returned view deltas."""
    return {
        gid: (
            sorted(d.inserts.items()),
            sorted(d.deletes.items()),
            sorted(d.modifies),
        )
        for gid, d in sorted(deltas.items())
    }


def _run_stream(seed: int, kinds, policy: str, backend: str, cache_on: bool):
    set_default_backend(backend)
    try:
        rng = random.Random(seed)
        db = Database()
        depts = [(name, "m", rng.randint(200, 900)) for name in DEPTS]
        emps = [
            (f"e{i}", rng.choice(DEPTS), rng.randint(5, 30))
            for i in range(rng.randint(2, 7))
        ]
        db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
        system = AssertionSystem(
            db,
            [DEPT_CONSTRAINT],
            paper_transactions(),
            enforce=(policy == "enforce"),
            commit_cache=cache_on,
        )
        engine = system.engine
        committer = GroupCommitter(engine)
        chunk: list[Transaction] = []

        rng2 = random.Random(seed + 1)
        outcomes = []
        io_before = db.counter.snapshot()
        # A batched rider is applied only when its chunk commits, so the
        # generator works from a mirror updated per generated transaction —
        # otherwise two modifications of the same row compose inconsistently.
        mirror = {
            "Emp": sorted(db.relation("Emp").contents().rows()),
            "Dept": sorted(db.relation("Dept").contents().rows()),
        }

        def current(rel):
            if policy == "batched":
                return mirror[rel]
            return sorted(db.relation(rel).contents().rows())

        def commit_chunk():
            requests = committer.commit_batch(chunk)
            chunk.clear()
            record = committer.batches[-1]
            if record.batch_result is not None:
                outcomes.append(_delta_key(record.batch_result.view_deltas))
            else:
                outcomes.append(tuple(
                    type(r.error).__name__ if r.error else _delta_key(r.result.view_deltas)
                    for r in requests
                ))

        for kind in kinds:
            txn = _make_txn(kind, current("Emp"), current("Dept"), rng2)
            if txn is None:
                outcomes.append("skip")
                continue
            for rel, delta in txn.deltas.items():
                rows = Multiset()
                for row in mirror[rel]:
                    rows.add(row, 1)
                rows.update(delta.net())
                mirror[rel] = sorted(rows.rows())
            if policy == "batched":
                chunk.append(txn)
                if len(chunk) == BATCH:
                    commit_chunk()
                continue
            try:
                result = engine.execute(txn)
            except AssertionViolation:
                outcomes.append("rejected")
                continue
            outcomes.append(_delta_key(result.view_deltas))
        if chunk:
            commit_chunk()
        io = (db.counter.snapshot() - io_before).total

        maintainer = system.maintainer
        maintainer.verify()
        state = {name: db.relation(name).contents() for name in ("Emp", "Dept")}
        for gid in sorted(maintainer.marking):
            if not maintainer.memo.group(gid).is_leaf:
                state[f"view:{gid}"] = maintainer.view_contents(gid)
        return state, outcomes, io
    finally:
        set_default_backend("compiled")


class TestCommitCacheInvisibility:
    @pytest.mark.parametrize("policy", ["immediate", "batched", "enforce"])
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=10),
    )
    def test_cache_on_equals_cache_off(self, policy, backend, seed, kinds):
        state_on, outcomes_on, io_on = _run_stream(seed, kinds, policy, backend, True)
        state_off, outcomes_off, io_off = _run_stream(seed, kinds, policy, backend, False)
        assert outcomes_on == outcomes_off
        assert state_on == state_off
        # The cache can only remove page I/O, never add it.
        assert io_on <= io_off


# -- the cache against an eager reference ----------------------------------------------


class EagerCommitCache:
    """Reference model: the fetch memo that split every result per key as
    it stored it (scans omitted; they are not split)."""

    def __init__(self, counter: IOCounter) -> None:
        self._counter = counter
        self.stats = CommitCacheStats()
        self._fetch: dict = {}
        self._fetch_cost: dict = {}

    def _measure(self, compute):
        before = self._counter.snapshot()
        rows = compute()
        return rows, float((self._counter.snapshot() - before).total)

    def fetch(self, gid, columns, keys, names, compute):
        entry = self._fetch.get((gid, columns))
        if entry is None:
            entry = self._fetch[(gid, columns)] = {}
        missing = {k for k in keys if k not in entry}
        hit_count = len(keys) - len(missing)
        fresh = None
        if missing:
            fresh, cost = self._measure(lambda: compute(missing))
            self._split_into(entry, fresh, missing, names, columns)
            total, fetched = self._fetch_cost.get((gid, columns), (0.0, 0))
            self._fetch_cost[(gid, columns)] = (total + cost, fetched + len(missing))
            self.stats.fetch_misses += len(missing)
        if hit_count:
            self.stats.fetch_hits += hit_count
            total, fetched = self._fetch_cost.get((gid, columns), (0.0, 0))
            if fetched:
                self.stats.io_saved += hit_count * (total / fetched)
        if fresh is not None and not hit_count:
            return fresh
        out = Multiset()
        for key in keys:
            rows = entry.get(key)
            if rows is not None and rows:
                out.update(rows)
        return out

    @staticmethod
    def _split_into(entry, rows, missing, names, columns):
        positions = [names.index(c) for c in sorted(columns)]
        for row, count in rows.items():
            key = tuple(row[p] for p in positions)
            bucket = entry.get(key)
            if bucket is None or bucket is EMPTY:
                bucket = entry[key] = Multiset()
            bucket.add(row, count)
        for key in missing:
            if key not in entry:
                entry[key] = EMPTY


EMPTY = Multiset()
CACHE_NAMES = ("A", "B", "V")
#: Fetch column sets; keys are tuples over sorted(columns).
CACHE_COLUMNS = (frozenset({"A"}), frozenset({"A", "B"}), frozenset({"B"}))
# A and B values the table never holds (keys that match no rows) included.
A_VALUES = st.integers(0, 7)
B_VALUES = st.integers(0, 3)


def _table_rows(draw_rows):
    """Two groups' rows: (A, B, V) with counts, A < 6 and B < 3."""
    return {
        gid: {(a, b, v): n for a, b, v, n in rows if a < 6 and b < 3}
        for gid, rows in enumerate(draw_rows, start=1)
    }


def _compute(table, counter, gid, columns):
    """A charged, caller-owned fetch: one index read per key and one tuple
    read per matching row."""
    positions = [CACHE_NAMES.index(c) for c in sorted(columns)]

    def compute(keys):
        counter.charge_index_read(len(keys))
        out = Multiset()
        for row, n in table[gid].items():
            if tuple(row[p] for p in positions) in keys:
                out.add(row, n)
        counter.charge_tuple_read(out.total())
        return out

    return compute


def _key(draw, columns):
    a, b = draw(A_VALUES), draw(B_VALUES)
    return {frozenset({"A"}): (a,), frozenset({"B"}): (b,)}.get(columns, (a, b))


@st.composite
def fetch_sequences(draw):
    row = st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3), st.integers(1, 2))
    table = _table_rows([draw(st.lists(row, max_size=14)) for _ in range(2)])
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        gid = draw(st.sampled_from((1, 2)))
        columns = draw(st.sampled_from(CACHE_COLUMNS))
        keys = {_key(draw, columns) for _ in range(draw(st.integers(0, 5)))}
        # Earlier fetches on the same group and columns: repeat one, or
        # overlap some of their keys, or (else) draw afresh.
        earlier = [ks for g, c, ks, _ in steps if (g, c) == (gid, columns)]
        seen = sorted(set().union(*earlier))
        how = draw(st.sampled_from(("fresh", "repeat", "overlap")))
        if how == "repeat" and earlier:
            keys = set(draw(st.sampled_from(earlier)))
        elif how == "overlap" and seen:
            keys |= set(draw(st.lists(st.sampled_from(seen), min_size=1, max_size=3)))
        steps.append((gid, columns, keys, draw(st.booleans())))
    return table, steps


def _mutate(rows: Multiset) -> None:
    """What a careless caller might do to a result it owns."""
    first = next(iter(rows.items()), None)
    if first is not None:
        rows.add(first[0], -first[1])
    rows.add(("junk", -1, -1), 3)


class TestSplitOnOverlapMatchesEagerSplit:
    @settings(max_examples=400, deadline=None)
    @given(case=fetch_sequences())
    def test_same_rows_counts_and_charges(self, case):
        table, steps = case
        lazy_counter, eager_counter = IOCounter(), IOCounter()
        lazy, eager = CommitCache(lazy_counter), EagerCommitCache(eager_counter)
        for gid, columns, keys, mutate in steps:
            got = lazy.fetch(
                gid, columns, set(keys), CACHE_NAMES, _compute(table, lazy_counter, gid, columns)
            )
            want = eager.fetch(
                gid, columns, set(keys), CACHE_NAMES, _compute(table, eager_counter, gid, columns)
            )
            assert list(got.items()) == list(want.items())
            for field in ("fetch_hits", "fetch_misses", "io_saved"):
                assert getattr(lazy.stats, field) == getattr(eager.stats, field)
            assert lazy_counter.snapshot() == eager_counter.snapshot()
            if mutate:
                _mutate(got)
                _mutate(want)
