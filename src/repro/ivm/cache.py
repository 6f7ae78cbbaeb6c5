"""Commit-scoped shared-computation caching for the maintenance runtime.

The paper's analytic cost model already assumes sharing: its multi-query
optimization (``total_query_cost``) charges a maintenance query that two
track ops pose *once*. The executor, however, re-answered it every time —
``ViewMaintainer.fetch`` re-probed the same keys and re-derived the same
unmaterialized sub-expressions within a single commit, and
``apply_adhoc`` re-ran the whole track search for every same-shaped ad-hoc
transaction. This module closes both gaps:

* :class:`CommitCache` — a per-commit memo over the *propagation phase*.
  Every delta of a commit is computed against the pre-update state (base
  and view applies only start after the last delta is derived), so within
  that phase a fetch of ``(group, columns, keys)`` and a scan of an
  unmaterialized group are pure functions of the old database state.
  A fetch that hits no cached key keeps its result whole, with the keys
  it asked for; only when a later fetch on the same group and columns
  shares keys with it is that result split per key (split on overlap).
  An overlapping probe fetches only the missing keys and merges, so shared
  DAG sub-nodes — and shared sub-expressions across assertion roots in one
  checked commit — hit memory instead of storage, while a
  fetch nobody repeats costs one copy of its result and no per-key work.
  The cache is created when propagation starts and discarded before the
  apply phase; nothing can invalidate it mid-phase.

* :class:`AdhocPlanCache` — a small LRU memoizing ``choose_track``'s
  winning update track by a canonical *shape* signature of the ad-hoc
  update spec (relations touched, which of insert/delete/modify occur,
  the modified-column sets, and the current marking). A stream of
  same-shaped shell DML statements or group-commit batches plans once.
  Any track valid for a relation set is valid for every transaction
  touching exactly those relations (affectedness depends only on the
  updated relations), so a cached track is always *correct*; if the new
  transaction's sizes differ wildly from the one that populated the
  entry, it may merely be non-optimal.

Both caches are observable (hit/miss/estimated-pages-saved counters,
surfaced through :class:`~repro.obs.metrics.MetricsRegistry`, the shell's
``\\metrics``/``\\profile`` and ``fetch`` trace spans) and can be disabled
on a :class:`~repro.ivm.maintainer.ViewMaintainer` (``commit_cache=False``
at construction; ``maintainer.plan_cache = None``). Correctness bar:
view contents, returned deltas, and rollback behavior are bit-identical
with the caches on or off; measured page I/O can only decrease (see
docs/cost_model.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.algebra.multiset import Multiset

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.tracks import UpdateTrack
    from repro.storage.pager import IOCounter
    from repro.workload.transactions import UpdateSpec


#: Capacity of a maintainer's ad-hoc plan cache (assigning
#: ``maintainer.plan_cache = None`` turns it off).
ADHOC_PLAN_CACHE_CAPACITY = 128


class CommitCacheStats:
    """Counters for one commit's cache (or a cumulative fold of many).

    ``fetch_hits``/``fetch_misses`` count *keys* (a fetch's result is
    split per key once another fetch overlaps it); ``scan_hits``/
    ``scan_misses`` count whole-group scans.
    ``io_saved`` estimates the page I/Os the hits avoided: exact for scan
    hits (the measured cost of the cached scan), per-entry average for
    fetch hits (a batch probe's cost cannot be attributed per key exactly).
    """

    __slots__ = ("fetch_hits", "fetch_misses", "scan_hits", "scan_misses", "io_saved")

    def __init__(self) -> None:
        self.fetch_hits = 0
        self.fetch_misses = 0
        self.scan_hits = 0
        self.scan_misses = 0
        self.io_saved = 0.0

    @property
    def hits(self) -> int:
        return self.fetch_hits + self.scan_hits

    @property
    def misses(self) -> int:
        return self.fetch_misses + self.scan_misses

    def fold(self, other: "CommitCacheStats") -> None:
        """Accumulate another stats block (per-commit → cumulative)."""
        self.fetch_hits += other.fetch_hits
        self.fetch_misses += other.fetch_misses
        self.scan_hits += other.scan_hits
        self.scan_misses += other.scan_misses
        self.io_saved += other.io_saved

    def describe(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"~{self.io_saved:.0f} page I/Os saved"
        )

    def __repr__(self) -> str:
        return f"<CommitCacheStats {self.describe()}>"


_EMPTY = Multiset()  # shared sentinel for keys proven to match no rows


class CommitCache:
    """Memo for one commit's propagation phase.

    Valid from the first delta derivation to the last: every fetch and
    scan reads the pre-update state, and the state does not change until
    the apply phase, by which point the owner has discarded the cache.
    Returned multisets are always caller-owned (a stored result is a copy,
    hits merge into fresh objects, scan hits return copies) — callers may
    mutate them freely.
    """

    def __init__(self, counter: "IOCounter | None" = None) -> None:
        self._counter = counter
        self.stats = CommitCacheStats()
        # (gid, columns) -> key tuple -> rows matching that key, for the
        # results some later fetch overlapped.
        self._fetch: dict[tuple[int, frozenset[str]], dict[tuple, Multiset]] = {}
        # (gid, columns) -> [(keys fetched, their rows)]: whole results no
        # later fetch has overlapped yet. Their key sets are disjoint from
        # each other and from the split keys.
        self._unsplit: dict[tuple[int, frozenset[str]], list[tuple[set[tuple], Multiset]]] = {}
        # (gid, columns) -> (measured pages, keys fetched) for io_saved.
        self._fetch_cost: dict[tuple[int, frozenset[str]], tuple[float, int]] = {}
        # gid -> (contents, measured pages).
        self._scans: dict[int, tuple[Multiset, float]] = {}

    # -- observability ------------------------------------------------------------

    def counts(self) -> tuple[int, int]:
        """(hits, misses) — cheap accessor for span annotation."""
        stats = self.stats
        return (stats.hits, stats.misses)

    def _measure(self, compute: Callable[[], Multiset]) -> tuple[Multiset, float]:
        if self._counter is None:
            return compute(), 0.0
        before = self._counter.snapshot()
        rows = compute()
        return rows, float((self._counter.snapshot() - before).total)

    # -- scans --------------------------------------------------------------------

    def scan(self, gid: int, compute: Callable[[], Multiset]) -> Multiset:
        """Full contents of group ``gid``, computed (and charged) once."""
        entry = self._scans.get(gid)
        if entry is not None:
            rows, cost = entry
            self.stats.scan_hits += 1
            self.stats.io_saved += cost
            return rows.copy()
        rows, cost = self._measure(compute)
        self._scans[gid] = (rows.copy(), cost)
        self.stats.scan_misses += 1
        return rows

    # -- keyed fetches ------------------------------------------------------------

    def fetch(
        self,
        gid: int,
        columns: frozenset[str],
        keys: set[tuple],
        names: tuple[str, ...],
        compute: Callable[[set[tuple]], Multiset],
    ) -> Multiset:
        """Rows of ``gid`` matching ``keys`` on ``columns``; only keys not
        yet cached are fetched (``compute``) — including keys that matched
        nothing, so a repeated miss costs nothing the second time.

        A fetch that hits no cached key stores its result whole. A stored
        result is split per key (``compute`` must return only rows matching
        the keys it is given) when a later fetch shares keys with it; that
        fetch's own missing rows are split too, as its answer is merged
        per key.
        """
        slot = (gid, columns)
        entry = self._fetch.setdefault(slot, {})
        unsplit = self._unsplit.get(slot)
        if unsplit:
            kept = []
            for stored_keys, rows in unsplit:
                if keys.isdisjoint(stored_keys):
                    kept.append((stored_keys, rows))
                else:
                    self._split_into(entry, rows, stored_keys, names, columns)
            self._unsplit[slot] = kept
        missing = keys.difference(entry)
        hit_count = len(keys) - len(missing)
        fresh: Multiset | None = None
        if missing:
            fresh, cost = self._measure(lambda: compute(missing))
            if hit_count:
                self._split_into(entry, fresh, missing, names, columns)
            else:
                self._unsplit.setdefault(slot, []).append((missing, fresh.copy()))
            total, fetched = self._fetch_cost.get(slot, (0.0, 0))
            self._fetch_cost[slot] = (total + cost, fetched + len(missing))
            self.stats.fetch_misses += len(missing)
        if not hit_count:
            # A pure miss: the computed union is the answer.
            return fresh if fresh is not None else Multiset()
        self.stats.fetch_hits += hit_count
        total, fetched = self._fetch_cost.get(slot, (0.0, 0))
        if fetched:
            self.stats.io_saved += hit_count * (total / fetched)
        out = Multiset()
        for key in keys:
            rows = entry.get(key)
            if rows is not None and rows:
                out.update(rows)
        return out

    @staticmethod
    def _split_into(
        entry: dict[tuple, Multiset],
        rows: Multiset,
        fetched: set[tuple],
        names: tuple[str, ...],
        columns: frozenset[str],
    ) -> None:
        """Partition a fetched multiset by key and store one entry per
        fetched key (empty results included)."""
        positions = [names.index(c) for c in sorted(columns)]
        for row, count in rows.items():
            if len(positions) == 1:
                key = (row[positions[0]],)
            else:
                key = tuple(row[p] for p in positions)
            bucket = entry.get(key)
            if bucket is None or bucket is _EMPTY:
                bucket = entry[key] = Multiset()
            bucket.add(row, count)
        for key in fetched:
            if key not in entry:
                entry[key] = _EMPTY


class AdhocPlanCacheStats:
    """Hit/miss/eviction counters for the ad-hoc plan cache."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return (
            f"<AdhocPlanCacheStats hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions}>"
        )


def adhoc_signature(
    updates: Mapping[str, "UpdateSpec"], marking: Iterable[int]
) -> tuple:
    """Canonical shape signature of an ad-hoc update spec.

    Two transactions share a signature exactly when they touch the same
    relations with the same *kinds* of updates (insert/delete/modify
    presence) and the same modified-column sets, under the same marking.
    Sizes are deliberately excluded — any track for the relation set is
    correct, and same-shaped streams (repeated shell DML, group-commit
    batches) should plan once.
    """
    shape = tuple(
        (
            rel,
            spec.inserts > 0,
            spec.deletes > 0,
            spec.modifies > 0,
            tuple(sorted(spec.modified_columns)),
        )
        for rel, spec in sorted(updates.items())
    )
    return (shape, frozenset(marking))


class AdhocPlanCache:
    """LRU memo: ad-hoc update-spec signature → winning update track.

    ``choose_track`` re-enumerates every update track and re-costs every
    maintenance query per call; for interactive DML streams and
    group-commit batches the same shape recurs endlessly. Conventions follow
    :class:`~repro.core.memoize.SearchCache`: canonical keys, stats on the
    cache, validity tied to a fixed (memo, estimator, cost model, marking)
    — all per-maintainer state, which is why the cache lives on the
    maintainer and dies with it.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("AdhocPlanCache capacity must be positive")
        self.capacity = capacity
        self.stats = AdhocPlanCacheStats()
        self._entries: "OrderedDict[tuple, UpdateTrack]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, signature: tuple) -> "UpdateTrack | None":
        """The cached track for ``signature``, refreshed as most recent."""
        track = self._entries.get(signature)
        if track is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(signature)
        self.stats.hits += 1
        return track

    def put(self, signature: tuple, track: "UpdateTrack") -> None:
        """Memoize a chosen track (evicting the least recently used)."""
        self._entries[signature] = dict(track)
        self._entries.move_to_end(signature)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
