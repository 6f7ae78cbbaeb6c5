"""Commit-scoped shared-computation caching for the maintenance runtime.

The paper's analytic cost model already assumes sharing: its multi-query
optimization (``total_query_cost``) charges a maintenance query that two
track ops pose *once*. The executor, however, re-answered it every time —
``ViewMaintainer.fetch`` re-probed the same keys and re-derived the same
unmaterialized sub-expressions within a single commit. :class:`CommitCache`
closes that gap: a per-commit memo over the *propagation phase*.
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

The cache is observable (hit/miss/estimated-pages-saved counters,
surfaced through :class:`~repro.obs.metrics.MetricsRegistry`, the shell's
``\\metrics``/``\\profile`` and ``fetch`` trace spans) and can be disabled
on a :class:`~repro.ivm.maintainer.ViewMaintainer` (``commit_cache=False``
at construction). Correctness bar: view contents, returned deltas, and
rollback behavior are bit-identical with the cache on or off; measured
page I/O can only decrease (see docs/cost_model.md). The maintainer's
other cache, of update tracks by transaction shape, is a
:class:`~repro.algebra.compile.PlanCache`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.algebra.multiset import Multiset

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.storage.pager import IOCounter


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
