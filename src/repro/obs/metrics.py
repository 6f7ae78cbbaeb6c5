"""Runtime metrics for the maintenance engine.

A :class:`MetricsRegistry` holds named counters (monotonic) and
histograms (count / total / min / max), and reads
*sources*: state another object already counts (a cache's hits and
misses, the durable log's :class:`~repro.storage.pager.PagerStats`),
registered once and read only when a snapshot is taken. Each
:class:`~repro.engine.engine.Engine` owns its registry: the engine counts
commits, rollbacks, rejections and violations, attributes page I/Os by
kind, and registers its plan caches, commit cache and durable log as
sources, with the process's collector counts (:func:`gc_counts`) under
``runtime.gc``. :meth:`MetricsRegistry.since` differences source counts
exactly as it does counters, so a per-run report holds that run's counts
alone.

Metrics are bookkeeping only — they never touch the storage layer, so they
add zero page I/O to any measured run. The module-level :func:`get_metrics`
registry is process-wide; no engine writes to it.
"""

from __future__ import annotations

import gc
from typing import Callable, Mapping

from repro.storage.pager import IOStats


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Aggregated distribution of observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


class MetricsRegistry:
    """Named counters, histograms and sources with snapshot/delta support.

    Snapshots may be taken on another thread than the one recording (the
    server answers ``metrics`` on its event loop while the commit thread
    creates counters lazily), so :meth:`snapshot` iterates copies.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: dict[str, Callable[[], Mapping[str, float]]] = {}

    # -- access ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def source(self, prefix: str, read: Callable[[], Mapping[str, float]]) -> None:
        """Register state this registry reads but does not own.

        ``read()`` is called at every :meth:`snapshot` and returns counts,
        each appearing as ``prefix.key``. :meth:`since` differences them
        like counters: a cumulative count reports what the interval added,
        a level (a cache's entries, a queue's depth) its net change.
        Registering a prefix again replaces its reader."""
        self._sources[prefix] = read

    # -- engine helpers ----------------------------------------------------------

    def observe_io(self, io: IOStats) -> None:
        """Attribute a commit's page I/O by kind (paper §3.6 ledger)."""
        if io.index_reads:
            self.counter("io.index_reads").inc(io.index_reads)
        if io.index_writes:
            self.counter("io.index_writes").inc(io.index_writes)
        if io.tuple_reads:
            self.counter("io.tuple_reads").inc(io.tuple_reads)
        if io.tuple_writes:
            self.counter("io.tuple_writes").inc(io.tuple_writes)

    # -- reporting ---------------------------------------------------------------

    def _scalars(self) -> dict[str, float]:
        """Counters and source counts by name."""
        out = {name: c.value for name, c in self._counters.copy().items()}
        for prefix, read in self._sources.copy().items():
            for key, value in read().items():
                out[f"{prefix}.{key}"] = value
        return out

    def snapshot(self) -> dict[str, float]:
        """A flat name → value map of everything recorded so far."""
        out = self._scalars()
        for name, h in self._histograms.copy().items():
            out[f"{name}.count"] = h.count
            out[f"{name}.total"] = h.total
            if h.min is not None:
                out[f"{name}.min"] = h.min
                out[f"{name}.max"] = h.max
        return out

    def since(self, before: dict[str, float]) -> dict[str, float]:
        """What changed relative to an earlier :meth:`snapshot`.

        Counters, source counts and histogram count/total entries
        difference cleanly; histogram min/max report their current value
        (a delta of an extreme is meaningless).
        """
        now = self.snapshot()
        out: dict[str, float] = {}
        for name, value in now.items():
            if name.endswith((".min", ".max")):
                if value != before.get(name):
                    out[name] = value
            else:
                delta = value - before.get(name, 0)
                if delta:
                    out[name] = delta
        return out

    def render(self) -> list[str]:
        """Human-readable lines: counters and source counts sorted by name,
        then histograms."""
        lines = []
        for name, value in sorted(self._scalars().items()):
            fraction = isinstance(value, float) and not value.is_integer()
            lines.append(f"{name}: {value:.3f}" if fraction else f"{name}: {value:.0f}")
        for name, h in sorted(self._histograms.copy().items()):
            lines.append(
                f"{name}: n={h.count} mean={h.mean:.2f} "
                f"min={h.min if h.min is not None else '-'} "
                f"max={h.max if h.max is not None else '-'}"
            )
        return lines


def gc_counts() -> dict[str, int]:
    """The cyclic collector's counts for the whole process, per generation:
    ``genN.collections`` run and ``genN.collected`` objects freed. A source
    reader: it costs nothing until a snapshot reads it, and hooks nothing
    into the collector."""
    out = {}
    for generation, stats in enumerate(gc.get_stats()):
        out[f"gen{generation}.collections"] = stats["collections"]
        out[f"gen{generation}.collected"] = stats["collected"]
    return out


METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry, for counts that belong to no engine."""
    return METRICS
