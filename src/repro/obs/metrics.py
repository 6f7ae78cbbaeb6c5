"""Process-wide runtime metrics for the maintenance engine.

A :class:`MetricsRegistry` holds named counters (monotonic), gauges (last
value wins) and histograms (count / total / min / max). The engine layer
increments commits, rollbacks, rejections and violations, attributes page
I/Os by kind, and snapshots cache hit rates from the optimizer's
:class:`~repro.core.memoize.SearchCache` and the execution backend's
:class:`~repro.algebra.compile.PlanCache`.

Metrics are bookkeeping only — they never touch the storage layer, so they
add zero page I/O to any measured run. The module-level :func:`get_metrics`
registry is shared process-wide (every :class:`~repro.engine.engine.Engine`
uses it unless given its own), which is what the shell's ``\\metrics``
command and :attr:`StreamReport.metrics` read. Benchmarks that need
isolation pass a private registry.
"""

from __future__ import annotations

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


class Gauge:
    """A named value where the latest observation wins (cache sizes, …)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


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
    """Named counters, gauges and histograms with snapshot/delta support."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

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

    def observe_cache(self, name: str, hits: int, misses: int) -> None:
        """Record a cache's cumulative hit/miss counts (and hit rate)."""
        self.gauge(f"cache.{name}.hits").set(hits)
        self.gauge(f"cache.{name}.misses").set(misses)
        lookups = hits + misses
        self.gauge(f"cache.{name}.hit_rate").set(hits / lookups if lookups else 0.0)

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """A flat name → value map of everything recorded so far."""
        out: dict[str, float] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, h in self._histograms.items():
            out[f"{name}.count"] = h.count
            out[f"{name}.total"] = h.total
            if h.min is not None:
                out[f"{name}.min"] = h.min
                out[f"{name}.max"] = h.max
        return out

    def since(self, before: dict[str, float]) -> dict[str, float]:
        """What changed relative to an earlier :meth:`snapshot`.

        Counters and histogram count/total entries difference cleanly;
        gauges and histogram min/max report their current value (a delta
        of a last-value-wins metric is meaningless).
        """
        now = self.snapshot()
        out: dict[str, float] = {}
        for name, value in now.items():
            if name in self._gauges or name.endswith((".min", ".max")):
                if value != before.get(name):
                    out[name] = value
            else:
                delta = value - before.get(name, 0)
                if delta:
                    out[name] = delta
        return out

    def render(self) -> list[str]:
        """Human-readable lines, grouped and sorted by name."""
        lines = []
        for name in sorted(self._counters):
            lines.append(f"{name}: {self._counters[name].value}")
        for name in sorted(self._gauges):
            value = self._gauges[name].value
            text = f"{value:.3f}" if isinstance(value, float) and value != int(value) else f"{value:g}"
            lines.append(f"{name}: {text}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            lines.append(
                f"{name}: n={h.count} mean={h.mean:.2f} "
                f"min={h.min if h.min is not None else '-'} "
                f"max={h.max if h.max is not None else '-'}"
            )
        return lines

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (shell ``\\metrics``, CLI, runner)."""
    return METRICS
