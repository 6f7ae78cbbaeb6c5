"""Structured tracing for the maintenance pipeline.

A :class:`Tracer` records a tree of :class:`Span` events — transaction →
per-track-op delta propagation → per-view apply → assertion check — each carrying its scoped :class:`IOStats` (measured by
diffing the shared :class:`~repro.storage.pager.IOCounter`, exactly like
the engine's per-transaction attribution) and wall-clock time.

Two invariants make traces trustworthy:

* *tie-out*: a span's ``io`` is inclusive of its children, so the sum of
  root-span I/Os equals the counter delta over the traced region, and
  ``exclusive_io`` (own minus children) partitions every charged page I/O
  into exactly one span;
* *zero cost when off*: the default :data:`NULL_TRACER` returns a shared
  no-op span, so instrumented code paths pay one attribute lookup and an
  empty ``with`` block — no snapshots, no allocation per span.

``trace_to_json`` / ``validate_trace`` define the on-disk format the CLI's
``run --trace out.json`` emits and CI validates.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from repro.storage.pager import IOCounter, IOStats

TRACE_VERSION = 1


class Span:
    """One traced region; a context manager that measures I/O and time."""

    __slots__ = ("name", "attrs", "children", "io", "seconds", "_tracer", "_before", "_started")

    def __init__(self, name: str, attrs: dict[str, Any], tracer: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.io = IOStats()
        self.seconds = 0.0
        self._tracer = tracer
        self._before: IOStats | None = None
        self._started = 0.0

    def annotate(self, **attrs: Any) -> "Span":
        """Attach extra attributes (outcome, counts, …) to an open span."""
        self.attrs.update(attrs)
        return self

    @property
    def exclusive_io(self) -> IOStats:
        """This span's I/O minus its children's — the pages charged *here*."""
        own = self.io
        for child in self.children:
            own = own - child.io
        return own

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer._stack:
            tracer._stack[-1].children.append(self)
        else:
            tracer.roots.append(self)
        tracer._stack.append(self)
        if tracer.counter is not None:
            self._before = tracer.counter.snapshot()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._started
        tracer = self._tracer
        if tracer.counter is not None and self._before is not None:
            self.io = tracer.counter.snapshot() - self._before
        assert tracer._stack and tracer._stack[-1] is self, "span nesting corrupted"
        tracer._stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("outcome", "error")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            "seconds": self.seconds,
            "io": {
                "index_reads": self.io.index_reads,
                "index_writes": self.io.index_writes,
                "tuple_reads": self.io.tuple_reads,
                "tuple_writes": self.io.tuple_writes,
                "total": self.io.total,
            },
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"<Span {self.name} io={self.io.total} children={len(self.children)}>"


class _NullSpan:
    """The shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every span is the shared no-op instance."""

    __slots__ = ()
    enabled = False
    roots: tuple = ()

    def bind(self, counter: IOCounter) -> None:
        return None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def reset(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Records span trees against one I/O counter.

    ``counter`` may be bound later (``bind``) — the engine binds its
    database counter when the tracer is attached. Spans opened with no
    counter bound measure wall time only (``io`` stays zero).
    """

    enabled = True

    def __init__(self, counter: IOCounter | None = None) -> None:
        self.counter = counter
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def bind(self, counter: IOCounter) -> None:
        """Attach the counter spans measure against (first bind wins)."""
        if self.counter is None:
            self.counter = counter

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a new span (use as a context manager)."""
        return Span(name, attrs, self)

    def reset(self) -> None:
        """Drop all recorded spans (open spans must have exited)."""
        assert not self._stack, "cannot reset with open spans"
        self.roots.clear()

    def find(self, name: str) -> list[Span]:
        """All recorded spans with ``name``, pre-order across roots."""
        return [s for root in self.roots for s in root.walk() if s.name == name]

    def total_io(self) -> IOStats:
        """Sum of root-span I/O — ties out to the counter delta over the
        traced region (asserted in tests/test_obs.py and test_trace_props)."""
        total = IOStats()
        for root in self.roots:
            total = total + root.io
        return total


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def trace_to_json(tracer: Tracer) -> dict[str, Any]:
    """The emitted trace document (see ``validate_trace`` for the schema)."""
    total = tracer.total_io()
    return {
        "version": TRACE_VERSION,
        "io_total": total.total,
        "spans": [root.to_dict() for root in tracer.roots],
    }


_IO_FIELDS = ("index_reads", "index_writes", "tuple_reads", "tuple_writes")


def validate_trace(doc: Any) -> None:
    """Validate a trace document against the schema; raises ValueError.

    Checks structure (version, span fields, recursive children), value
    sanity (non-negative integer I/O counts, non-negative seconds,
    ``total`` consistent with the four kinds) and the containment
    invariant (a parent span's I/O covers the sum of its children's —
    guaranteed by the monotonic counter when spans nest properly).
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be an object")
    if doc.get("version") != TRACE_VERSION:
        raise ValueError(f"unsupported trace version {doc.get('version')!r}")
    spans = doc.get("spans")
    if not isinstance(spans, list):
        raise ValueError("trace 'spans' must be a list")
    total = 0
    for span in spans:
        total += _validate_span(span, path="spans")["total"]
    if doc.get("io_total") != total:
        raise ValueError(
            f"io_total {doc.get('io_total')!r} != sum of root spans {total}"
        )


def _validate_span(span: Any, path: str) -> dict[str, int]:
    if not isinstance(span, dict):
        raise ValueError(f"{path}: span must be an object")
    name = span.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{path}: span name must be a non-empty string")
    where = f"{path}/{name}"
    if not isinstance(span.get("attrs"), dict):
        raise ValueError(f"{where}: attrs must be an object")
    seconds = span.get("seconds")
    if not isinstance(seconds, (int, float)) or seconds < 0:
        raise ValueError(f"{where}: seconds must be a non-negative number")
    io = span.get("io")
    if not isinstance(io, dict):
        raise ValueError(f"{where}: io must be an object")
    for kind in _IO_FIELDS:
        v = io.get(kind)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"{where}: io.{kind} must be a non-negative int")
    if io.get("total") != sum(io[k] for k in _IO_FIELDS):
        raise ValueError(f"{where}: io.total inconsistent with per-kind counts")
    children = span.get("children")
    if not isinstance(children, list):
        raise ValueError(f"{where}: children must be a list")
    child_sums = dict.fromkeys(_IO_FIELDS, 0)
    for child in children:
        child_io = _validate_span(child, where)
        for kind in _IO_FIELDS:
            child_sums[kind] += child_io[kind]
    for kind in _IO_FIELDS:
        if child_sums[kind] > io[kind]:
            raise ValueError(
                f"{where}: children charge more io.{kind} than the parent"
            )
    return io
