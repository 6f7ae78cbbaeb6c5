"""Property: traced span I/O always ties out to the engine's IOCounter.

For random transaction streams over random markings, the sum of root-span
I/Os equals the counter delta over the traced region bit-exactly, every
per-transaction "txn" span equals that commit's ``TransactionResult.io``,
and the emitted JSON document validates against the schema.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.obs.trace import Tracer, trace_to_json, validate_trace
from repro.storage.pager import IOStats
from tests.property.test_ivm_random_streams import TXN_TYPES, _build, _make_txn


class TestTraceTieOut:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        marking_bits=st.integers(0, 15),
        kinds=st.lists(
            st.sampled_from([t.name for t in TXN_TYPES]), min_size=1, max_size=8
        ),
    )
    def test_span_io_sums_to_counter_delta(self, seed, marking_bits, kinds):
        db, dag, maintainer, rng = _build(seed, marking_bits)
        tracer = Tracer()
        engine = Engine(maintainer, tracer=tracer)
        before = engine.io_snapshot()
        committed = IOStats()
        for kind in kinds:
            txn = _make_txn(kind, db, rng)
            if txn is None:
                continue
            result = engine.execute(txn)
            if result.io.total or not result.committed:
                spans = tracer.find("txn")
                # The newest txn span is this commit's, bit-exactly.
                if spans:
                    assert spans[-1].io == result.io
            committed = committed + result.io
        # Root spans partition the traced region's charges exactly.
        assert tracer.total_io() == engine.io_snapshot() - before
        assert tracer.total_io() == committed
        validate_trace(trace_to_json(tracer))
