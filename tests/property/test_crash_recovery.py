"""Property: kill anywhere mid-commit → recover → commit-or-nothing.

For random seeds and crash boundaries, under the immediate and enforcing
engines and the ``batched`` cell (the stream committed in composed chunks
through ``GroupCommitter.commit_batch``), on both execution backends, a durable run that dies at an
injected :class:`~repro.storage.durable.CrashPoint` must recover to a
state bit-identical to its lockstep non-durable oracle either *before*
or *after* the interrupted event — never in between. Three companion
invariants ride along on the same examples:

* recovering twice is a no-op (recovery is read-only over the files);
* the simulated Section 3.6 page-I/O accounting is durable-neutral — at
  every completed event the durable run's ``IOCounter`` equals the
  oracle's bit-for-bit;
* a run the crash never reaches finishes bit-identical to the oracle and
  recovers to exactly its own final state.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.compile import set_default_backend
from repro.storage.durable import CRASH_POINTS, CrashPoint
from tests.fault import (
    CrashInjector,
    apply_event,
    build_system,
    recovered_state,
    snapshot,
    stream_events,
)

N_TXNS = 8


def _crashed_run(durable_path, policy, seed, point, nth):
    """Durable run + lockstep oracle. Returns (oracle states by event,
    crashed event index or None, final durable snapshot or None)."""
    db, _system, engine = build_system(durable_path, policy, seed)
    odb, _osys, oracle = build_system(None, policy, seed)
    injector = CrashInjector(db.durable, point, nth=nth)
    states = [snapshot(odb)]
    crashed_at = None
    events = zip(
        stream_events(engine, seed, N_TXNS, policy),
        stream_events(oracle, seed, N_TXNS, policy),
    )
    for i, (event, oracle_event) in enumerate(events):
        apply_event(oracle, oracle_event)
        states.append(snapshot(odb))
        try:
            apply_event(engine, event)
        except CrashPoint:
            crashed_at = i
            break
        # Durability must never leak into the simulated accounting: the
        # two counters agree bit-for-bit after every completed event.
        assert db.counter.snapshot() == odb.counter.snapshot()
    final = snapshot(db) if crashed_at is None else None
    db.close()
    return states, crashed_at, final


class TestCrashRecovery:
    @pytest.mark.parametrize("policy", ["immediate", "batched", "enforce"])
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        point=st.sampled_from(CRASH_POINTS),
        nth=st.integers(1, 3),
    )
    def test_commit_or_nothing(self, policy, backend, seed, point, nth):
        set_default_backend(backend)
        try:
            with tempfile.TemporaryDirectory() as durable_path:
                states, crashed_at, final = _crashed_run(
                    durable_path, policy, seed, point, nth
                )
                recovered = recovered_state(durable_path, policy, seed)
                if crashed_at is None:
                    # Crash never fired: the run must match the oracle and
                    # recovery must reproduce its own final state.
                    assert final == states[-1]
                    assert recovered == final
                else:
                    before = states[crashed_at]
                    after = states[crashed_at + 1]
                    assert recovered in (before, after), (
                        f"crash at {point}:{nth} (event {crashed_at}) "
                        "recovered to neither side of the event"
                    )
                # Recovery is idempotent either way.
                assert recovered_state(durable_path, policy, seed) == recovered
        finally:
            set_default_backend("compiled")
