"""Fault-injection harness for the durable storage layer.

Two crash modes over the same crash points (``repro.storage.durable.
CRASH_POINTS``, every WAL append / barrier / checkpoint-rotation
boundary):

* **in-process** — :class:`CrashInjector` arms a ``DurableStore`` so the
  nth arrival at a point freezes the store (all further durable ops
  become no-ops, exactly as if the process had died — post-crash rollback
  code cannot touch the files) and raises :class:`CrashPoint` into the
  commit. The test then "reboots" by reopening the directory.
* **subprocess** — a child process run with ``REPRO_CRASH_AT=point:nth``
  calls ``os._exit`` at the boundary: a real kill, nothing simulated.
  Driven by this module's CLI (see below).

Shared machinery: a deterministic transaction stream generator (depends
only on the seed and the database state sequence, so a crashed run and
its oracle generate identical prefixes), bit-comparable state snapshots,
and builders for the corporate database + DeptConstraint system over a
durable directory.

CLI (used by the ``recovery-smoke`` CI job)::

    python -m tests.fault run    --dir D --policy enforce --seed 3 --n-txns 12
    python -m tests.fault verify --dir D --policy enforce --seed 3 --n-txns 12
    python -m tests.fault matrix [--policies immediate,batched,enforce] [--points ...]

``run`` executes the stream (crashing mid-commit if ``REPRO_CRASH_AT`` is
set); ``verify`` recovers the directory and asserts the recovered state
equals one of the oracle's prefix states (commit-or-nothing at *some*
transaction boundary — the in-process property test pins down *which*).
``matrix`` spawns run+verify child pairs for every policy × crash point
and reports a table (``batched`` is the report-only engine with the stream
committed in chunks of :data:`BATCH` through
:meth:`~repro.server.commit.GroupCommitter.commit_batch`, so composed
commits are crashed too); exit status is non-zero on any divergence, and on
any crash point no (policy, nth) cell reached — a point the stream never
arrives at is coverage silently lost.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from repro.constraints.assertions import AssertionSystem, AssertionViolation
from repro.ivm.maintainer import MaintenanceError
from repro.ivm.propagate import PropagationError
from repro.storage.relation import StorageError
from repro.ivm.delta import Delta
from repro.server.commit import GroupCommitter
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.storage.durable import CRASH_EXIT_CODE, CRASH_POINTS, CrashPoint, DurableStore
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA
from repro.workload.transactions import Transaction, paper_transactions

DEPT_CONSTRAINT = """
CREATE ASSERTION DeptConstraint CHECK (NOT EXISTS (
    SELECT Dept.DName FROM Emp, Dept
    WHERE Dept.DName = Emp.DName
    GROUPBY Dept.DName, Budget
    HAVING SUM(Salary) > Budget))
"""

DEPTS = ("dp0", "dp1", "dp2")
KINDS = ("raise", "big_raise", "hire", "fire", "transfer", "budget_cut")
POLICIES = ("immediate", "batched", "enforce")
#: riders per composed commit under the ``batched`` policy
BATCH = 3


class CrashInjector:
    """Arms a store: the nth arrival at ``point`` freezes it and raises.

    Freezing first is what makes the in-process crash faithful: the
    exception unwinds through rollback/abort code that would otherwise
    write to the WAL — a dead process cannot."""

    def __init__(self, store: DurableStore, point: str, nth: int = 1) -> None:
        self.point = point
        self.nth = nth
        self.seen = 0
        self.fired = False
        self._store = store
        store.crash_hook = self

    def __call__(self, name: str) -> None:
        if name != self.point:
            return
        self.seen += 1
        if not self.fired and self.seen >= self.nth:
            self.fired = True
            self._store.freeze()
            raise CrashPoint(f"{self.point}:{self.nth}")


# -- deterministic workload ---------------------------------------------------------


def seed_rows(seed: int) -> dict[str, list[tuple]]:
    rng = random.Random(seed)
    return {
        "Dept": [(name, "m", rng.randint(300, 900)) for name in DEPTS],
        "Emp": [
            (f"e{i}", rng.choice(DEPTS), rng.randint(5, 30))
            for i in range(rng.randint(3, 6))
        ],
    }


def build_system(
    durable_path: str | None,
    policy: str,
    seed: int,
    checkpoint_every: int = 4,
):
    """Corporate db + DeptConstraint + engine; durable when a path is given.

    Frequent auto-checkpoints on purpose: they force the checkpoint
    rotation code paths inside short test streams.
    """
    # wal_sync="full": the matrix asserts the strict per-commit-fsync
    # semantics (commit record durable at the commit point); "normal"
    # mode's weaker guarantee is still commit-or-nothing and is covered
    # by the two-sided oracle check either way.
    db = Database(
        durable_path=durable_path,
        checkpoint_every=checkpoint_every,
        wal_sync="full",
    )
    rows = seed_rows(seed)
    if "Emp" not in db:
        db.create_relation("Dept", DEPT_SCHEMA, rows["Dept"], indexes=[["DName"]])
        db.create_relation("Emp", EMP_SCHEMA, rows["Emp"], indexes=[["DName"]])
    # Pin the optimizer's statistics to the *seed-time* catalog: a
    # recovered database carries post-stream sizes, and letting the view
    # plan float with them would make snapshots incomparable across a
    # rebuild (different auxiliary views materialized).
    scratch = Database()
    scratch.create_relation("Dept", DEPT_SCHEMA, rows["Dept"], indexes=[["DName"]])
    scratch.create_relation("Emp", EMP_SCHEMA, rows["Emp"], indexes=[["DName"]])
    system = AssertionSystem(
        db,
        [DEPT_CONSTRAINT],
        paper_transactions(),
        catalog=Catalog.from_database(scratch),
        enforce=(policy == "enforce"),
    )
    return db, system, system.engine


def make_txn(kind: str, emps: list, depts: list, rng: random.Random) -> Transaction | None:
    """One deterministic transaction against the given current rows."""
    if kind == "raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(1, 5))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "big_raise" and emps:
        old = rng.choice(emps)
        new = (old[0], old[1], old[2] + rng.randint(400, 900))
        return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
    if kind == "hire":
        row = (f"h{rng.randrange(10**9)}", rng.choice(DEPTS), rng.randint(1, 40))
        return Transaction("Hire", {"Emp": Delta.insertion([row])})
    if kind == "fire" and emps:
        return Transaction("Fire", {"Emp": Delta.deletion([rng.choice(emps)])})
    if kind == "transfer" and emps:
        old = rng.choice(emps)
        targets = [d for d in DEPTS if d != old[1]]
        new = (old[0], rng.choice(targets), old[2])
        return Transaction("Transfer", {"Emp": Delta.modification([(old, new)])})
    if kind == "budget_cut" and depts:
        old = rng.choice(depts)
        new = (old[0], old[1], max(old[2] - rng.randint(50, 200), 0))
        return Transaction(">Dept", {"Dept": Delta.modification([(old, new)])})
    return None


def stream_events(engine, seed: int, n_txns: int, policy: str = "immediate", kinds=KINDS):
    """Yield the engine-level events of a deterministic stream.

    Each event is ``("txn", Transaction)``, or under the ``batched``
    policy ``("batch", transactions)`` — up to :data:`BATCH` of them, one
    composed commit. Transactions are generated against a mirror of the
    generated history, so generation depends only on the seed — identical
    for a run and its oracle, and consistent within a batch.
    """
    db = engine.db
    rng = random.Random(seed + 1)
    batch: list[Transaction] = []
    mirror = {
        "Emp": sorted(db.relation("Emp").contents().rows()),
        "Dept": sorted(db.relation("Dept").contents().rows()),
    }
    from repro.algebra.multiset import Multiset

    for i in range(n_txns):
        kind = kinds[rng.randrange(len(kinds))]
        txn = make_txn(kind, mirror["Emp"], mirror["Dept"], rng)
        if txn is None:
            continue
        for rel, delta in txn.deltas.items():
            rows = Multiset()
            for row in mirror[rel]:
                rows.add(row, 1)
            rows.update(delta.net())
            mirror[rel] = sorted(rows.rows())
        if policy != "batched":
            yield ("txn", txn)
            continue
        batch.append(txn)
        if len(batch) == BATCH:
            yield ("batch", tuple(batch))
            batch = []
    if batch:
        yield ("batch", tuple(batch))


#: what a generated rider may raise on its own (see apply_event)
_RIDER_ERRORS = (StorageError, MaintenanceError, PropagationError)


def apply_event(engine, event) -> str:
    """Apply one event; returns 'committed' | 'rejected' | 'error', one
    comma-separated outcome per rider for a batch."""
    kind, payload = event
    if kind == "batch":
        return _apply_batch(engine, payload)
    try:
        engine.execute(payload)
        return "committed"
    except AssertionViolation:
        return "rejected"
    except _RIDER_ERRORS:
        # A generated delta can reference a row an earlier *rejected*
        # transaction would have created; the rollback guard restores the
        # pre-transaction state, identically in the run and its oracle.
        return "error"


def _apply_batch(engine, txns) -> str:
    """Commit ``txns`` as one composed commit through an unstarted group
    committer. The committer replays a batch whose commit raised rider by
    rider, so an injected crash would be absorbed: the store is frozen
    (a dead process) and the replay only touches memory. The crash is
    re-raised here, as the process death it stands for."""
    store = engine.db.durable
    hook = store.crash_hook if store is not None else None
    fired = getattr(hook, "fired", False)
    outcomes = []
    for request in GroupCommitter(engine).commit_batch(txns):
        error = request.error
        if error is None:
            outcomes.append("committed")
        elif isinstance(error, AssertionViolation):
            outcomes.append("rejected")
        elif isinstance(error, _RIDER_ERRORS):
            outcomes.append("error")
        elif not isinstance(error, CrashPoint):
            raise error
    if not fired and getattr(hook, "fired", False):
        raise CrashPoint(f"{hook.point}:{hook.nth}")
    return ",".join(outcomes)


def snapshot(db: Database) -> dict[str, list[tuple]]:
    """Bit-comparable state: every relation's sorted (row, count) pairs."""
    return {
        name: sorted(db.relation(name).contents().items(), key=repr)
        for name in sorted(db.names)
    }


def oracle_states(policy: str, seed: int, n_txns: int) -> list[dict]:
    """States after each event of the clean (non-durable) reference run.

    ``states[0]`` is the freshly-seeded state; ``states[i]`` the state
    after event ``i`` — the commit-or-nothing vocabulary a crashed run's
    recovery must land in."""
    db, _system, engine = build_system(None, policy, seed)
    states = [snapshot(db)]
    for event in stream_events(engine, seed, n_txns, policy):
        apply_event(engine, event)
        states.append(snapshot(db))
    return states


def recovered_state(durable_path: str, policy: str, seed: int) -> dict:
    """Reopen a durable directory and snapshot the recovered database.

    Building the assertion system re-materializes the auxiliary views
    from the recovered bases (journaled like any other change), so the
    snapshot is comparable with the oracle's."""
    db, _system, _engine = build_system(durable_path, policy, seed)
    state = snapshot(db)
    db.close()
    return state


# -- subprocess driver ---------------------------------------------------------------


def _cmd_run(args) -> int:
    # Seeding and view materialization are themselves journaled mini
    # commits; arm the kill hook only after setup so the crash lands
    # mid-stream, where the oracle states are defined.
    spec = os.environ.pop("REPRO_CRASH_AT", None)
    db, _system, engine = build_system(args.dir, args.policy, args.seed)
    if spec and db.durable is not None:
        from repro.storage.durable import _env_crash_hook

        db.durable.crash_hook = _env_crash_hook(spec)
    for event in stream_events(engine, args.seed, args.n_txns, args.policy):
        apply_event(engine, event)
    db.close()
    return 0


def _cmd_verify(args) -> int:
    states = oracle_states(args.policy, args.seed, args.n_txns)
    recovered = recovered_state(args.dir, args.policy, args.seed)
    if any(recovered == s for s in states):
        print("recovered state matches a transaction boundary")
        return 0
    print("DIVERGENCE: recovered state matches no transaction boundary")
    print(f"recovered: {recovered}")
    return 1


def _cmd_matrix(args) -> int:
    import tempfile

    policies = args.policies.split(",")
    points = args.points.split(",") if args.points else list(CRASH_POINTS)
    env_base = {k: v for k, v in os.environ.items() if k != "REPRO_CRASH_AT"}
    failures = 0
    rows = []
    for policy in policies:
        for point in points:
            for nth in (1, 2):
                with tempfile.TemporaryDirectory() as d:
                    env = dict(env_base, REPRO_CRASH_AT=f"{point}:{nth}")
                    child = subprocess.run(
                        [
                            sys.executable, "-m", "tests.fault", "run",
                            "--dir", d, "--policy", policy,
                            "--seed", str(args.seed),
                            "--n-txns", str(args.n_txns),
                        ],
                        env=env, capture_output=True, text=True,
                    )
                    if child.returncode == 0:
                        rows.append((policy, point, nth, "not reached"))
                        continue
                    if child.returncode != CRASH_EXIT_CODE:
                        rows.append((policy, point, nth, "ERROR"))
                        print(child.stderr, file=sys.stderr)
                        failures += 1
                        continue
                    check = subprocess.run(
                        [
                            sys.executable, "-m", "tests.fault", "verify",
                            "--dir", d, "--policy", policy,
                            "--seed", str(args.seed),
                            "--n-txns", str(args.n_txns),
                        ],
                        env=env_base, capture_output=True, text=True,
                    )
                    ok = check.returncode == 0
                    rows.append((policy, point, nth, "ok" if ok else "DIVERGED"))
                    if not ok:
                        print(check.stdout, file=sys.stderr)
                        failures += 1
    width = max(len(p) for p in points) + 2
    print(f"{'policy':<12}{'crash point':<{width}}{'nth':<5}result")
    for policy, point, nth, result in rows:
        print(f"{policy:<12}{point:<{width}}{nth:<5}{result}")
    killed = sum(1 for r in rows if r[3] in ("ok", "DIVERGED"))
    print(f"{killed} kills verified, {failures} failures")
    unreached = [
        point for point in points
        if all(r[3] == "not reached" for r in rows if r[1] == point)
    ]
    if unreached:
        print(f"never reached: {', '.join(unreached)}")
    return 1 if failures or unreached else 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="tests.fault")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--dir", required=True)
        p.add_argument("--policy", choices=POLICIES, default="immediate")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-txns", type=int, default=12)
        p.set_defaults(func=_cmd_run if name == "run" else _cmd_verify)
    m = sub.add_parser("matrix")
    m.add_argument("--policies", default=",".join(POLICIES))
    m.add_argument("--points", default=None)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--n-txns", type=int, default=12)
    m.set_defaults(func=_cmd_matrix)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
