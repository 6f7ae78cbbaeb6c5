"""Tests for batched maintenance and delta composition.

Batched maintenance is ``GroupCommitter(engine).commit_batch(riders)`` on
an unstarted committer: the batch is composed with ``compose_batch`` and
committed as one transaction on the caller's thread.
"""

import random

import pytest

from repro.algebra.multiset import Multiset
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.engine import Engine
from repro.ivm.compose import compose_deltas
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.server.commit import GroupCommitter
from repro.storage.statistics import Catalog
from repro.workload.paperdb import problem_dept_tree
from repro.workload.transactions import Transaction, paper_transactions

KEYED = Schema.of(("K", DataType.INT), ("V", DataType.INT), keys=[["K"]])


class TestComposeDeltas:
    def test_sequential_modifies_collapse(self):
        d1 = Delta.modification([((1, 10), (1, 20))])
        d2 = Delta.modification([((1, 20), (1, 30))])
        composed = compose_deltas(KEYED, [d1, d2])
        assert composed.modifies == [((1, 10), (1, 30))]
        assert not composed.inserts and not composed.deletes

    def test_insert_then_delete_cancels(self):
        d1 = Delta.insertion([(5, 50)])
        d2 = Delta.deletion([(5, 50)])
        assert compose_deltas(KEYED, [d1, d2]).is_empty

    def test_insert_then_modify_becomes_insert(self):
        d1 = Delta.insertion([(5, 50)])
        d2 = Delta.modification([((5, 50), (5, 60))])
        composed = compose_deltas(KEYED, [d1, d2])
        assert composed.inserts.count((5, 60)) == 1
        assert not composed.modifies and not composed.deletes

    def test_modify_then_delete_becomes_delete(self):
        d1 = Delta.modification([((1, 10), (1, 20))])
        d2 = Delta.deletion([(1, 20)])
        composed = compose_deltas(KEYED, [d1, d2])
        assert composed.deletes.count((1, 10)) == 1

    def test_roundtrip_modify_vanishes(self):
        d1 = Delta.modification([((1, 10), (1, 20))])
        d2 = Delta.modification([((1, 20), (1, 10))])
        assert compose_deltas(KEYED, [d1, d2]).is_empty

    def test_empty_sequence(self):
        assert compose_deltas(KEYED, []).is_empty

    def test_net_preserved(self):
        deltas = [
            Delta.insertion([(1, 1), (2, 2)]),
            Delta.modification([((1, 1), (1, 5))]),
            Delta.deletion([(2, 2)]),
        ]
        composed = compose_deltas(KEYED, deltas)
        expected = Multiset()
        for d in deltas:
            expected.update(d.net())
        assert composed.net() == expected

    def test_multi_row_insert_then_delete_cancels_fully(self):
        """Rows inserted in one transaction and deleted across later ones
        vanish entirely — the composed batch is empty, not a no-op pair."""
        deltas = [
            Delta.insertion([(5, 50), (6, 60)]),
            Delta.modification([((5, 50), (5, 55))]),
            Delta.deletion([(5, 55), (6, 60)]),
        ]
        assert compose_deltas(KEYED, deltas).is_empty

    def test_delete_then_insert_repairs_to_modification(self):
        """A delete and a later insert sharing the candidate key become one
        modification, so storage charges read-modify-write, not two ops."""
        composed = compose_deltas(
            KEYED, [Delta.deletion([(1, 10)]), Delta.insertion([(1, 99)])]
        )
        assert composed.modifies == [((1, 10), (1, 99))]
        assert not composed.inserts and not composed.deletes

    def test_delete_then_insert_different_keys_stay_separate(self):
        composed = compose_deltas(
            KEYED, [Delta.deletion([(1, 10)]), Delta.insertion([(2, 99)])]
        )
        assert not composed.modifies
        assert composed.deletes.count((1, 10)) == 1
        assert composed.inserts.count((2, 99)) == 1

    def test_no_repairing_without_candidate_key(self):
        keyless = Schema.of(("K", DataType.INT), ("V", DataType.INT))
        composed = compose_deltas(
            keyless, [Delta.deletion([(1, 10)]), Delta.insertion([(1, 99)])]
        )
        assert not composed.modifies
        assert composed.deletes.count((1, 10)) == 1
        assert composed.inserts.count((1, 99)) == 1

    def test_three_transaction_composition(self):
        """Composition is associative across ≥3 transactions: the pairwise
        fold equals composing the whole sequence at once."""
        t1 = [Delta.insertion([(7, 1)]), Delta.modification([((3, 30), (3, 31))])]
        t2 = [Delta.modification([((7, 1), (7, 2))]), Delta.deletion([(4, 40)])]
        t3 = [Delta.modification([((7, 2), (7, 3))]), Delta.insertion([(4, 41)])]
        sequence = [*t1, *t2, *t3]
        composed = compose_deltas(KEYED, sequence)
        assert composed.inserts.count((7, 3)) == 1
        assert ((3, 30), (3, 31)) in composed.modifies
        assert ((4, 40), (4, 41)) in composed.modifies
        two_step = compose_deltas(
            KEYED, [compose_deltas(KEYED, [*t1, *t2]), *t3]
        )
        assert two_step.net() == composed.net()


@pytest.fixture
def deferred(small_paper_db):
    db = small_paper_db
    dag = build_dag(problem_dept_tree())
    estimator = DagEstimator(dag.memo, Catalog.from_database(db))
    cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
    txns = paper_transactions()
    sumofsals = next(
        g.id for g in dag.memo.groups() if set(g.schema.names) == {"DName", "SalSum"}
    )
    marking = frozenset({dag.root, dag.memo.find(sumofsals)})
    ev = evaluate_view_set(dag.memo, marking, txns, cost_model, estimator)
    maintainer = ViewMaintainer(
        db,
        dag,
        marking,
        txns,
        {name: plan.track for name, plan in ev.per_txn.items()},
        estimator,
        cost_model,
    )
    maintainer.materialize()
    return db, GroupCommitter(Engine(maintainer))


def _emp_raise(db, rng, amount=5):
    old = rng.choice(sorted(db.relation("Emp").contents().rows()))
    new = (old[0], old[1], old[2] + amount)
    return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})


def _modify(old, new):
    return Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})


class TestDeferredMaintainer:
    """Batched maintenance through ``GroupCommitter.commit_batch`` (the
    class name predates the group committer and keeps these test ids
    stable)."""

    def test_flush_empty_queue(self, deferred):
        _, committer = deferred
        assert committer.commit_batch([]) == []
        assert committer.batches == []

    def test_batch_correctness(self, deferred):
        db, committer = deferred
        rng = random.Random(1)
        for _ in range(3):
            # Each raise names a distinct employee: riders are generated
            # from the stored rows, not from the riders ahead of them.
            rows = rng.sample(sorted(db.relation("Emp").contents().rows()), 5)
            batch = [
                _modify(old, (old[0], old[1], old[2] + rng.randint(1, 20)))
                for old in rows
            ]
            requests = committer.commit_batch(batch)
            assert all(r.error is None for r in requests)
            committer.engine.maintainer.verify()

    def test_mixed_relation_batch(self, deferred):
        db, committer = deferred
        rng = random.Random(2)
        dept = sorted(db.relation("Dept").contents().rows())[0]
        committer.commit_batch(
            [
                _emp_raise(db, rng),
                Transaction(
                    ">Dept",
                    {"Dept": Delta.modification([(dept, (dept[0], dept[1], dept[2] - 5))])},
                ),
            ]
        )
        result = committer.batches[-1].batch_result
        assert result is not None
        assert result.txn.updated_relations == {"Emp", "Dept"}
        committer.engine.maintainer.verify()

    def test_cancelling_batch_is_free(self, deferred):
        db, committer = deferred
        emp = sorted(db.relation("Emp").contents().rows())[0]
        up = (emp[0], emp[1], emp[2] + 10)
        db.counter.reset()
        requests = committer.commit_batch([_modify(emp, up), _modify(up, emp)])
        assert committer.batches[-1].empty
        assert all(r.result.committed for r in requests)
        assert db.counter.total == 0

    def test_batching_amortizes_io(self, deferred):
        """k raises to the same employee: one group update, not k."""
        db, committer = deferred
        emp = sorted(db.relation("Emp").contents().rows())[0]

        # Per-transaction baseline.
        db.counter.reset()
        current = emp
        for i in range(5):
            new = (current[0], current[1], current[2] + 1)
            committer.commit_batch([_modify(current, new)])
            current = new
        per_txn_cost = db.counter.total
        committer.engine.maintainer.verify()

        # Batched.
        db.counter.reset()
        batch = []
        for i in range(5):
            new = (current[0], current[1], current[2] + 1)
            batch.append(_modify(current, new))
            current = new
        committer.commit_batch(batch)
        batched_cost = db.counter.total
        committer.engine.maintainer.verify()
        assert batched_cost < per_txn_cost

    def test_transient_name_cleaned_up(self, deferred):
        db, committer = deferred
        rng = random.Random(4)
        committer.commit_batch([_emp_raise(db, rng)])
        assert committer.batches[-1].batch_result.txn.type_name.startswith("__group")
        assert not any(
            name.startswith("__group") for name in committer.engine.maintainer.txn_types
        )


_HASHSEED_SCRIPT = """
import json

from repro.core.optimizer import evaluate_view_set
from repro.cost.estimates import DagEstimator
from repro.cost.model import CostConfig
from repro.cost.page_io import PageIOCostModel
from repro.dag.builder import build_dag
from repro.engine import Engine
from repro.ivm.delta import Delta
from repro.ivm.maintainer import ViewMaintainer
from repro.server.commit import GroupCommitter
from repro.obs.trace import Tracer
from repro.storage.statistics import Catalog
from repro.workload.generators import chain_view, load_chain_database
from repro.workload.transactions import Transaction, TransactionType, UpdateSpec

K, ROWS = 5, 20
db = load_chain_database(K, ROWS, seed=11)
dag = build_dag(chain_view(K))
estimator = DagEstimator(dag.memo, Catalog.from_database(db))
cost_model = PageIOCostModel(dag.memo, estimator, CostConfig(root_group=dag.root))
txn_types = tuple(
    TransactionType(
        f">R{i}",
        {f"R{i}": UpdateSpec(modifies=1, modified_columns=frozenset({f"V{i}"}))},
    )
    for i in range(1, K + 1)
)
marking = frozenset({dag.root})
ev = evaluate_view_set(dag.memo, marking, txn_types, cost_model, estimator)
maintainer = ViewMaintainer(
    db, dag, marking, txn_types,
    {name: plan.track for name, plan in ev.per_txn.items()},
    estimator, cost_model,
)
maintainer.materialize()

tracer = Tracer()
committer = GroupCommitter(Engine(maintainer, tracer=tracer))
batch = []
for i in range(1, K + 1):
    rel = f"R{i}"
    old = sorted(db.relation(rel).contents().rows())[0]
    new = (old[0], old[1], old[2] + 7)
    batch.append(Transaction(f">R{i}", {rel: Delta.modification([(old, new)])}))
committer.commit_batch(batch)
result = committer.batches[-1].batch_result
print(json.dumps({
    "compose_order": list(result.txn.deltas),
    "base_apply_order": [s.attrs["relation"] for s in tracer.find("base_apply")],
    "io": result.io.total,
}))
"""


class TestComposeHashSeedDeterminism:
    def test_batch_order_independent_of_hash_seed(self):
        """Composition must not leak set-iteration order: the combined
        batch's relation order (and hence base-apply order and per-span
        attribution) has to be bit-identical across PYTHONHASHSEED values.
        Seeds 0/1/2 are verified to order {R1..R5} differently, so the
        pre-fix set iteration fails this test."""
        import os
        import subprocess
        import sys

        outputs = {}
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src"
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outputs[seed] = proc.stdout
        assert outputs["0"] == outputs["1"] == outputs["2"]
        import json

        doc = json.loads(outputs["0"])
        assert doc["compose_order"] == sorted(doc["compose_order"])
        assert doc["base_apply_order"] == doc["compose_order"]
