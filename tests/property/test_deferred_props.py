"""Property-based tests: batched maintenance ≡ immediate maintenance.

For random transaction streams cut into random batches, committing each
batch through ``GroupCommitter.commit_batch`` must leave the database and
every materialized view in exactly the state that applying each
transaction immediately would have — and delta composition must preserve
net effects for arbitrary keyed sequences.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.storage.database import Database
from repro.storage.statistics import Catalog
from repro.workload.paperdb import DEPT_SCHEMA, EMP_SCHEMA, problem_dept_tree
from repro.workload.transactions import Transaction, paper_transactions

KEYED = Schema.of(("K", DataType.INT), ("V", DataType.INT), keys=[["K"]])


@st.composite
def keyed_delta_sequence(draw):
    """A sequence of deltas over a keyed relation, consistent with the
    evolving state (so sequential application is always legal)."""
    state = {k: draw(st.integers(0, 5)) for k in range(draw(st.integers(0, 3)))}
    deltas = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["insert", "delete", "modify"]))
        if kind == "insert":
            key = draw(st.integers(0, 6))
            if key in state:
                continue
            value = draw(st.integers(0, 9))
            state[key] = value
            deltas.append(Delta.insertion([(key, value)]))
        elif kind == "delete" and state:
            key = draw(st.sampled_from(sorted(state)))
            deltas.append(Delta.deletion([(key, state.pop(key))]))
        elif kind == "modify" and state:
            key = draw(st.sampled_from(sorted(state)))
            new_value = draw(st.integers(0, 9))
            deltas.append(Delta.modification([((key, state[key]), (key, new_value))]))
            state[key] = new_value
    return deltas


class TestComposeProperties:
    @settings(max_examples=80, deadline=None)
    @given(keyed_delta_sequence())
    def test_net_effect_preserved(self, deltas):
        composed = compose_deltas(KEYED, deltas)
        expected = Multiset()
        for delta in deltas:
            expected.update(delta.net())
        assert composed.net() == expected

    @settings(max_examples=80, deadline=None)
    @given(keyed_delta_sequence())
    def test_composed_delta_is_applicable(self, deltas):
        """Applying the composition to the initial state succeeds and gives
        the same final state as sequential application."""
        from repro.storage.relation import StoredRelation

        # Reconstruct the generator's initial state from the deltas: apply
        # them in reverse to an empty final state is fiddly; instead apply
        # sequentially to discover a valid initial state via trial.
        sequential = StoredRelation("S", KEYED)
        # The generator guarantees deltas start from *some* state; rebuild
        # it by replaying net effects of old-sides first.
        initial = Multiset()
        running = Multiset()
        for delta in deltas:
            needed = delta.all_deleted()
            for row, count in needed.items():
                missing = count - running.count(row)
                if missing > 0:
                    initial.add(row, missing)
                    running.add(row, missing)
            running.update(delta.net())
        sequential.load_multiset(initial)
        for delta in deltas:
            sequential.apply_delta(delta)

        batched = StoredRelation("B", KEYED)
        batched.load_multiset(initial)
        batched.apply_delta(compose_deltas(KEYED, deltas))
        assert batched.contents() == sequential.contents()

    @settings(max_examples=60, deadline=None)
    @given(keyed_delta_sequence(), keyed_delta_sequence())
    def test_composition_associativity(self, first, second):
        """compose(first ++ second) == compose(compose(first), compose(second))
        at the level of net effects."""
        all_together = compose_deltas(KEYED, first + second)
        stepwise = compose_deltas(
            KEYED,
            [compose_deltas(KEYED, first), compose_deltas(KEYED, second)],
        )
        assert all_together.net() == stepwise.net()


class TestDeferredEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        batch_splits=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    )
    def test_deferred_state_matches_immediate(self, seed, batch_splits):
        rng = random.Random(seed)
        depts = [(f"d{i}", "m", rng.randint(50, 200)) for i in range(3)]
        emps = [
            (f"e{i}", f"d{rng.randrange(3)}", rng.randint(10, 90)) for i in range(6)
        ]

        def make_setup():
            db = Database()
            db.create_relation("Dept", DEPT_SCHEMA, depts, indexes=[["DName"]])
            db.create_relation("Emp", EMP_SCHEMA, emps, indexes=[["DName"]])
            dag = build_dag(problem_dept_tree())
            estimator = DagEstimator(dag.memo, Catalog.from_database(db))
            cost_model = PageIOCostModel(
                dag.memo, estimator, CostConfig(root_group=dag.root)
            )
            txns = paper_transactions()
            sumofsals = next(
                g.id
                for g in dag.memo.groups()
                if set(g.schema.names) == {"DName", "SalSum"}
            )
            marking = frozenset({dag.root, dag.memo.find(sumofsals)})
            ev = evaluate_view_set(dag.memo, marking, txns, cost_model, estimator)
            m = ViewMaintainer(
                db, dag, marking, txns,
                {n: p.track for n, p in ev.per_txn.items()},
                estimator, cost_model,
            )
            m.materialize()
            return db, m

        # Generate the txn stream once, against logical state.
        logical = {r[0]: r for r in emps}
        stream = []
        gen = random.Random(seed + 1)
        total = sum(batch_splits)
        for _ in range(total):
            name = gen.choice(sorted(logical))
            old = logical[name]
            new = (old[0], old[1], old[2] + gen.randint(1, 9))
            logical[name] = new
            stream.append(
                Transaction(">Emp", {"Emp": Delta.modification([(old, new)])})
            )

        db1, m1 = make_setup()
        for txn in stream:
            m1.apply(txn)
        m1.verify()

        db2, m2 = make_setup()
        committer = GroupCommitter(Engine(m2))
        i = 0
        for size in batch_splits:
            for request in committer.commit_batch(stream[i : i + size]):
                request.wait()
            i += size
        m2.verify()

        assert db1.relation("Emp").contents() == db2.relation("Emp").contents()
        for gid in sorted(m1.marking):
            if not m1.memo.group(gid).is_leaf:
                assert m1.view_contents(gid) == m2.view_contents(gid)
