"""Synthetic workload generators.

Besides the paper's corporate database (:mod:`repro.workload.paperdb`),
benchmarks and tests use:

* **chain joins** ``R1 ⋈ R2 ⋈ … ⋈ Rk`` (the paper's Section 3 example of
  the view-set space for SPJ views) with controllable sizes and fanouts;
* **a sales star schema** (Orders / Items / Customers) for the example
  applications;
* random transaction-instance generators that turn a
  :class:`~repro.workload.transactions.TransactionType` into concrete
  deltas against the current database state.
"""

from __future__ import annotations

import random
from repro.algebra.operators import AggSpec, GroupAggregate, Join, RelExpr, Scan
from repro.algebra.scalar import col
from repro.algebra.schema import Schema
from repro.algebra.types import DataType
from repro.ivm.delta import Delta
from repro.storage.database import Database
from repro.workload.transactions import Transaction


# -- chain joins -------------------------------------------------------------------------


def chain_schema(i: int) -> Schema:
    """R_i(K{i-1}, K{i}, V{i}) with key K{i}: each R_{i+1} row references
    one R_i row, so the chain join has as many rows as R_1."""
    return Schema.of(
        (f"K{i-1}", DataType.INT),
        (f"K{i}", DataType.INT),
        (f"V{i}", DataType.INT),
        keys=[[f"K{i}"]],
    )


def chain_scans(k: int) -> list[Scan]:
    return [Scan(f"R{i}", chain_schema(i)) for i in range(1, k + 1)]


def chain_view(k: int, aggregate: bool = False) -> RelExpr:
    """The chain join view R1 ⋈ … ⋈ Rk (left-deep), optionally aggregated
    by the last key column (SUM of V1)."""
    scans = chain_scans(k)
    expr: RelExpr = scans[0]
    for scan in scans[1:]:
        expr = Join(expr, scan)
    if aggregate:
        expr = GroupAggregate(expr, (f"K{k}",), (AggSpec("sum", col("V1"), "VSum"),))
    return expr


def generate_chain_data(
    k: int, rows: int, seed: int = 0
) -> dict[str, list[tuple]]:
    """Each relation has ``rows`` tuples; K{i} is 0..rows-1 (a key), and
    K{i-1} references a uniformly random existing key of the previous
    relation (so every join has fanout ~1)."""
    rng = random.Random(seed)
    data: dict[str, list[tuple]] = {}
    for i in range(1, k + 1):
        tuples = []
        for key in range(rows):
            prev = rng.randrange(rows)
            tuples.append((prev, key, rng.randint(0, 100)))
        data[f"R{i}"] = tuples
    return data


def load_chain_database(k: int, rows: int, seed: int = 0) -> Database:
    db = Database()
    data = generate_chain_data(k, rows, seed)
    for i in range(1, k + 1):
        db.create_relation(
            f"R{i}",
            chain_schema(i),
            data[f"R{i}"],
            indexes=[[f"K{i-1}"], [f"K{i}"]],
        )
    return db


# -- sales star schema ---------------------------------------------------------------------

CUSTOMER_SCHEMA = Schema.of(
    ("CustId", DataType.INT),
    ("Region", DataType.STRING),
    ("Segment", DataType.STRING),
    keys=[["CustId"]],
)

ITEM_SCHEMA = Schema.of(
    ("Item", DataType.STRING),
    ("Price", DataType.INT),
    ("Category", DataType.STRING),
    keys=[["Item"]],
)

ORDER_SCHEMA = Schema.of(
    ("OrderId", DataType.INT),
    ("CustId", DataType.INT),
    ("Item", DataType.STRING),
    ("Quantity", DataType.INT),
    keys=[["OrderId"]],
)


def sales_scans() -> tuple[Scan, Scan, Scan]:
    return (
        Scan("Customers", CUSTOMER_SCHEMA),
        Scan("Items", ITEM_SCHEMA),
        Scan("Orders", ORDER_SCHEMA),
    )


def generate_sales_data(
    n_customers: int = 100,
    n_items: int = 50,
    n_orders: int = 2000,
    seed: int = 0,
) -> dict[str, list[tuple]]:
    rng = random.Random(seed)
    regions = ["north", "south", "east", "west"]
    segments = ["retail", "wholesale"]
    categories = ["toys", "books", "tools", "food"]
    customers = [
        (c, rng.choice(regions), rng.choice(segments)) for c in range(n_customers)
    ]
    items = [
        (f"item{i:04d}", rng.randint(1, 50), rng.choice(categories))
        for i in range(n_items)
    ]
    orders = [
        (
            o,
            rng.randrange(n_customers),
            f"item{rng.randrange(n_items):04d}",
            rng.randint(1, 10),
        )
        for o in range(n_orders)
    ]
    return {"Customers": customers, "Items": items, "Orders": orders}


def load_sales_database(seed: int = 0, **sizes) -> Database:
    db = Database()
    data = generate_sales_data(seed=seed, **sizes)
    db.create_relation(
        "Customers", CUSTOMER_SCHEMA, data["Customers"], indexes=[["CustId"]]
    )
    db.create_relation("Items", ITEM_SCHEMA, data["Items"], indexes=[["Item"]])
    db.create_relation(
        "Orders", ORDER_SCHEMA, data["Orders"], indexes=[["CustId"], ["Item"]]
    )
    return db


# -- transaction instances --------------------------------------------------------------------


def random_modify(
    db: Database,
    txn_name: str,
    relation: str,
    column: str,
    rng: random.Random,
    delta_range: tuple[int, int] = (-10, 10),
) -> Transaction:
    """A concrete single-tuple modification of a numeric column."""
    stored = db.relation(relation)
    rows = sorted(stored.contents().rows())
    if not rows:
        raise ValueError(f"relation {relation} is empty")
    old = rng.choice(rows)
    idx = stored.schema.index_of(column)
    change = rng.randint(*delta_range)
    if change == 0:
        change = 1
    new = old[:idx] + (old[idx] + change,) + old[idx + 1 :]
    return Transaction(txn_name, {relation: Delta.modification([(old, new)])})


def random_insert_delete(
    db: Database,
    txn_name: str,
    relation: str,
    rng: random.Random,
    make_row,
    insert_probability: float = 0.5,
) -> Transaction:
    """Insert a fresh row (built by ``make_row(rng)``) or delete a random
    existing one."""
    stored = db.relation(relation)
    rows = sorted(stored.contents().rows())
    if rows and rng.random() >= insert_probability:
        victim = rng.choice(rows)
        return Transaction(txn_name, {relation: Delta.deletion([victim])})
    return Transaction(txn_name, {relation: Delta.insertion([make_row(rng)])})
