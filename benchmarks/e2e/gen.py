"""Operation generators: everything random comes from ``--seed``.

The program under test sees only SQL text (socket workloads) or
``Transaction`` objects (batch workloads). Each generator keeps its own
plain-Python model of the rows it writes — that model is the oracle: it
says what every reply must be and what the relations must hold at the end.

Socket clients own disjoint department slices (``dept index mod clients``),
so one client's expected replies and final rows do not depend on how its
requests interleave with the other client's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

# -- socket workloads: the paper's Emp/Dept world ------------------------------------

BUDGET_RANGE = (800, 1200)  # what ReproServer loads Dept with


@dataclass
class E1Mix:
    """Traffic mix of one socket workload (shares of all operations)."""

    read_share: float
    read_kind: str  # "emp_row" | "dept_sum"
    hot_share: float = 0.0  # share of operations aimed at the hot departments
    hot_depts: float = 1.0  # ... which are this share of the client's slice
    zero_budget_share: float = 0.0  # share of writes that must be rejected
    enforce: bool = False


class E1Client:
    """One closed-loop client's operation stream and its expected world.

    ``ops`` entries are ``(kind, sql, expect, payload, effect)``: ``kind``
    is ``"write"`` or ``"read"``; ``expect`` is ``"committed"``,
    ``"rejected"`` or ``"rows"`` (``payload`` = the exact rows); ``effect``
    is how an accepted write changes the final state.
    """

    def __init__(
        self, client: int, clients: int, data: dict[str, list[tuple]], mix: E1Mix, seed: int
    ) -> None:
        self.client = client
        self.mix = mix
        self.rng = random.Random(seed * 1000 + client)
        self.depts = [d[0] for i, d in enumerate(data["Dept"]) if i % clients == client]
        mine = set(self.depts)
        self.budget = {d[0]: d[2] for d in data["Dept"] if d[0] in mine}
        self.members: dict[str, list[str]] = {d: [] for d in self.depts}
        self.salary: dict[str, int] = {}
        self.sal_sum = {d: 0 for d in self.depts}
        for ename, dname, salary in data["Emp"]:
            if dname in mine:
                self.members[dname].append(ename)
                self.salary[ename] = salary
                self.sal_sum[dname] += salary
        self.n_hot = max(1, int(len(self.depts) * mix.hot_depts))
        self.next_emp = 0
        self.ops: list[tuple] = []

    def _dept(self) -> str:
        rng = self.rng
        if self.mix.hot_share and rng.random() < self.mix.hot_share:
            return self.depts[rng.randrange(self.n_hot)]
        return self.depts[rng.randrange(len(self.depts))]

    def _violates(self, sal_sum: int, budget: int, members: int) -> bool:
        """DeptConstraint: no department's salary total exceeds its budget."""
        return self.mix.enforce and members > 0 and sal_sum > budget

    def _block(self) -> list[str]:
        """The kinds of the next 100 operations: the mix's shares exactly
        (rounded to whole operations), in a seeded order — so two seeds
        differ in keys and order, not in how many of each kind they send."""
        mix = self.mix
        reads = round(100 * mix.read_share)
        zero = round((100 - reads) * mix.zero_budget_share)
        rest = 100 - reads - zero
        emp = dept = round(rest * 0.4)
        insert = (rest - emp - dept) // 2
        kinds = (
            ["read"] * reads + ["zero"] * zero + ["emp"] * emp + ["dept"] * dept
            + ["insert"] * insert + ["delete"] * (rest - emp - dept - insert)
        )
        self.rng.shuffle(kinds)
        return kinds

    def _write(self, kind: str) -> tuple:
        rng = self.rng
        dname = self._dept()
        members = self.members[dname]
        if kind in ("emp", "delete") and not members:
            kind = "insert"  # nobody left in this department to update or remove
        if kind == "zero":
            sql = f"UPDATE Dept SET Budget = 0 WHERE DName = '{dname}'"
            if self._violates(self.sal_sum[dname], 0, len(members)):
                return ("write", sql, "rejected", None, None)
            self.budget[dname] = 0
            return ("write", sql, "committed", None, ("budget", dname, 0))
        if kind == "emp":
            ename = members[rng.randrange(len(members))]
            step = 1 if rng.random() < 0.5 else -1
            # "Salary - 1", never "Salary + -1": the SQL subset rejects a
            # signed literal after an operator.
            sql = (
                f"UPDATE Emp SET Salary = Salary {'+' if step > 0 else '-'} 1 "
                f"WHERE EName = '{ename}'"
            )
            if self._violates(self.sal_sum[dname] + step, self.budget[dname], len(members)):
                return ("write", sql, "rejected", None, None)
            self.salary[ename] += step
            self.sal_sum[dname] += step
            return ("write", sql, "committed", None, ("emp", ename, dname, self.salary[ename]))
        if kind == "dept":
            step = 1 if rng.random() < 0.5 else -1
            sql = (
                f"UPDATE Dept SET Budget = Budget {'+' if step > 0 else '-'} 1 "
                f"WHERE DName = '{dname}'"
            )
            if self._violates(self.sal_sum[dname], self.budget[dname] + step, len(members)):
                return ("write", sql, "rejected", None, None)
            self.budget[dname] += step
            return ("write", sql, "committed", None, ("budget", dname, self.budget[dname]))
        if kind == "insert":
            ename = f"new{self.client}_{self.next_emp:07d}"
            self.next_emp += 1
            salary = rng.randint(30, 70)
            sql = f"INSERT INTO Emp VALUES ('{ename}', '{dname}', {salary})"
            if self._violates(self.sal_sum[dname] + salary, self.budget[dname], len(members) + 1):
                return ("write", sql, "rejected", None, None)
            members.append(ename)
            self.salary[ename] = salary
            self.sal_sum[dname] += salary
            return ("write", sql, "committed", None, ("emp", ename, dname, salary))
        index = rng.randrange(len(members))
        ename = members[index]
        members[index] = members[-1]
        members.pop()
        self.sal_sum[dname] -= self.salary.pop(ename)
        return (
            "write",
            f"DELETE FROM Emp WHERE EName = '{ename}'",
            "committed",
            None,
            ("gone", ename),
        )

    def _read(self) -> tuple:
        dname = self._dept()
        members = self.members[dname]
        if self.mix.read_kind == "emp_row" and members:
            ename = members[self.rng.randrange(len(members))]
            sql = f"SELECT EName, DName, Salary FROM Emp WHERE EName = '{ename}'"
            return ("read", sql, "rows", [[ename, dname, self.salary[ename]]], None)
        sql = f"SELECT DName, SUM(Salary) FROM Emp WHERE DName = '{dname}' GROUPBY DName"
        rows = [[dname, self.sal_sum[dname]]] if members else []
        return ("read", sql, "rows", rows, None)

    def generate(self, count: int) -> list[tuple]:
        while len(self.ops) < count:
            for kind in self._block():
                self.ops.append(self._read() if kind == "read" else self._write(kind))
        return self.ops


def e1_final_state(
    data: dict[str, list[tuple]], executed: list[list[tuple]]
) -> tuple[set[tuple], set[tuple]]:
    """(Emp rows, Dept rows) after the executed operations, as sets."""
    emps = {row[0]: row for row in data["Emp"]}
    depts = {row[0]: row for row in data["Dept"]}
    for ops in executed:
        for _kind, _sql, expect, _payload, effect in ops:
            if expect != "committed" or effect is None:
                continue
            if effect[0] == "emp":
                emps[effect[1]] = (effect[1], effect[2], effect[3])
            elif effect[0] == "gone":
                del emps[effect[1]]
            else:
                old = depts[effect[1]]
                depts[effect[1]] = (old[0], old[1], effect[2])
    return set(emps.values()), set(depts.values())


# -- batch workloads -----------------------------------------------------------------


@dataclass
class BatchOp:
    """One transaction plus the read that follows it."""

    txn: Any
    rows_changed: int
    read_expr: Any
    read_rows: list[tuple]


class ChainOps:
    """k=5 chain: modify ``batch`` rows of R1 (twice) then of R3, repeating.

    Two R1 transactions to one R3 so that the median sits inside the R1
    mode and the tail percentile inside the R3 mode; with an even split
    both would fall in the gap between the two modes and jump between runs.
    """

    cycle = (">R1", ">R1", ">R3")

    def __init__(self, data: dict[str, list[tuple]], batch: int, seed: int) -> None:
        from repro.algebra.operators import Scan, Select
        from repro.algebra.predicates import Compare
        from repro.algebra.scalar import col, lit
        from repro.workload.generators import chain_schema

        self.rng = random.Random(seed * 1000 + 7)
        self.batch = batch
        self.rows = {"R1": list(data["R1"]), "R3": list(data["R3"])}
        self.n = 0
        self._scan = Scan("R1", chain_schema(1))
        self._select = lambda key: Select(self._scan, Compare("=", col("K1"), lit(key)))

    def next(self) -> BatchOp:
        from repro.ivm.delta import Delta
        from repro.workload.transactions import Transaction

        name = self.cycle[self.n % len(self.cycle)]
        self.n += 1
        rel = name[1:]
        rows = self.rows[rel]
        pairs = []
        for index in self.rng.sample(range(len(rows)), self.batch):
            old = rows[index]
            new = (old[0], old[1], old[2] + 1)
            rows[index] = new
            pairs.append((old, new))
        key = self.rng.randrange(len(self.rows["R1"]))
        return BatchOp(
            Transaction(name, {rel: Delta.modification(pairs)}),
            len(pairs),
            self._select(key),
            [self.rows["R1"][key]],  # K1 == position: generate_chain_data keys are 0..n-1
        )

    def expected(self) -> dict[str, set[tuple]]:
        return {rel: set(rows) for rel, rows in self.rows.items()}

    def warm_reads(self) -> list:
        """Nothing to warm: with 30 000 keys a read's literal is always new,
        so every read compiles its plan (the steady state here)."""
        return []


class SalesOps:
    """Sales star: 4 × insert ``batch`` Orders, 4 × delete ``batch`` live
    Orders, 1 × reprice ``reprice`` Items, repeating."""

    cycle = ("new-orders",) * 4 + ("cancel-orders",) * 4 + ("reprice",)

    def __init__(self, data: dict[str, list[tuple]], batch: int, reprice: int, seed: int) -> None:
        from repro.algebra.operators import Scan, Select
        from repro.algebra.predicates import Compare
        from repro.algebra.scalar import col, lit
        from repro.workload.generators import ITEM_SCHEMA

        self.rng = random.Random(seed * 1000 + 11)
        self.batch = batch
        self.reprice = reprice
        self.orders = list(data["Orders"])
        self.items = list(data["Items"])
        self.n_customers = len(data["Customers"])
        self.next_order = 10_000_000
        self.n = 0
        scan = Scan("Items", ITEM_SCHEMA)
        self._select = lambda item: Select(scan, Compare("=", col("Item"), lit(item)))

    def next(self) -> BatchOp:
        from repro.ivm.delta import Delta
        from repro.workload.transactions import Transaction

        rng = self.rng
        name = self.cycle[self.n % len(self.cycle)]
        self.n += 1
        if name == "new-orders":
            rows = [
                (
                    self.next_order + j,
                    rng.randrange(self.n_customers),
                    self.items[rng.randrange(len(self.items))][0],
                    rng.randint(1, 10),
                )
                for j in range(self.batch)
            ]
            self.next_order += self.batch
            self.orders.extend(rows)
            txn = Transaction(name, {"Orders": Delta.insertion(rows)})
            changed = len(rows)
        elif name == "cancel-orders":
            rows = []
            for index in sorted(rng.sample(range(len(self.orders)), self.batch), reverse=True):
                rows.append(self.orders[index])
                self.orders[index] = self.orders[-1]
                self.orders.pop()
            txn = Transaction(name, {"Orders": Delta.deletion(rows)})
            changed = len(rows)
        else:
            pairs = []
            for index in rng.sample(range(len(self.items)), self.reprice):
                old = self.items[index]
                new = (old[0], old[1] + 1, old[2])
                self.items[index] = new
                pairs.append((old, new))
            txn = Transaction(name, {"Items": Delta.modification(pairs)})
            changed = len(pairs)
        item = self.items[rng.randrange(len(self.items))]
        return BatchOp(txn, changed, self._select(item[0]), [item])

    def expected(self) -> dict[str, set[tuple]]:
        return {"Orders": set(self.orders), "Items": set(self.items)}

    def warm_reads(self) -> list:
        """One read per item: the compiled-plan cache is keyed by the
        query's literal, so with only 400 items reads turn from misses
        (≈ 0.35 ms) into hits (≈ 0.15 ms) while a window runs unless the
        cache is filled first. The steady state here is all hits."""
        return [self._select(item[0]) for item in self.items]
