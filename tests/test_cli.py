"""Tests for the command-line advisor and the report renderer."""

import pytest

from repro.cli import WorkloadParseError, advise, main, parse_workload

WORKLOAD = """
# paper setting
table Emp rows=10000 columns=EName:string:10000,DName:string:1000,Salary:int:40 key=EName
table Dept rows=1000 columns=DName:string:1000,MName:string:1000,Budget:int:200 key=DName
txn >Emp weight=1 modify=Emp:1:Salary
txn >Dept weight=1 modify=Dept:1:Budget
"""

DDL = """
CREATE VIEW ProblemDept (DName) AS
SELECT Dept.DName FROM Emp, Dept
WHERE Dept.DName = Emp.DName
GROUPBY Dept.DName, Budget
HAVING SUM(Salary) > Budget
"""


class TestParseWorkload:
    def test_tables(self):
        schemas, catalog, txns = parse_workload(WORKLOAD)
        assert set(schemas) == {"Emp", "Dept"}
        assert schemas["Emp"].has_key(["EName"])
        assert catalog.get("Emp").rows == 10000
        assert catalog.get("Emp").distinct["DName"] == 1000

    def test_txns(self):
        _, _, txns = parse_workload(WORKLOAD)
        assert [t.name for t in txns] == [">Emp", ">Dept"]
        assert txns[0].spec("Emp").modified_columns == {"Salary"}

    def test_insert_delete_directives(self):
        text = (
            "table T rows=10 columns=a:int:10 key=a\n"
            "txn load weight=3 insert=T:5 delete=T:2\n"
        )
        _, _, txns = parse_workload(text)
        spec = txns[0].spec("T")
        assert (spec.inserts, spec.deletes) == (5, 2)
        assert txns[0].weight == 3

    def test_comments_and_blanks_ignored(self):
        text = "# hi\n\ntable T rows=1 columns=a:int:1\ntxn t insert=T:1\n"
        schemas, _, _ = parse_workload(text)
        assert "T" in schemas

    def test_modify_without_columns_rejected(self):
        text = "table T rows=1 columns=a:int:1\ntxn t modify=T:1\n"
        with pytest.raises(WorkloadParseError):
            parse_workload(text)

    def test_unknown_directive_rejected(self):
        with pytest.raises(WorkloadParseError):
            parse_workload("index T a\n")

    def test_no_tables_rejected(self):
        with pytest.raises(WorkloadParseError):
            parse_workload("txn t insert=T:1\n")

    def test_no_txns_rejected(self):
        with pytest.raises(WorkloadParseError):
            parse_workload("table T rows=1 columns=a:int:1\n")


class TestAdvise:
    def test_reproduces_paper_answer(self):
        report = advise(DDL, WORKLOAD)
        assert "weighted 3.50" in report
        assert "auxiliary" in report
        assert "sum_salary" in report
        assert "recommended hash index on (DName)" in report

    def test_greedy_mode(self):
        report = advise(DDL, WORKLOAD, exhaustive=False)
        assert "weighted 3.50" in report

    def test_assertion_input(self):
        ddl = (
            "CREATE ASSERTION A CHECK (NOT EXISTS ("
            "SELECT Dept.DName FROM Emp, Dept WHERE Dept.DName = Emp.DName "
            "GROUPBY Dept.DName, Budget HAVING SUM(Salary) > Budget))"
        )
        report = advise(ddl, WORKLOAD)
        assert "(assertion)" in report


class TestMain:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "weighted 3.50" in out
        assert "Per-transaction maintenance plans" in out

    def test_advise_files(self, tmp_path, capsys):
        view_file = tmp_path / "view.sql"
        view_file.write_text(DDL)
        workload_file = tmp_path / "workload.txt"
        workload_file.write_text(WORKLOAD)
        assert main(["advise", str(view_file), str(workload_file)]) == 0
        assert "weighted 3.50" in capsys.readouterr().out

    def test_advise_bad_workload(self, tmp_path, capsys):
        view_file = tmp_path / "view.sql"
        view_file.write_text(DDL)
        workload_file = tmp_path / "workload.txt"
        workload_file.write_text("garbage directive\n")
        assert main(["advise", str(view_file), str(workload_file)]) == 2
        assert "error" in capsys.readouterr().err


class TestPlanSaving:
    def test_advise_save(self, tmp_path):
        import json

        path = tmp_path / "plan.json"
        advise(DDL, WORKLOAD, save_path=str(path))
        payload = json.loads(path.read_text())
        assert payload["weighted_cost"] == 3.5

    def test_cli_save_flag(self, tmp_path, capsys):
        view_file = tmp_path / "view.sql"
        view_file.write_text(DDL)
        workload_file = tmp_path / "workload.txt"
        workload_file.write_text(WORKLOAD)
        plan_file = tmp_path / "plan.json"
        assert (
            main(
                ["advise", str(view_file), str(workload_file), "--save", str(plan_file)]
            )
            == 0
        )
        assert plan_file.exists()


class TestRunStream:
    def test_unknown_policy_fails_fast(self):
        from repro.cli import POLICIES, run_stream

        with pytest.raises(ValueError) as exc:
            run_stream(policy="bogus", n_txns=1)
        message = str(exc.value)
        # Mirrors set_default_backend's error style: name the bad value
        # and list every valid one.
        assert "'bogus'" in message
        for name in POLICIES:
            assert name in message

    def test_unknown_policy_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--policy", "bogus"])
        assert exc.value.code == 2
        assert "--policy" in capsys.readouterr().err

    def test_clients_run_reports_batches(self):
        from repro.cli import run_stream

        out = run_stream(policy="immediate", n_txns=24, n_depts=8, clients=4)
        assert "clients: 4 (max_batch 32" in out
        assert "24 submitted, 24 committed" in out
        assert "group-commit batches" in out

    def test_clients_flag_via_argparse(self, capsys):
        assert main(["run", "--n-txns", "8", "--clients", "2"]) == 0
        assert "clients: 2" in capsys.readouterr().out
