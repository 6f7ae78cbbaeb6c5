"""Unit tests for the SQL parser."""

import pytest

from repro.sql import ast
from repro.sql.lexer import SQLSyntaxError
from repro.sql.parser import parse


class TestSelect:
    def test_simple(self):
        stmt = parse("SELECT DName FROM Dept")
        assert isinstance(stmt, ast.SelectStmt)
        assert stmt.tables == (ast.TableRef("Dept", None),)
        assert stmt.items[0].expr == ast.ColumnRef(None, "DName")

    def test_qualified_and_alias(self):
        stmt = parse("SELECT Dept.DName AS Name FROM Dept d")
        assert stmt.items[0].expr == ast.ColumnRef("Dept", "DName")
        assert stmt.items[0].alias == "Name"
        assert stmt.tables[0].alias == "d"

    def test_implicit_alias(self):
        stmt = parse("SELECT DName Name FROM Dept")
        assert stmt.items[0].alias == "Name"

    def test_star(self):
        stmt = parse("SELECT * FROM Dept")
        assert stmt.items[0].star

    def test_distinct(self):
        assert parse("SELECT DISTINCT DName FROM Emp").distinct

    def test_where_and_or_not(self):
        stmt = parse(
            "SELECT a FROM T WHERE a = 1 AND (b < 2 OR NOT c >= 3)"
        )
        assert isinstance(stmt.where, ast.BoolOp)
        assert stmt.where.op == "and"
        assert isinstance(stmt.where.right, ast.BoolOp)
        assert stmt.where.right.op == "or"
        assert isinstance(stmt.where.right.right, ast.NotOp)

    def test_group_by_both_spellings(self):
        a = parse("SELECT d, SUM(s) FROM T GROUP BY d")
        b = parse("SELECT d, SUM(s) FROM T GROUPBY d")
        assert a.group_by == b.group_by == (ast.ColumnRef(None, "d"),)

    def test_having(self):
        stmt = parse("SELECT d FROM T GROUP BY d HAVING SUM(s) > 5")
        assert isinstance(stmt.having, ast.Comparison)
        assert isinstance(stmt.having.left, ast.AggregateCall)

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * c FROM T")
        expr = stmt.items[0].expr
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_parenthesized_arithmetic(self):
        stmt = parse("SELECT (a + b) * c FROM T")
        expr = stmt.items[0].expr
        assert expr.op == "*"

    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM T")
        assert stmt.items[0].expr == ast.AggregateCall("count", None)

    def test_sum_star_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT SUM(*) FROM T")

    def test_string_literal(self):
        stmt = parse("SELECT a FROM T WHERE b = 'x'")
        assert stmt.where.right == ast.Literal("x")

    def test_multi_table(self):
        stmt = parse("SELECT a FROM T, U, V")
        assert len(stmt.tables) == 3

    def test_trailing_semicolon(self):
        assert isinstance(parse("SELECT a FROM T;"), ast.SelectStmt)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM T xyzzy qq")


class TestCreateView:
    def test_with_columns(self):
        stmt = parse("CREATE VIEW V (X, Y) AS SELECT a, b FROM T")
        assert isinstance(stmt, ast.CreateView)
        assert stmt.name == "V"
        assert stmt.columns == ("X", "Y")

    def test_without_columns(self):
        stmt = parse("CREATE VIEW V AS SELECT a FROM T")
        assert stmt.columns == ()

    def test_missing_as_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE VIEW V SELECT a FROM T")


class TestCreateAssertion:
    def test_paper_form(self):
        stmt = parse(
            "CREATE ASSERTION DeptConstraint CHECK "
            "(NOT EXISTS (SELECT DName FROM ProblemDept))"
        )
        assert isinstance(stmt, ast.CreateAssertion)
        assert stmt.name == "DeptConstraint"
        assert stmt.select.tables[0].name == "ProblemDept"

    def test_malformed_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE ASSERTION A CHECK (EXISTS (SELECT a FROM T))")

    def test_create_something_else_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE TABLE T (a int)")


class TestSignedLiterals:
    """A leading ``-`` on a numeric literal, wherever an expression starts
    (INSERT VALUES already accepted it; these raised SQLSyntaxError)."""

    def test_update_set_negative(self):
        stmt = parse("UPDATE Emp SET Salary = -1 WHERE EName = 'e1'")
        assert stmt.assignments[0].value == ast.Literal(-1)

    def test_negative_operand_after_operator(self):
        stmt = parse("UPDATE Emp SET Salary = Salary + -1 WHERE EName = 'e1'")
        assert stmt.assignments[0].value == ast.BinaryOp(
            "+", ast.ColumnRef(None, "Salary"), ast.Literal(-1)
        )

    def test_where_compares_with_negative(self):
        stmt = parse("SELECT * FROM Emp WHERE Salary > -5")
        assert stmt.where == ast.Comparison(
            ">", ast.ColumnRef(None, "Salary"), ast.Literal(-5)
        )

    def test_binary_minus_still_subtracts(self):
        stmt = parse("UPDATE Emp SET Salary = Salary -1")
        assert stmt.assignments[0].value == ast.BinaryOp(
            "-", ast.ColumnRef(None, "Salary"), ast.Literal(1)
        )
