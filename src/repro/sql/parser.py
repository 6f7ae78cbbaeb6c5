"""Recursive-descent parser for the SQL subset."""

from __future__ import annotations

from repro.sql import ast
from repro.sql.lexer import SQLSyntaxError, Token, tokenize

_AGG_FUNCS = {"SUM", "COUNT", "MIN", "MAX", "AVG"}
_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}


class Parser:
    """One-token-lookahead parser over the token list."""

    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._pos = 0

    # -- plumbing ------------------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        return token

    def _check(self, kind: str, value: str | None = None) -> bool:
        token = self._current
        return token.kind == kind and (value is None or token.value == value)

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._accept(kind, value)
        if token is None:
            want = value or kind
            raise SQLSyntaxError(
                f"expected {want!r}, found {self._current} at position "
                f"{self._current.position}"
            )
        return token

    # -- entry points ------------------------------------------------------------------

    def parse_statement(
        self,
    ) -> (
        ast.CreateView
        | ast.CreateAssertion
        | ast.SelectStmt
        | ast.InsertStmt
        | ast.DeleteStmt
        | ast.UpdateStmt
    ):
        if self._check("keyword", "CREATE"):
            self._advance()
            if self._accept("keyword", "VIEW"):
                stmt: object = self._create_view()
            elif self._accept("keyword", "ASSERTION"):
                stmt = self._create_assertion()
            else:
                raise SQLSyntaxError(f"expected VIEW or ASSERTION, found {self._current}")
        elif self._check("keyword", "INSERT"):
            stmt = self._insert()
        elif self._check("keyword", "DELETE"):
            stmt = self._delete()
        elif self._check("keyword", "UPDATE"):
            stmt = self._update()
        else:
            stmt = self._select()
        self._accept("symbol", ";")
        self._expect("eof")
        return stmt

    # -- DML ----------------------------------------------------------------------------

    def _insert(self) -> ast.InsertStmt:
        self._expect("keyword", "INSERT")
        self._expect("keyword", "INTO")
        table = self._expect("ident").value
        self._expect("keyword", "VALUES")
        rows = [self._value_row()]
        while self._accept("symbol", ","):
            rows.append(self._value_row())
        return ast.InsertStmt(table, tuple(rows))

    def _value_row(self) -> tuple:
        self._expect("symbol", "(")
        values = [self._literal_value()]
        while self._accept("symbol", ","):
            values.append(self._literal_value())
        self._expect("symbol", ")")
        return tuple(values)

    def _literal_value(self):
        value = self._number()
        if value is not None:
            return value
        if self._check("string"):
            return self._advance().value
        raise SQLSyntaxError(f"expected a literal, found {self._current}")

    def _number(self) -> int | float | None:
        """A numeric literal with an optional leading ``-``, consumed; or
        ``None``, consuming nothing, when the next tokens are not one. A
        ``-`` after an operand never reaches here — the additive loop takes
        it as subtraction first."""
        signed = self._check("symbol", "-")
        token = self._tokens[self._pos + signed]
        if token.kind != "number":
            return None
        self._pos += signed + 1
        value = float(token.value) if "." in token.value else int(token.value)
        return -value if signed else value

    def _delete(self) -> ast.DeleteStmt:
        self._expect("keyword", "DELETE")
        self._expect("keyword", "FROM")
        table = self._expect("ident").value
        where = None
        if self._accept("keyword", "WHERE"):
            where = self._condition()
        return ast.DeleteStmt(table, where)

    def _update(self) -> ast.UpdateStmt:
        self._expect("keyword", "UPDATE")
        table = self._expect("ident").value
        self._expect("keyword", "SET")
        assignments = [self._assignment()]
        while self._accept("symbol", ","):
            assignments.append(self._assignment())
        where = None
        if self._accept("keyword", "WHERE"):
            where = self._condition()
        return ast.UpdateStmt(table, tuple(assignments), where)

    def _assignment(self) -> ast.Assignment:
        column = self._expect("ident").value
        self._expect("symbol", "=")
        return ast.Assignment(column, self._scalar())

    def _create_view(self) -> ast.CreateView:
        name = self._expect("ident").value
        columns: tuple[str, ...] = ()
        if self._accept("symbol", "("):
            cols = [self._expect("ident").value]
            while self._accept("symbol", ","):
                cols.append(self._expect("ident").value)
            self._expect("symbol", ")")
            columns = tuple(cols)
        self._expect("keyword", "AS")
        return ast.CreateView(name, columns, self._select())

    def _create_assertion(self) -> ast.CreateAssertion:
        name = self._expect("ident").value
        self._expect("keyword", "CHECK")
        self._expect("symbol", "(")
        self._expect("keyword", "NOT")
        self._expect("keyword", "EXISTS")
        self._expect("symbol", "(")
        select = self._select()
        self._expect("symbol", ")")
        self._expect("symbol", ")")
        return ast.CreateAssertion(name, select)

    # -- SELECT ---------------------------------------------------------------------------

    def _select(self) -> ast.SelectStmt:
        self._expect("keyword", "SELECT")
        distinct = self._accept("keyword", "DISTINCT") is not None
        items = [self._select_item()]
        while self._accept("symbol", ","):
            items.append(self._select_item())
        self._expect("keyword", "FROM")
        tables = [self._table_ref()]
        while self._accept("symbol", ","):
            tables.append(self._table_ref())
        where = None
        if self._accept("keyword", "WHERE"):
            where = self._condition()
        group_by: tuple[ast.ColumnRef, ...] = ()
        if self._accept("keyword", "GROUPBY") or (
            self._accept("keyword", "GROUP") and self._expect("keyword", "BY")
        ):
            cols = [self._column_ref()]
            while self._accept("symbol", ","):
                cols.append(self._column_ref())
            group_by = tuple(cols)
        having = None
        if self._accept("keyword", "HAVING"):
            having = self._condition()
        return ast.SelectStmt(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _select_item(self) -> ast.SelectItem:
        if self._check("symbol", "*"):
            self._advance()
            return ast.SelectItem(ast.Literal(None), star=True)
        expr = self._scalar()
        alias = None
        if self._accept("keyword", "AS"):
            alias = self._expect("ident").value
        elif self._check("ident"):
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _table_ref(self) -> ast.TableRef:
        name = self._expect("ident").value
        alias = None
        if self._check("ident"):
            alias = self._advance().value
        return ast.TableRef(name, alias)

    def _column_ref(self) -> ast.ColumnRef:
        first = self._expect("ident").value
        if self._accept("symbol", "."):
            second = self._expect("ident").value
            return ast.ColumnRef(first, second)
        return ast.ColumnRef(None, first)

    # -- conditions ------------------------------------------------------------------------

    def _condition(self) -> ast.Condition:
        return self._or_condition()

    def _or_condition(self) -> ast.Condition:
        left = self._and_condition()
        while self._accept("keyword", "OR"):
            left = ast.BoolOp("or", left, self._and_condition())
        return left

    def _and_condition(self) -> ast.Condition:
        left = self._not_condition()
        while self._accept("keyword", "AND"):
            left = ast.BoolOp("and", left, self._not_condition())
        return left

    def _not_condition(self) -> ast.Condition:
        if self._accept("keyword", "NOT"):
            return ast.NotOp(self._not_condition())
        if self._check("symbol", "("):
            # Could be a parenthesized condition; try it, falling back to a
            # comparison whose left side is parenthesized arithmetic.
            saved = self._pos
            self._advance()
            try:
                inner = self._condition()
                self._expect("symbol", ")")
                return inner
            except SQLSyntaxError:
                self._pos = saved
        return self._comparison()

    def _comparison(self) -> ast.Comparison:
        left = self._scalar()
        token = self._current
        if token.kind == "symbol" and token.value in _CMP_OPS:
            self._advance()
            right = self._scalar()
            return ast.Comparison(token.value, left, right)
        raise SQLSyntaxError(f"expected comparison operator, found {token}")

    # -- scalar expressions -----------------------------------------------------------------

    def _scalar(self) -> ast.ScalarExpr:
        return self._additive()

    def _additive(self) -> ast.ScalarExpr:
        left = self._multiplicative()
        while self._current.kind == "symbol" and self._current.value in ("+", "-"):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> ast.ScalarExpr:
        left = self._primary()
        while self._current.kind == "symbol" and self._current.value in ("*", "/"):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._primary())
        return left

    def _primary(self) -> ast.ScalarExpr:
        value = self._number()
        if value is not None:
            return ast.Literal(value)
        token = self._current
        if token.kind == "string":
            self._advance()
            return ast.Literal(token.value)
        if token.kind == "keyword" and token.value in _AGG_FUNCS:
            func = self._advance().value.lower()
            self._expect("symbol", "(")
            if self._accept("symbol", "*"):
                if func != "count":
                    raise SQLSyntaxError(f"{func.upper()}(*) is not valid")
                arg = None
            else:
                arg = self._scalar()
            self._expect("symbol", ")")
            return ast.AggregateCall(func, arg)
        if token.kind == "ident":
            return self._column_ref()
        if self._accept("symbol", "("):
            inner = self._scalar()
            self._expect("symbol", ")")
            return inner
        raise SQLSyntaxError(f"unexpected token {token} in expression")


def parse(text: str):
    """Parse one SQL statement (DDL, query, or DML)."""
    return Parser(text).parse_statement()
