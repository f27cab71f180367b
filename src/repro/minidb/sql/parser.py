"""Recursive-descent parser for the minidb SQL dialect.

The dialect is the subset of PostgreSQL used by the PTLDB paper's Codes 1-4
plus the DDL/DML needed to build the label tables: ``WITH`` CTEs, ``SELECT``
with ``UNNEST``/array slices, comma and explicit joins, ``GROUP BY`` /
``HAVING``, ``ORDER BY`` / ``LIMIT``, ``UNION [ALL]`` (operands may carry
their own ORDER BY/LIMIT when parenthesized, as in Code 3), window
``ROW_NUMBER() OVER (...)``, ``ARRAY_AGG(x ORDER BY ...)``, ``CREATE
TABLE``, ``INSERT ... VALUES | SELECT``, ``DELETE`` and ``DROP TABLE``.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.minidb.sql import ast
from repro.minidb.sql.diagnostics import caret_excerpt
from repro.minidb.sql.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    PARAM,
    STRING,
    Token,
    tokenize,
)

#: Binding power of the infix operators (see :meth:`Parser.parse_expr`);
#: ``NOT`` binds at 4 only in front of ``IN`` / ``BETWEEN``.
_INFIX_OPS = {
    **dict.fromkeys(("=", "<>", "!=", "<", "<=", ">", ">="), 4),
    **dict.fromkeys(("+", "-", "||"), 5),
    **dict.fromkeys(("*", "/", "%"), 6),
}
_INFIX_WORDS = {"OR": 1, "AND": 2, "IS": 4, "IN": 4, "BETWEEN": 4}


class Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        #: The current token, ``tokens[pos]``.
        self.tok = self.tokens[0]

    # -- token helpers ---------------------------------------------------
    def peek(self, ahead: int) -> Token:
        """The token *ahead* of the current one. The grammar looks ahead
        only past a token that is not EOF, so the index stays in range."""
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != EOF:
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def error(self, message: str, tok: Token | None = None) -> SQLSyntaxError:
        """A syntax error pointing at *tok* (default: the current token)
        with line:col position and a caret excerpt of the source line."""
        tok = tok or self.tok
        where = f" at line {tok.line}:{tok.col}"
        excerpt = caret_excerpt(self.sql, tok.pos, max(tok.end, tok.pos + 1))
        return SQLSyntaxError(f"{message}{where}\n{excerpt}")

    def _mark(self, node, start_tok: Token):
        """Attach a (start, end) source span covering *start_tok* up to the
        most recently consumed token. Spans are compare=False fields, so
        this never affects structural equality."""
        end = self.tokens[self.pos - 1].end if self.pos > 0 else start_tok.end
        object.__setattr__(node, "span", (start_tok.pos, max(end, start_tok.end)))
        return node

    def at_keyword(self, *words: str) -> bool:
        tok = self.tok
        return tok.kind == KEYWORD and tok.value in words

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word}, got {self.tok}")

    def at_op(self, *ops: str) -> bool:
        tok = self.tok
        return tok.kind == OP and tok.value in ops

    def accept_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.next()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}, got {self.tok}")

    def expect_ident(self) -> str:
        tok = self.tok
        if tok.kind != IDENT:
            raise self.error(f"expected identifier, got {tok}")
        self.next()
        return tok.value

    # -- statements --------------------------------------------------------
    def parse_statement(self):
        if self.accept_keyword("EXPLAIN"):
            analyze = self.accept_keyword("ANALYZE")
            inner = self.parse_statement()
            return ast.Explain(inner, analyze=bool(analyze))
        if self.at_keyword("SELECT", "WITH") or self.at_op("("):
            stmt = self.parse_query()
        elif self.at_keyword("CREATE"):
            stmt = self._create_table()
        elif self.at_keyword("DROP"):
            stmt = self._drop_table()
        elif self.at_keyword("INSERT"):
            stmt = self._insert()
        elif self.at_keyword("DELETE"):
            stmt = self._delete()
        elif self.at_keyword("UPDATE"):
            stmt = self._update()
        elif self.at_keyword("VACUUM"):
            self.next()
            stmt = ast.Vacuum(self.expect_ident())
        else:
            raise self.error(f"unexpected start of statement: {self.tok}")
        self.accept_op(";")
        if self.tok.kind != EOF:
            raise self.error(f"trailing input: {self.tok}")
        return stmt

    # -- queries -------------------------------------------------------
    def parse_query(self) -> ast.Query:
        ctes: list[tuple[str, ast.Query]] = []
        if self.accept_keyword("WITH"):
            while True:
                name = self.expect_ident()
                self.expect_keyword("AS")
                self.expect_op("(")
                ctes.append((name, self.parse_query()))
                self.expect_op(")")
                if not self.accept_op(","):
                    break
        query = self._set_expr()
        order_by, limit, offset = self._order_limit()
        if order_by or limit is not None or offset is not None:
            query = ast.Query(
                cores=query.cores,
                set_ops=query.set_ops,
                order_by=query.order_by or tuple(order_by),
                limit=query.limit if limit is None else limit,
                offset=query.offset if offset is None else offset,
                ctes=query.ctes,
            )
        if ctes:
            query = ast.Query(
                cores=query.cores,
                set_ops=query.set_ops,
                order_by=query.order_by,
                limit=query.limit,
                offset=query.offset,
                ctes=tuple(ctes) + query.ctes,
            )
        return query

    def _set_expr(self) -> ast.Query:
        cores: list[object] = [self._set_operand()]
        set_ops: list[str] = []
        while self.at_keyword("UNION"):
            self.next()
            op = "UNION ALL" if self.accept_keyword("ALL") else "UNION"
            set_ops.append(op)
            cores.append(self._set_operand())
        return ast.Query(cores=tuple(cores), set_ops=tuple(set_ops))

    def _set_operand(self):
        """A SELECT core, or a parenthesized query (with its own order/limit)."""
        if self.accept_op("("):
            inner = self.parse_query()
            self.expect_op(")")
            return inner
        return self._select_core()

    def _order_limit(self):
        order_by: list[ast.OrderItem] = []
        limit = offset = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self._order_items()
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expr()
        if self.accept_keyword("OFFSET"):
            offset = self.parse_expr()
        return order_by, limit, offset

    def _order_items(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self.parse_expr()
            descending = False
            if self.accept_keyword("DESC"):
                descending = True
            else:
                self.accept_keyword("ASC")
            if self.accept_keyword("NULLS"):
                # Accepted and ignored: minidb always sorts NULLS LAST.
                if not (self.accept_keyword("FIRST") or self.accept_keyword("LAST")):
                    raise self.error("expected FIRST or LAST after NULLS")
            item = ast.OrderItem(expr, descending)
            if getattr(expr, "span", None) is not None:
                object.__setattr__(item, "span", expr.span)
            items.append(item)
            if not self.accept_op(","):
                break
        return items

    def _select_core(self) -> ast.SelectCore:
        start = self.tok
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        elif self.accept_keyword("ALL"):
            pass
        items = [self._select_item()]
        while self.accept_op(","):
            items.append(self._select_item())
        from_items: list[object] = []
        where = having = None
        group_by: list[ast.Expr] = []
        if self.accept_keyword("FROM"):
            from_items.append(self._from_item_with_joins())
            while self.accept_op(","):
                from_items.append(self._from_item_with_joins())
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        return self._mark(
            ast.SelectCore(
                items=tuple(items),
                from_items=tuple(from_items),
                where=where,
                group_by=tuple(group_by),
                having=having,
                distinct=distinct,
            ),
            start,
        )

    def _select_item(self) -> ast.SelectItem:
        start = self.tok
        if self.at_op("*"):
            self.next()
            return self._mark(
                ast.SelectItem(self._mark(ast.Star(None), start)), start
            )
        # alias.* form
        if (
            self.tok.kind == IDENT
            and self.peek(1).kind == OP
            and self.peek(1).value == "."
            and self.peek(2).kind == OP
            and self.peek(2).value == "*"
        ):
            table = self.expect_ident()
            self.next()  # .
            self.next()  # *
            return self._mark(
                ast.SelectItem(self._mark(ast.Star(table), start)), start
            )
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.tok.kind == IDENT:
            alias = self.expect_ident()
        return self._mark(ast.SelectItem(expr, alias), start)

    # -- FROM ------------------------------------------------------------
    def _from_item_with_joins(self):
        item = self._from_item()
        while True:
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self._from_item()
                item = ast.Join(item, right, None)
                continue
            explicit = False
            if self.accept_keyword("INNER"):
                explicit = True
            elif self.accept_keyword("LEFT"):
                raise self.error("LEFT JOIN is not supported by minidb")
            if self.at_keyword("JOIN"):
                self.next()
                right = self._from_item()
                condition = None
                if self.accept_keyword("ON"):
                    condition = self.parse_expr()
                elif explicit:
                    raise self.error("INNER JOIN requires ON")
                item = ast.Join(item, right, condition)
                continue
            break
        return item

    def _from_item(self):
        start = self.tok
        if self.accept_op("("):
            query = self.parse_query()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias = self.expect_ident()
            return self._mark(ast.SubqueryRef(query, alias), start)
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.tok.kind == IDENT:
            alias = self.expect_ident()
        return self._mark(ast.TableRef(name, alias), start)

    # -- expressions -------------------------------------------------------
    def parse_expr(self, power: int = 1) -> ast.Expr:
        """An expression whose infix operators bind at least as tightly as
        *power* (precedence climbing; every level is left-associative):
        1 ``OR``, 2 ``AND``, 3 prefix ``NOT``, 4 comparisons, ``IS [NOT]
        NULL``, ``[NOT] IN``, ``[NOT] BETWEEN``, 5 ``+ - ||``, 6 ``* / %``.
        Once an operator applied, none that binds tighter may follow (``a
        IS NULL % 2`` is an error). Each node's span starts at the
        expression's first token."""
        start = self.tok
        ceiling = 6
        if power <= 3 and start.kind == KEYWORD and start.value == "NOT":
            self.next()
            left = self._mark(ast.UnaryOp("NOT", self.parse_expr(3)), start)
            ceiling = 3
        else:
            left = self._unary()
        while True:
            tok = self.tok
            if tok.kind == OP:
                bp = _INFIX_OPS.get(tok.value)
            elif tok.kind == KEYWORD:
                bp = _INFIX_WORDS.get(tok.value)
                if bp is None and tok.value == "NOT" and (
                    self.peek(1).value in ("IN", "BETWEEN")
                ):
                    bp = 4
            else:
                return left
            if bp is None or not power <= bp <= ceiling:
                return left
            ceiling = bp
            if bp == 4:
                left = self._mark(self._predicate(left, start), start)
                continue
            op = self.next().value
            right = self._unary() if bp == 6 else self.parse_expr(bp + 1)
            left = self._mark(ast.BinaryOp(op, left, right), start)

    def _predicate(self, left: ast.Expr, start: Token) -> ast.Expr:
        """The comparison-level operator at the current token, applied to
        *left* (the caller marks the result's span)."""
        tok = self.next()
        if tok.kind == OP:
            op = "<>" if tok.value == "!=" else tok.value
            return ast.BinaryOp(op, left, self.parse_expr(5))
        if tok.value == "IS":
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = tok.value == "NOT"
        if negated:
            tok = self.next()
        if tok.value == "IN":
            self.expect_op("(")
            items = [self.parse_expr()]
            while self.accept_op(","):
                items.append(self.parse_expr())
            self.expect_op(")")
            return ast.InList(left, tuple(items), negated)
        low = self.parse_expr(5)
        self.expect_keyword("AND")
        high = self.parse_expr(5)
        between = self._mark(
            ast.BinaryOp(
                "AND", ast.BinaryOp(">=", left, low), ast.BinaryOp("<=", left, high)
            ),
            start,
        )
        return ast.UnaryOp("NOT", between) if negated else between

    def _unary(self) -> ast.Expr:
        start = self.tok
        if self.accept_op("-"):
            return self._mark(ast.UnaryOp("-", self._unary()), start)
        if self.accept_op("+"):
            return self._unary()
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        start = self.tok
        expr = self._primary()
        while self.at_op("["):
            self.next()
            low: ast.Expr | None = None
            high: ast.Expr | None = None
            if not self.at_op(":"):
                low = self.parse_expr()
            if self.accept_op(":"):
                if not self.at_op("]"):
                    high = self.parse_expr()
                self.expect_op("]")
                expr = self._mark(ast.ArraySlice(expr, low, high), start)
            else:
                self.expect_op("]")
                if low is None:
                    raise self.error("empty array subscript")
                expr = self._mark(ast.ArrayIndex(expr, low), start)
        return expr

    def _primary(self) -> ast.Expr:
        tok = self.tok
        if tok.kind == NUMBER:
            self.next()
            return self._mark(ast.Literal(tok.value), tok)
        if tok.kind == STRING:
            self.next()
            return self._mark(ast.Literal(tok.value), tok)
        if tok.kind == PARAM:
            self.next()
            return self._mark(ast.Param(tok.value), tok)
        if self.accept_keyword("NULL"):
            return self._mark(ast.Literal(None), tok)
        if self.accept_keyword("TRUE"):
            return self._mark(ast.Literal(True), tok)
        if self.accept_keyword("FALSE"):
            return self._mark(ast.Literal(False), tok)
        if self.at_keyword("CASE"):
            return self._mark(self._case(), tok)
        if self.at_keyword("ARRAY"):
            self.next()
            self.expect_op("[")
            items: list[ast.Expr] = []
            if not self.at_op("]"):
                items.append(self.parse_expr())
                while self.accept_op(","):
                    items.append(self.parse_expr())
            self.expect_op("]")
            return self._mark(ast.ArrayLiteral(tuple(items)), tok)
        if self.accept_op("("):
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if tok.kind == IDENT:
            # function call?
            if self.peek(1).kind == OP and self.peek(1).value == "(":
                return self._mark(self._func_call(), tok)
            name = self.expect_ident()
            if self.accept_op("."):
                return self._mark(
                    ast.ColumnRef(name, self.expect_ident()), tok
                )
            return self._mark(ast.ColumnRef(None, name), tok)
        raise self.error(f"unexpected token in expression: {tok}", tok)

    def _func_call(self) -> ast.Expr:
        name = self.expect_ident()
        self.expect_op("(")
        distinct = False
        star = False
        args: list[ast.Expr] = []
        agg_order: list[ast.OrderItem] = []
        if self.at_op("*"):
            self.next()
            star = True
        elif not self.at_op(")"):
            if self.accept_keyword("DISTINCT"):
                distinct = True
            args.append(self.parse_expr())
            while self.accept_op(","):
                args.append(self.parse_expr())
            if self.accept_keyword("ORDER"):
                self.expect_keyword("BY")
                agg_order = self._order_items()
        self.expect_op(")")
        if self.accept_keyword("OVER"):
            self.expect_op("(")
            partition: list[ast.Expr] = []
            order: list[ast.OrderItem] = []
            if self.accept_keyword("PARTITION"):
                self.expect_keyword("BY")
                partition.append(self.parse_expr())
                while self.accept_op(","):
                    partition.append(self.parse_expr())
            if self.accept_keyword("ORDER"):
                self.expect_keyword("BY")
                order = self._order_items()
            self.expect_op(")")
            return ast.WindowFunc(name, tuple(partition), tuple(order))
        return ast.FuncCall(
            name,
            tuple(args),
            distinct=distinct,
            star=star,
            agg_order_by=tuple(agg_order),
        )

    def _case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        default = None
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((cond, result))
        if self.accept_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        return ast.CaseExpr(tuple(whens), default)

    # -- DDL / DML -----------------------------------------------------
    def _create_table(self) -> ast.CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident()
        self.expect_op("(")
        columns: list[ast.ColumnDef] = []
        pk: tuple[str, ...] = ()
        while True:
            if self.at_keyword("PRIMARY"):
                self.next()
                self.expect_keyword("KEY")
                self.expect_op("(")
                parts = [self.expect_ident()]
                while self.accept_op(","):
                    parts.append(self.expect_ident())
                self.expect_op(")")
                pk = tuple(parts)
            else:
                col_name = self.expect_ident()
                type_name = self._type_name()
                col_pk = False
                if self.accept_keyword("PRIMARY"):
                    self.expect_keyword("KEY")
                    col_pk = True
                columns.append(ast.ColumnDef(col_name, type_name, col_pk))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        if not pk:
            inline = tuple(c.name for c in columns if c.primary_key)
            pk = inline
        return ast.CreateTable(name, tuple(columns), pk, if_not_exists)

    def _type_name(self) -> str:
        tok = self.tok
        if tok.kind not in (IDENT, KEYWORD):
            raise SQLSyntaxError(f"expected type name, got {tok}")
        self.next()
        name = str(tok.value)
        # multi-word types: DOUBLE PRECISION
        if name.lower() == "double" and (
            self.tok.kind == IDENT and self.tok.value == "precision"
        ):
            self.next()
            name = "double precision"
        while self.at_op("["):
            self.next()
            self.expect_op("]")
            name += "[]"
        return name

    def _drop_table(self) -> ast.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return ast.DropTable(self.expect_ident(), if_exists)

    def _insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: tuple[str, ...] = ()
        if self.at_op("("):
            self.next()
            cols = [self.expect_ident()]
            while self.accept_op(","):
                cols.append(self.expect_ident())
            self.expect_op(")")
            columns = tuple(cols)
        if self.accept_keyword("VALUES"):
            rows = []
            while True:
                self.expect_op("(")
                row = [self.parse_expr()]
                while self.accept_op(","):
                    row.append(self.parse_expr())
                self.expect_op(")")
                rows.append(tuple(row))
                if not self.accept_op(","):
                    break
            return ast.Insert(table, columns, rows=tuple(rows))
        select = self.parse_query()
        return ast.Insert(table, columns, select=select)

    def _update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.expect_ident()
            self.expect_op("=")
            assignments.append((column, self.parse_expr()))
            if not self.accept_op(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Update(table, tuple(assignments), where)

    def _delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Delete(table, where)


def parse(sql: str):
    """Parse one SQL statement, returning its AST."""
    return Parser(sql).parse_statement()
