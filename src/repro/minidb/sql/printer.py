"""AST -> SQL text rendering.

Used for debugging/EXPLAIN-style introspection and, importantly, for the
parser round-trip property test: ``parse(render(parse(sql)))`` must yield
the original AST, which pins down both the parser and this printer.
"""

from __future__ import annotations

from repro.errors import SQLError
from repro.minidb.sql import ast

_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "||": 5,
    "*": 6, "/": 6, "%": 6,
}


def render_expr(expr: ast.Expr, parent_precedence: int = 0) -> str:
    if isinstance(expr, ast.Literal):
        value = expr.value
        if value is None:
            return "NULL"
        if value is True:
            return "TRUE"
        if value is False:
            return "FALSE"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return repr(value)
    if isinstance(expr, ast.Param):
        return f"${expr.index}"
    if isinstance(expr, ast.ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, ast.BoundRef):
        return f"{expr.source}.{expr.column}" if expr.qualified else expr.column
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.BinaryOp):
        precedence = _PRECEDENCE[expr.op]
        left = render_expr(expr.left, precedence)
        right = render_expr(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if precedence < parent_precedence else text
    if isinstance(expr, ast.UnaryOp):
        operand = render_expr(expr.operand, 7)
        return f"NOT {operand}" if expr.op == "NOT" else f"-{operand}"
    if isinstance(expr, ast.IsNull):
        base = render_expr(expr.operand, 4)
        return f"{base} IS {'NOT ' if expr.negated else ''}NULL"
    if isinstance(expr, ast.InList):
        base = render_expr(expr.operand, 4)
        items = ", ".join(render_expr(i) for i in expr.items)
        return f"{base} {'NOT ' if expr.negated else ''}IN ({items})"
    if isinstance(expr, ast.FuncCall):
        if expr.star:
            inner = "*"
        else:
            inner = ", ".join(render_expr(a) for a in expr.args)
            if expr.distinct:
                inner = f"DISTINCT {inner}"
            if expr.agg_order_by:
                inner += " ORDER BY " + _render_order(expr.agg_order_by)
        return f"{expr.name.upper()}({inner})"
    if isinstance(expr, ast.WindowFunc):
        over = []
        if expr.partition_by:
            over.append(
                "PARTITION BY " + ", ".join(render_expr(e) for e in expr.partition_by)
            )
        if expr.order_by:
            over.append("ORDER BY " + _render_order(expr.order_by))
        return f"{expr.name.upper()}() OVER ({' '.join(over)})"
    if isinstance(expr, ast.ArraySlice):
        low = render_expr(expr.low) if expr.low is not None else ""
        high = render_expr(expr.high) if expr.high is not None else ""
        return f"{render_expr(expr.base, 7)}[{low}:{high}]"
    if isinstance(expr, ast.ArrayIndex):
        return f"{render_expr(expr.base, 7)}[{render_expr(expr.index)}]"
    if isinstance(expr, ast.ArrayLiteral):
        return "ARRAY[" + ", ".join(render_expr(i) for i in expr.items) + "]"
    if isinstance(expr, ast.CaseExpr):
        parts = ["CASE"]
        for cond, result in expr.whens:
            parts.append(f"WHEN {render_expr(cond)} THEN {render_expr(result)}")
        if expr.default is not None:
            parts.append(f"ELSE {render_expr(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    raise SQLError(f"cannot render {type(expr).__name__}")


def _render_order(items) -> str:
    return ", ".join(
        render_expr(item.expr) + (" DESC" if item.descending else "")
        for item in items
    )


def _render_from(item) -> str:
    if isinstance(item, ast.TableRef):
        return f"{item.name} {item.alias}" if item.alias else item.name
    if isinstance(item, ast.SubqueryRef):
        return f"({render_query(item.query)}) {item.alias}"
    if isinstance(item, ast.Join):
        left = _render_from(item.left)
        right = _render_from(item.right)
        if item.condition is None:
            return f"{left} CROSS JOIN {right}"
        return f"{left} JOIN {right} ON {render_expr(item.condition)}"
    raise SQLError(f"cannot render FROM item {type(item).__name__}")


def _render_core(core: ast.SelectCore) -> str:
    parts = ["SELECT"]
    if core.distinct:
        parts.append("DISTINCT")
    items = []
    for item in core.items:
        text = render_expr(item.expr)
        if item.alias and not (
            isinstance(item.expr, ast.Star)
        ):
            text += f" AS {item.alias}"
        items.append(text)
    parts.append(", ".join(items))
    if core.from_items:
        parts.append("FROM " + ", ".join(_render_from(i) for i in core.from_items))
    if core.where is not None:
        parts.append("WHERE " + render_expr(core.where))
    if core.group_by:
        parts.append("GROUP BY " + ", ".join(render_expr(e) for e in core.group_by))
    if core.having is not None:
        parts.append("HAVING " + render_expr(core.having))
    return " ".join(parts)


def render_query(query: ast.Query) -> str:
    parts = []
    if query.ctes:
        ctes = ", ".join(
            f"{name} AS ({render_query(sub)})" for name, sub in query.ctes
        )
        parts.append(f"WITH {ctes}")
    pieces = []
    for core in query.cores:
        if isinstance(core, ast.Query):
            pieces.append(f"({render_query(core)})")
        else:
            pieces.append(_render_core(core))
    body = pieces[0]
    for op, piece in zip(query.set_ops, pieces[1:]):
        body += f" {op} {piece}"
    parts.append(body)
    if query.order_by:
        parts.append("ORDER BY " + _render_order(query.order_by))
    if query.limit is not None:
        parts.append("LIMIT " + render_expr(query.limit))
    if query.offset is not None:
        parts.append("OFFSET " + render_expr(query.offset))
    return " ".join(parts)


def render(stmt) -> str:
    """Render any parsed statement back to SQL text."""
    if isinstance(stmt, ast.Query):
        return render_query(stmt)
    if isinstance(stmt, ast.Explain):
        analyze = "ANALYZE " if stmt.analyze else ""
        return f"EXPLAIN {analyze}" + render(stmt.statement)
    if isinstance(stmt, ast.CreateTable):
        columns = ", ".join(f"{c.name} {c.type_name}" for c in stmt.columns)
        pk = ""
        if stmt.primary_key:
            pk = ", PRIMARY KEY (" + ", ".join(stmt.primary_key) + ")"
        ine = "IF NOT EXISTS " if stmt.if_not_exists else ""
        return f"CREATE TABLE {ine}{stmt.name} ({columns}{pk})"
    if isinstance(stmt, ast.DropTable):
        ie = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP TABLE {ie}{stmt.name}"
    if isinstance(stmt, ast.Insert):
        columns = f" ({', '.join(stmt.columns)})" if stmt.columns else ""
        if stmt.select is not None:
            return f"INSERT INTO {stmt.table}{columns} {render_query(stmt.select)}"
        rows = ", ".join(
            "(" + ", ".join(render_expr(v) for v in row) + ")" for row in stmt.rows
        )
        return f"INSERT INTO {stmt.table}{columns} VALUES {rows}"
    if isinstance(stmt, ast.Update):
        sets = ", ".join(
            f"{col} = {render_expr(expr)}" for col, expr in stmt.assignments
        )
        where = f" WHERE {render_expr(stmt.where)}" if stmt.where is not None else ""
        return f"UPDATE {stmt.table} SET {sets}{where}"
    if isinstance(stmt, ast.Delete):
        where = f" WHERE {render_expr(stmt.where)}" if stmt.where is not None else ""
        return f"DELETE FROM {stmt.table}{where}"
    if isinstance(stmt, ast.Vacuum):
        return f"VACUUM {stmt.table}"
    raise SQLError(f"cannot render {type(stmt).__name__}")
