"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` trees.

Grammar (informal)::

    statement   := select | insert | update | delete | create_table
                 | drop_table | create_view | drop_view | create_index
                 | drop_index | begin | commit | rollback
                 | EXPLAIN statement
    select      := select_core (UNION [ALL] select_core)*
                   [ORDER BY ...] [LIMIT ... [OFFSET ...]]
    expression  := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive [comparison | IS | IN | LIKE | BETWEEN]
    additive    := multiplicative ((+|-|'||') multiplicative)*
    multiplicative := unary ((*|/|%) unary)*
    unary       := (-|+) unary | primary

A *shaped* parser (the engine's) makes each number and string literal
an :class:`~repro.sql.ast.Slot`, so one plan serves every text of a
shape, but *pins* those the planner reads: a bare select item (it names
its column), an ORDER BY or GROUP BY item, type lengths and all of DDL
and EXPLAIN.  Pinned literals stay part of the statement's cache key.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import kind_of, tokenize
from repro.sql.tokens import Token, TokenType

_COMPARISON_OPS = {"=", "<>", "!=", "<", ">", "<=", ">="}
_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_LITERALS = (TokenType.INTEGER, TokenType.REAL, TokenType.STRING)
_WORDS = {"NULL": None, "TRUE": True, "FALSE": False}
_STATEMENTS = {"SELECT": "_select_statement", "INSERT": "_insert",
               "UPDATE": "_update", "DELETE": "_delete", "CREATE": "_create",
               "ALTER": "_alter", "DROP": "_drop"}
_CONTROL = {"BEGIN": ast.BeginTransaction, "COMMIT": ast.Commit,
            "ROLLBACK": ast.Rollback}
#: Statements whose literals all stay literals.
_UNSHAPED = {"EXPLAIN", "CREATE", "ALTER", "DROP", *_CONTROL}
#: How deep expressions, SELECT blocks, parenthesised FROM items and
#: EXPLAINs may nest: it bounds this parser's recursion and the nesting
#: of generated code.  An AND, OR or arithmetic chain does not nest.
MAX_DEPTH = 32


class Parser:
    """Parses one or more SQL statements from a token stream."""

    def __init__(self, text: str, shaped: bool = False):
        tokens = self._tokens = tokenize(text)
        tokens += tokens[-1:] * 2  # lookahead never runs off the end
        self._pos = 0
        self._param_count = 0
        self._depth = 0
        self._shaped = shaped
        #: The value of every literal read, in text order.
        self.literals: list = []
        self._slots: set[int] = set()

    # -- public entry points -------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement (a trailing ``;`` is allowed)."""
        statement = self._statement()
        self._accept_punct(";")
        self._expect(TokenType.EOF)
        return statement

    def parse_script(self) -> list[ast.Statement]:
        """Parse a ``;``-separated sequence of statements."""
        statements: list[ast.Statement] = []
        while not self._check(TokenType.EOF):
            statements.append(self._statement())
            if not self._accept_punct(";"):
                break
        self._expect(TokenType.EOF)
        return statements

    def pinned(self) -> tuple[int, ...]:
        """Positions (in :attr:`literals`) of the literals left in place."""
        return tuple(index for index in range(len(self.literals))
                     if index not in self._slots)

    # -- token helpers ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, token_type: TokenType, value=None) -> bool:
        return self._peek().matches(token_type, value)

    def _accept(self, token_type: TokenType, value=None) -> Optional[Token]:
        if self._check(token_type, value):
            return self._advance()
        return None

    def _accept_keyword(self, *keywords: str) -> Optional[str]:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in keywords:
            self._advance()
            return token.value
        return None

    def _accept_punct(self, punct: str) -> bool:
        return self._accept(TokenType.PUNCT, punct) is not None

    def _expect(self, token_type: TokenType, value=None) -> Token:
        token = self._peek()
        if not token.matches(token_type, value):
            wanted = value if value is not None else token_type.name
            raise SqlSyntaxError(
                f"expected {wanted}, found {token.value!r}", token.line, token.column)
        return self._advance()

    def _expect_keyword(self, keyword: str) -> None:
        self._expect(TokenType.KEYWORD, keyword)

    def _expect_punct(self, punct: str) -> None:
        self._expect(TokenType.PUNCT, punct)

    def _expect_name(self) -> str:
        """Accept an identifier, or a keyword used as a name (e.g. a column
        called ``key``).  Aggregate keywords are allowed as plain names too."""
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            self._advance()
            return token.value
        if token.type is TokenType.KEYWORD and token.value in _AGGREGATES:
            self._advance()
            return token.value.lower()
        raise SqlSyntaxError(
            f"expected identifier, found {token.value!r}", token.line, token.column)

    def _list(self, parse) -> list:
        """``parse()``, and again after each comma."""
        items = [parse()]
        while self._accept_punct(","):
            items.append(parse())
        return items

    def _names(self) -> list[str]:
        """``(name, ...)``."""
        self._expect_punct("(")
        names = self._list(self._expect_name)
        self._expect_punct(")")
        return names

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(message, token.line, token.column)

    def _nested(self, parse):
        """``parse()``, one level deeper."""
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise self._error(f"nesting deeper than {MAX_DEPTH} levels")
        node = parse()
        self._depth -= 1
        return node

    def _pin(self, node: ast.Expression) -> ast.Expression:
        """*node*, a literal again if it is a slot."""
        if not isinstance(node, ast.Slot):
            return node
        self._slots.discard(node.index)
        return ast.Literal(self.literals[node.index])

    def _type_length(self) -> None:
        """Skip ``(n)`` or ``(p, s)`` after a type name."""
        if self._accept_punct("("):
            self.literals.append(self._expect(TokenType.INTEGER).value)
            if self._accept_punct(","):
                self.literals.append(self._expect(TokenType.INTEGER).value)
            self._expect_punct(")")

    # -- statements ------------------------------------------------------------

    def _statement(self) -> ast.Statement:
        token = self._peek()
        if token.type is not TokenType.KEYWORD:
            raise self._error(f"expected a statement, found {token.value!r}")
        keyword = token.value
        if keyword in _UNSHAPED:
            self._shaped = False
        if keyword == "EXPLAIN":
            self._advance()
            return ast.Explain(self._nested(self._statement))
        if keyword in _STATEMENTS:
            return getattr(self, _STATEMENTS[keyword])()
        if keyword in _CONTROL:
            self._advance()
            self._accept_keyword("TRANSACTION", "WORK")
            return _CONTROL[keyword]()
        raise self._error(f"unsupported statement: {keyword}")

    # -- SELECT -----------------------------------------------------------------

    def _select_statement(self) -> ast.Statement:
        left: ast.Statement = self._select_core()
        while self._accept_keyword("UNION"):
            is_all = self._accept_keyword("ALL") is not None
            right = self._select_core()
            left = ast.Union(left=left, right=right, all=is_all)
        # Trailing ORDER BY / LIMIT binds to the whole union, or to the
        # single SELECT when there is no union.
        left.order_by = self._order_by_clause()
        left.limit, offset = self._limit_clause()
        if isinstance(left, ast.Select):
            left.offset = offset
        return left

    def _select_core(self) -> ast.Select:
        return self._nested(self._select_block)

    def _select_block(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT", "ALL") == "DISTINCT"
        items = self._list(self._select_item)
        from_item = self._from_clause() if self._accept_keyword("FROM") \
            else None
        where = self._expression() if self._accept_keyword("WHERE") else None
        group_by: list[ast.Expression] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._list(lambda: self._pin(self._expression()))
        having = self._expression() if self._accept_keyword("HAVING") else None
        return ast.Select(
            items=items, from_item=from_item, where=where,
            group_by=group_by, having=having, distinct=distinct)

    def _select_item(self) -> ast.SelectItem:
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # table.* form
        if (self._peek().type is TokenType.IDENTIFIER
                and self._peek(1).matches(TokenType.PUNCT, ".")
                and self._peek(2).matches(TokenType.OPERATOR, "*")):
            table = self._advance().value
            self._advance()  # .
            self._advance()  # *
            return ast.SelectItem(ast.Star(table=table))
        expression = self._expression()
        alias = self._alias()
        return ast.SelectItem(expression if alias else self._pin(expression),
                              alias)

    def _alias(self) -> Optional[str]:
        """``[AS] name``, if there is one."""
        if self._accept_keyword("AS"):
            return self._expect_name()
        if self._peek().type is TokenType.IDENTIFIER:
            return self._advance().value
        return None

    def _order_by_clause(self) -> list[ast.OrderItem]:
        if not self._accept_keyword("ORDER"):
            return []
        self._expect_keyword("BY")
        return self._list(self._order_item)

    def _order_item(self) -> ast.OrderItem:
        expression = self._pin(self._expression())
        return ast.OrderItem(
            expression, self._accept_keyword("ASC", "DESC") != "DESC")

    def _limit_clause(self) -> tuple[Optional[ast.Expression], Optional[ast.Expression]]:
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._expression()
            if self._accept_keyword("OFFSET"):
                offset = self._expression()
        return limit, offset

    # -- FROM -----------------------------------------------------------------

    def _from_clause(self) -> ast.FromItem:
        item = self._join_chain()
        while self._accept_punct(","):
            right = self._join_chain()
            item = ast.Join(kind="CROSS", left=item, right=right)
        return item

    def _join_chain(self) -> ast.FromItem:
        left = self._from_primary()
        while True:
            kind = self._join_kind()
            if kind is None:
                return left
            right = self._from_primary()
            condition = None
            using = None
            if kind != "CROSS":
                if self._accept_keyword("ON"):
                    condition = self._expression()
                elif self._accept_keyword("USING"):
                    using = self._names()
                else:
                    raise self._error(f"{kind} JOIN requires ON or USING")
            left = ast.Join(kind=kind, left=left, right=right,
                            condition=condition, using=using)

    def _join_kind(self) -> Optional[str]:
        if self._accept_keyword("JOIN"):
            return "INNER"
        kind = self._accept_keyword("CROSS", "INNER", "LEFT", "RIGHT")
        if kind in ("LEFT", "RIGHT"):
            self._accept_keyword("OUTER")
        if kind is not None:
            self._expect_keyword("JOIN")
        return kind

    def _from_primary(self) -> ast.FromItem:
        if self._accept_punct("("):
            if self._check(TokenType.KEYWORD, "SELECT"):
                subquery = self._select_core()
                self._expect_punct(")")
                self._accept_keyword("AS")
                return ast.SubqueryRef(subquery, self._expect_name())
            item = self._nested(self._from_clause)
            self._expect_punct(")")
            return item
        return ast.TableRef(self._expect_name(), self._alias())

    # -- DML -------------------------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_name()
        columns = self._names() if self._check(TokenType.PUNCT, "(") else None
        if self._accept_keyword("VALUES"):
            rows = self._list(self._value_row)
            return ast.Insert(table=table, columns=columns, rows=rows)
        if self._check(TokenType.KEYWORD, "SELECT"):
            select = self._select_statement()
            return ast.Insert(table=table, columns=columns, select=select)
        raise self._error("expected VALUES or SELECT in INSERT")

    def _value_row(self) -> list[ast.Expression]:
        self._expect_punct("(")
        row = self._list(self._expression)
        self._expect_punct(")")
        return row

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_name()
        self._expect_keyword("SET")
        assignments = self._list(self._assignment)
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Update(table=table, assignments=assignments, where=where)

    def _assignment(self) -> ast.Assignment:
        column = self._expect_name()
        self._expect(TokenType.OPERATOR, "=")
        return ast.Assignment(column, self._expression())

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_name()
        where = self._expression() if self._accept_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    # -- DDL -------------------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._create_table()
        if self._accept_keyword("VIEW"):
            name = self._expect_name()
            self._expect_keyword("AS")
            select = self._select_statement()
            return ast.CreateView(name=name, select=select)
        unique = self._accept_keyword("UNIQUE") is not None
        if self._accept_keyword("INDEX"):
            return self._create_index(unique)
        raise self._error(
            "expected TABLE, VIEW, or [UNIQUE] INDEX after CREATE")

    def _alter(self) -> ast.Statement:
        self._expect_keyword("ALTER")
        self._expect_keyword("TABLE")
        table = self._expect_name()
        self._expect_keyword("ADD")
        self._accept_keyword("COLUMN")
        column = self._column_def()
        return ast.AlterTableAddColumn(table=table, column=column)

    def _create_table(self) -> ast.CreateTable:
        if_not_exists = self._accept_keyword("IF") is not None
        if if_not_exists:
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
        name = self._expect_name()
        self._expect_punct("(")
        columns: list[ast.ColumnDef] = []
        table_pk: list[str] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                table_pk += self._names()
            else:
                columns.append(self._column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return ast.CreateTable(name=name, columns=columns,
                               if_not_exists=if_not_exists, primary_key=table_pk)

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_name()
        type_name = self._expect_name().upper()
        self._type_length()  # VARCHAR(40), DECIMAL(8, 2)
        column = ast.ColumnDef(name=name, type_name=type_name)
        while word := self._accept_keyword("PRIMARY", "NOT", "UNIQUE", "NULL",
                                           "DEFAULT"):  # NULL: the default
            if word == "PRIMARY":
                self._expect_keyword("KEY")
                column.primary_key = True
            elif word == "NOT":
                self._expect_keyword("NULL")
                column.not_null = True
            elif word == "UNIQUE":
                column.unique = True
            elif word == "DEFAULT":  # a literal; a number may be signed
                sign = self._accept(TokenType.OPERATOR, "-") \
                    or self._accept(TokenType.OPERATOR, "+")
                if sign and self._peek().type not in (TokenType.INTEGER,
                                                      TokenType.REAL):
                    raise self._error(
                        f"expected a number after {sign.value!r}")
                column.default = self._primary()  # a Literal: DDL is unshaped
                if sign and sign.value == "-":
                    column.default = ast.Literal(-column.default.value)
        return column

    def _create_index(self, unique: bool) -> ast.CreateIndex:
        name = self._expect_name()
        self._expect_keyword("ON")
        table = self._expect_name()
        columns = self._names()
        return ast.CreateIndex(name=name, table=table, columns=columns, unique=unique)

    def _drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        kind = self._accept_keyword("TABLE", "VIEW")
        if kind is not None:
            if_exists = self._accept_keyword("IF") is not None
            if if_exists:
                self._expect_keyword("EXISTS")
            node = ast.DropTable if kind == "TABLE" else ast.DropView
            return node(self._expect_name(), if_exists)
        if self._accept_keyword("INDEX"):
            return ast.DropIndex(self._expect_name())
        raise self._error("expected TABLE, VIEW, or INDEX after DROP")

    # -- expressions -------------------------------------------------------------

    def _expression(self) -> ast.Expression:
        return self._nested(self._or_expr)

    def _binary_chain(self, ops: tuple[str, ...], operand) -> ast.Expression:
        """``operand (op operand)*`` for the operators or keywords *ops*,
        left-associative."""
        left = operand()
        while (token := self._peek()).value in ops and token.type in (
                TokenType.OPERATOR, TokenType.KEYWORD):
            self._advance()
            left = ast.Binary(token.value, left, operand())
        return left

    def _or_expr(self) -> ast.Expression:
        return self._binary_chain(("OR",), self._and_expr)

    def _and_expr(self) -> ast.Expression:
        return self._binary_chain(("AND",), self._not_expr)

    def _not_expr(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.Unary("NOT", self._nested(self._not_expr))
        return self._predicate()

    def _predicate(self) -> ast.Expression:
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = self._advance().value
            if op == "!=":
                op = "<>"
            return ast.Binary(op, left, self._additive())
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = self._accept_keyword("NOT") is not None
        if self._accept_keyword("IN"):
            return self._in_tail(left, negated)
        if self._accept_keyword("LIKE"):
            return ast.Like(left, self._additive(), negated)
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return ast.Between(left, low, high, negated)
        if negated:
            raise self._error("expected IN, LIKE, or BETWEEN after NOT")
        return left

    def _in_tail(self, left: ast.Expression, negated: bool) -> ast.Expression:
        self._expect_punct("(")
        if self._check(TokenType.KEYWORD, "SELECT"):
            subquery = self._select_core()
            self._expect_punct(")")
            return ast.InSubquery(left, subquery, negated)
        items = self._list(self._expression)
        self._expect_punct(")")
        return ast.InList(left, items, negated)

    def _additive(self) -> ast.Expression:
        return self._binary_chain(("+", "-", "||"), self._multiplicative)

    def _multiplicative(self) -> ast.Expression:
        return self._binary_chain(("*", "/", "%"), self._unary)

    def _unary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
            self._advance()
            return ast.Unary(token.value, self._nested(self._unary))
        return self._primary()

    def _primary(self) -> ast.Expression:
        token = self._peek()
        if token.type in _LITERALS:
            self._advance()
            self.literals.append(token.value)
            if not self._shaped:
                return ast.Literal(token.value)
            index = len(self.literals) - 1
            self._slots.add(index)
            return ast.Slot(index, kind_of(token.value))
        if token.type is TokenType.PARAM:
            self._advance()
            self._param_count += 1
            return ast.Param(self._param_count - 1)
        if token.type is TokenType.KEYWORD:
            return self._keyword_primary(token)
        if token.type is TokenType.IDENTIFIER:
            return self._identifier_primary()
        if self._accept_punct("("):
            if self._check(TokenType.KEYWORD, "SELECT"):
                subquery = self._select_core()
                self._expect_punct(")")
                return ast.ScalarSubquery(subquery)
            expression = self._expression()
            self._expect_punct(")")
            return expression
        raise self._error(f"unexpected token {token.value!r} in expression")

    def _keyword_primary(self, token: Token) -> ast.Expression:
        keyword = token.value
        if keyword in _WORDS:
            self._advance()
            return ast.Literal(_WORDS[keyword])
        if keyword in _AGGREGATES:
            self._advance()
            return self._call_tail(keyword)
        if keyword == "CASE":
            return self._case()
        if keyword == "EXISTS":
            self._advance()
            self._expect_punct("(")
            subquery = self._select_core()
            self._expect_punct(")")
            return ast.Exists(subquery)
        if keyword == "CAST":
            self._advance()
            self._expect_punct("(")
            operand = self._expression()
            self._expect_keyword("AS")
            type_name = self._expect_name().upper()
            self._type_length()
            self._expect_punct(")")
            return ast.Cast(operand, type_name)
        raise self._error(f"unexpected keyword {keyword!r} in expression")

    def _identifier_primary(self) -> ast.Expression:
        name = self._advance().value
        if self._check(TokenType.PUNCT, "("):
            return self._call_tail(name)
        if self._accept_punct("."):
            return ast.ColumnRef(name=self._expect_name(), table=name)
        return ast.ColumnRef(name=name)

    def _call_tail(self, name: str) -> ast.FunctionCall:
        self._expect_punct("(")
        distinct = self._accept_keyword("DISTINCT") is not None
        args: list[ast.Expression] = []
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            args.append(ast.Star())
        elif not self._check(TokenType.PUNCT, ")"):
            args = self._list(self._expression)
        self._expect_punct(")")
        return ast.FunctionCall(name=name.upper(), args=args, distinct=distinct)

    def _case(self) -> ast.Case:
        self._expect_keyword("CASE")
        operand = None if self._check(TokenType.KEYWORD, "WHEN") \
            else self._expression()
        whens: list[ast.CaseWhen] = []
        while self._accept_keyword("WHEN"):
            condition = self._expression()
            self._expect_keyword("THEN")
            whens.append(ast.CaseWhen(condition, self._expression()))
        if not whens:
            raise self._error("CASE requires at least one WHEN arm")
        default = self._expression() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.Case(operand=operand, whens=whens, default=default)


def parse(text: str) -> ast.Statement:
    """Parse a single SQL statement."""
    return Parser(text).parse_statement()


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ``;``-separated list of SQL statements."""
    return Parser(text).parse_script()
