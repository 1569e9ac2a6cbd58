"""Recursive-descent parser for the PRISM-subset modelling language.

Grammar sketch (see the appendix of the paper for a full example model)::

    model    := ('ctmc' | 'dtmc') item*
    item     := const | module | labeldecl | formula
    const    := 'const' ('int'|'double'|'bool') IDENT ('=' expr)? ';'
    module   := 'module' IDENT vardecl* command* 'endmodule'
    vardecl  := IDENT ':' '[' expr '..' expr ']' 'init' expr ';'
    command  := '[' ']' expr '->' updates ';'
    updates  := update ('+' update)*
    update   := expr ':' assigns | assigns          # weight defaults to 1
    assigns  := 'true' | assign ('&' assign)*
    assign   := '(' IDENT '\'' '=' expr ')'
    labeldecl:= 'label' STRING '=' expr ';'
    formula  := 'formula' IDENT '=' expr ';'

    expr     := or; or := and ('|' and)*; and := not ('&' not)*
    not      := '!' not | cmp
    cmp      := sum (('='|'!='|'<'|'<='|'>'|'>=') sum)?
    sum      := prod (('+'|'-') prod)*; prod := unary (('*'|'/') unary)*
    unary    := '-' unary | atom
    atom     := NUMBER | IDENT | 'true' | 'false' | '(' expr ')'

``formula`` definitions are inlined at parse time (simple textual macros,
like PRISM's).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.expr import (
    BinaryOp,
    BooleanLiteral,
    Expression,
    Name,
    Number,
    UnaryOp,
)
from repro.lang.lexer import Token, tokenize


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._formulas: dict[str, Expression] = {}

    # Token plumbing -----------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _accept(self, kind: str) -> Token | None:
        if self._peek().kind == kind:
            return self._next()
        return None

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                line=token.line,
                column=token.column,
            )
        return self._next()

    # Model structure ----------------------------------------------------
    def parse_model(self) -> ast.ModelFile:
        header = self._peek()
        if header.kind not in ("ctmc", "dtmc"):
            raise ParseError(
                "model must start with 'ctmc' or 'dtmc'",
                line=header.line,
                column=header.column,
            )
        self._next()
        constants: list[ast.ConstantDecl] = []
        modules: list[ast.Module] = []
        labels: list[ast.LabelDecl] = []
        while True:
            token = self._peek()
            if token.kind == "eof":
                break
            if token.kind == "const":
                constants.append(self._parse_const())
            elif token.kind == "module":
                modules.append(self._parse_module())
            elif token.kind == "label":
                labels.append(self._parse_label())
            elif token.kind == "formula":
                self._parse_formula()
            else:
                raise ParseError(
                    f"unexpected {token.text!r} at top level",
                    line=token.line,
                    column=token.column,
                )
        if not modules:
            raise ParseError("model has no modules")
        return ast.ModelFile(
            model_type=header.kind,
            constants=tuple(constants),
            modules=tuple(modules),
            labels=tuple(labels),
            formulas=dict(self._formulas),
        )

    def _parse_const(self) -> ast.ConstantDecl:
        self._expect("const")
        type_token = self._peek()
        if type_token.kind in ("int", "double", "bool"):
            self._next()
            type_name = type_token.kind
        else:
            type_name = "double"
        name = self._expect("ident").text
        value: Expression | None = None
        if self._accept("="):
            value = self.parse_expression()
        self._expect(";")
        return ast.ConstantDecl(name, type_name, value)

    def _parse_module(self) -> ast.Module:
        self._expect("module")
        name = self._expect("ident").text
        variables: list[ast.VariableDecl] = []
        commands: list[ast.Command] = []
        while True:
            token = self._peek()
            if token.kind == "endmodule":
                self._next()
                break
            if token.kind == "eof":
                raise ParseError(
                    f"module {name!r} is missing 'endmodule'",
                    line=token.line,
                    column=token.column,
                )
            if token.kind == "ident":
                variables.append(self._parse_variable())
            elif token.kind == "[":
                commands.append(self._parse_command())
            else:
                raise ParseError(
                    f"unexpected {token.text!r} inside module {name!r}",
                    line=token.line,
                    column=token.column,
                )
        return ast.Module(name, tuple(variables), tuple(commands))

    def _parse_variable(self) -> ast.VariableDecl:
        name = self._expect("ident").text
        self._expect(":")
        self._expect("[")
        low = self.parse_expression()
        self._expect("..")
        high = self.parse_expression()
        self._expect("]")
        self._expect("init")
        init = self.parse_expression()
        self._expect(";")
        return ast.VariableDecl(name, low, high, init)

    def _parse_command(self) -> ast.Command:
        opening = self._expect("[")
        if self._peek().kind == "ident":
            raise ParseError(
                "synchronisation labels are not supported by this subset",
                line=self._peek().line,
                column=self._peek().column,
            )
        self._expect("]")
        guard = self.parse_expression()
        self._expect("->")
        updates = [self._parse_update()]
        while self._accept("+"):
            updates.append(self._parse_update())
        self._expect(";")
        return ast.Command(guard, tuple(updates), line=opening.line)

    def _parse_update(self) -> ast.Update:
        # Either "expr : assigns" or bare "assigns" (weight 1).
        checkpoint = self._pos
        try:
            weight = self.parse_expression()
        except ParseError:
            self._pos = checkpoint
            weight = Number(1)
        else:
            if not self._accept(":"):
                self._pos = checkpoint
                weight = Number(1)
        assignments = self._parse_assignments()
        return ast.Update(weight, tuple(assignments))

    def _parse_assignments(self) -> list[ast.Assignment]:
        if self._accept("true"):
            return []
        assignments = [self._parse_assignment()]
        while self._accept("&"):
            assignments.append(self._parse_assignment())
        return assignments

    def _parse_assignment(self) -> ast.Assignment:
        self._expect("(")
        name = self._expect("ident").text
        self._expect("'")
        self._expect("=")
        value = self.parse_expression()
        self._expect(")")
        return ast.Assignment(name, value)

    def _parse_label(self) -> ast.LabelDecl:
        self._expect("label")
        name_token = self._expect("string")
        self._expect("=")
        condition = self.parse_expression()
        self._expect(";")
        return ast.LabelDecl(name_token.text[1:-1], condition)

    def _parse_formula(self) -> None:
        self._expect("formula")
        name = self._expect("ident").text
        self._expect("=")
        self._formulas[name] = self.parse_expression()
        self._expect(";")

    # Expressions ----------------------------------------------------------
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept("|"):
            left = BinaryOp("|", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept("&"):
            left = BinaryOp("&", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept("!"):
            return UnaryOp("!", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_sum()
        token = self._peek()
        if token.kind in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            right = self._parse_sum()
            return BinaryOp(token.kind, left, right)
        return left

    def _parse_sum(self) -> Expression:
        left = self._parse_product()
        while True:
            token = self._peek()
            if token.kind in ("+", "-"):
                # "+" also separates command updates; only treat it as an
                # operator when it is not followed by a new update (which
                # would start with an expression then ":").  Disambiguation
                # is handled by the update parser via backtracking, so here
                # we always consume.
                self._next()
                left = BinaryOp(token.kind, left, self._parse_product())
            else:
                return left

    def _parse_product(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind in ("*", "/"):
                self._next()
                left = BinaryOp(token.kind, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self._accept("-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self) -> Expression:
        token = self._next()
        if token.kind == "number":
            text = token.text
            if "." in text or "e" in text.lower():
                return Number(float(text))
            return Number(int(text))
        if token.kind == "ident":
            if token.text in self._formulas:
                return self._formulas[token.text]
            return Name(token.text)
        if token.kind == "true":
            return BooleanLiteral(True)
        if token.kind == "false":
            return BooleanLiteral(False)
        if token.kind == "(":
            inner = self.parse_expression()
            self._expect(")")
            return inner
        raise ParseError(
            f"unexpected {token.text or 'end of input'!r} in expression",
            line=token.line,
            column=token.column,
        )


def parse_model(source: str) -> ast.ModelFile:
    """Parse modelling-language *source* into a :class:`~repro.lang.ast.ModelFile`."""
    return _Parser(tokenize(source)).parse_model()


def parse_expression(source: str) -> Expression:
    """Parse *source* as one whole expression; trailing input is an error."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"unexpected trailing input {trailing.text!r}",
            line=trailing.line,
            column=trailing.column,
        )
    return expr
