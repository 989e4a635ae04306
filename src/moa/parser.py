"""Parser for the expression surface syntax.

Grammar (whitespace-insensitive):

    expr      := NAME
               | 'outer'     '(' OP ',' expr ',' expr ')'
               | 'kron'      '(' expr ',' expr ')'
               | 'transpose' '(' intlist ',' expr ')'
               | 'reshape'   '(' intlist ',' expr ')'
    intlist   := '[' ']' | '[' INT (',' INT)* ']'
    OP        := 'mul' | 'add' | 'sub' | 'div'

NAME is a leaf bound in the caller's shape environment.  Syntax problems
raise ParseError with line and column; semantic problems (bad permutation,
reshape count mismatch, non-matrix kron operands) surface as ShapeError from
node construction.

Calls may nest at most exprs.MAX_NESTING deep, the limit every expression
node enforces; deeper text is a ParseError that names its line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .exprs import MAX_NESTING, OPS, ExprNode, Kron, Leaf, Outer, Reshape, TransposeG
from .shapes import Shape

_PUNCT = "()[],"


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "int", or one of the punctuation characters
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            column = 1
            pos += 1
            continue
        if ch.isspace():
            column += 1
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, column))
            column += 1
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(_Token("int", text[start:pos], line, column))
            column += pos - start
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("name", text[start:pos], line, column))
            column += pos - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], shapes: dict[str, Shape]):
        self.tokens = tokens
        self.pos = 0
        self.shapes = shapes

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        self.pos += 1
        return token

    def parse_expr(self, depth: int = 0) -> ExprNode:
        """Parse one expression nested inside ``depth`` enclosing calls."""
        token = self.take("name")
        word = token.text
        if self.peek().kind != "(":
            if word in ("outer", "kron", "transpose", "reshape"):
                raise ParseError(f"{word} needs an argument list", token.line, token.column)
            if word not in self.shapes:
                raise ParseError(f"unknown array name {word!r}", token.line, token.column)
            return Leaf(word, self.shapes[word])
        if depth == MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {MAX_NESTING} calls", token.line, token.column
            )
        if word == "outer":
            self.take("(")
            op_token = self.take("name")
            if op_token.text not in OPS:
                raise ParseError(
                    f"outer op must be one of {', '.join(OPS)}, found {op_token.text!r}",
                    op_token.line,
                    op_token.column,
                )
            self.take(",")
            left = self.parse_expr(depth + 1)
            self.take(",")
            right = self.parse_expr(depth + 1)
            self.take(")")
            return Outer(op_token.text, left, right)
        if word == "kron":
            self.take("(")
            left = self.parse_expr(depth + 1)
            self.take(",")
            right = self.parse_expr(depth + 1)
            self.take(")")
            return Kron(left, right)
        if word == "transpose":
            self.take("(")
            order = self.parse_intlist()
            self.take(",")
            child = self.parse_expr(depth + 1)
            self.take(")")
            return TransposeG(order, child)
        if word == "reshape":
            self.take("(")
            extents = self.parse_intlist()
            self.take(",")
            child = self.parse_expr(depth + 1)
            self.take(")")
            return Reshape(extents, child)
        raise ParseError(f"unknown function {word!r}", token.line, token.column)

    def parse_intlist(self) -> tuple[int, ...]:
        self.take("[")
        items: list[int] = []
        if self.peek().kind == "]":
            self.take("]")
            return ()
        items.append(int(self.take("int").text))
        while self.peek().kind == ",":
            self.take(",")
            items.append(int(self.take("int").text))
        self.take("]")
        return tuple(items)


def parse(text: str, shapes: dict[str, Shape]) -> ExprNode:
    """Parse expression text against a leaf-name to shape environment."""
    parser = _Parser(_tokenize(text), shapes)
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.line, tail.column)
    return expr
