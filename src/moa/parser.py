"""Parser for the expression surface syntax.

Grammar (whitespace-insensitive):

    expr      := NAME
               | 'outer'     '(' OP ',' expr ',' expr ')'
               | 'kron'      '(' expr ',' expr ')'
               | 'transpose' '(' intlist ',' expr ')'
               | 'reshape'   '(' intlist ',' expr ')'
    intlist   := '[' ']' | '[' INT (',' INT)* ']'
    OP        := 'mul' | 'add' | 'sub' | 'div'

Lexical rules: NAME is a letter or '_', then letters, digits or '_'; INT is
a run of decimal digits (str.isdecimal, so '١' reads as 1, but '²' is no
digit); whitespace is str.isspace.  Any other character is a ParseError that
names it.  The tokenizer is one scan of one regular expression; each token
keeps its offset, and only an error turns an offset into a line and column.

NAME is a leaf bound in the caller's shape environment.  Syntax problems
raise ParseError with line and column; semantic problems (bad permutation,
reshape count mismatch, non-matrix kron operands) surface as ShapeError from
node construction.  The calls are one table of constructors and argument
kinds, read by one loop.

Calls may nest at most exprs.MAX_NESTING deep, the limit every expression
node enforces; deeper text is a ParseError that names its line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError
from .exprs import MAX_NESTING, OPS, ExprNode, Kron, Leaf, Outer, Reshape, TransposeG
from .shapes import Shape

# \s, \d and \w are str.isspace, str.isdecimal and str.isalnum-or-'_' over all
# of Unicode.  A "name" run that starts with neither a letter nor '_' starts
# with a numeric character such as '½', which the tokenizer rejects.  "char"
# is \S, not '.', so that trailing whitespace makes no token.
_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>\w+)|(?P<punct>[][(),])|(?P<char>\S))")

# Each call's node constructor and the kinds of its arguments, in order.
_CALLS = {
    "outer": (Outer, ("op", "expr", "expr")),
    "kron": (Kron, ("expr", "expr")),
    "transpose": (TransposeG, ("ints", "expr")),
    "reshape": (Reshape, ("ints", "expr")),
}


class _Token(NamedTuple):
    kind: str  # "name", "int", "end", or the punctuation character itself
    text: str
    pos: int  # offset into the parsed text


def _error(message: str, text: str, pos: int) -> ParseError:
    """A ParseError at the 1-based line and column of offset ``pos``."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, line_start) + 1, pos - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        word, pos = match[kind], match.start(kind)
        if kind == "punct":
            kind = word
        elif kind == "char" or kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise _error(f"unexpected character {word[0]!r}", text, pos)
        tokens.append(_Token(kind, word, pos))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, shapes: dict[str, Shape]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.shapes = shapes

    def error(self, message: str, token: _Token) -> ParseError:
        return _error(message, self.text, token.pos)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise self.error(f"expected {kind!r}, found {token.text or 'end of input'!r}", token)
        self.pos += 1
        return token

    def parse_expr(self, depth: int = 0) -> ExprNode:
        """Parse one expression nested inside ``depth`` enclosing calls."""
        token = self.take("name")
        word = token.text
        if self.peek().kind != "(":
            if word in _CALLS:
                raise self.error(f"{word} needs an argument list", token)
            if word not in self.shapes:
                raise self.error(f"unknown array name {word!r}", token)
            return Leaf(word, self.shapes[word])
        if depth == MAX_NESTING:
            raise self.error(f"expression nests deeper than {MAX_NESTING} calls", token)
        if word not in _CALLS:
            raise self.error(f"unknown function {word!r}", token)
        build, kinds = _CALLS[word]
        self.take("(")
        args: list = []
        for kind in kinds:
            if args:
                self.take(",")
            if kind == "expr":
                args.append(self.parse_expr(depth + 1))
            elif kind == "ints":
                args.append(self.parse_intlist())
            else:
                args.append(self.parse_op())
        self.take(")")
        return build(*args)

    def parse_op(self) -> str:
        token = self.take("name")
        if token.text not in OPS:
            raise self.error(
                f"outer op must be one of {', '.join(OPS)}, found {token.text!r}", token
            )
        return token.text

    def parse_intlist(self) -> tuple[int, ...]:
        self.take("[")
        if self.peek().kind == "]":
            self.take("]")
            return ()
        items = [self.parse_int()]
        while self.peek().kind == ",":
            self.take(",")
            items.append(self.parse_int())
        self.take("]")
        return tuple(items)

    def parse_int(self) -> int:
        token = self.take("int")
        try:
            return int(token.text)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise self.error(f"integer of {len(token.text)} digits is too long", token) from None


def parse(text: str, shapes: dict[str, Shape]) -> ExprNode:
    """Parse expression text against a leaf-name to shape environment."""
    parser = _Parser(text, shapes)
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise parser.error(f"unexpected trailing input {tail.text!r}", tail)
    return expr
