"""Formula ASTs over {meet, join, fusion, implication, bang} with two surface notations.

The tree language has variables, the constants 1, 0, bot, top, the unary !,
and four binary connectives.  Negation is not a node: ``~f`` (and the
postfix dualizer of the girard notation) is expanded to ``f -> 0`` while
parsing, so downstream consumers handle a single connective set.

Grammar, substructural notation (ASCII)::

    form := imp
    imp  := or ("->" imp)?          right-associative
    or   := and ("\\/" and)*
    and  := mul ("/\\" mul)*
    mul  := un ("*" un)*
    un   := "!" un | "~" un | atom
    atom := ident | "1" | "0" | "bot" | "top" | "(" form ")"

Girard notation uses ``&`` for meet, ``(+)`` for join, ``(x)`` for fusion,
``-o`` for implication, ``1``/``_|_`` for 1/0 and ``0g``/``top`` for
bot/top; ``f^_|_`` is postfix negation.  Note that ``(x)`` always lexes as
the fusion operator, so a parenthesized bare variable must be written with
spaces: ``( x )``.

Binding strength, tightest first: ``!``, ``*``, ``/\\``, ``\\/``, ``->``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping


class _Node:
    """Slots for the hash and structural key, filled on first use.  The hash
    is the dataclass one, built from the children's cached hashes.  Slots are
    not fields, so ``==`` and ``repr`` ignore them, and pickling drops them:
    string hashes vary with ``PYTHONHASHSEED`` between processes."""

    __slots__ = ("_hash", "_key")

    def __getstate__(self) -> dict:
        return self.__dict__


def _cached_hash(node: _Node) -> int:
    try:
        return node._hash  # type: ignore[attr-defined]
    except AttributeError:
        object.__setattr__(node, "_hash", hash(tuple(node.__dict__.values())))  # the fields
        return node._hash  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Var(_Node):
    name: str
    __hash__ = _cached_hash


@dataclass(frozen=True)
class Const(_Node):
    symbol: str  # one of CONSTS
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        if self.symbol not in CONSTS:
            raise ValueError(f"Unknown constant {self.symbol!r}.")


@dataclass(frozen=True)
class Bang(_Node):
    child: "Formula"
    __hash__ = _cached_hash


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of OPS
    left: "Formula"
    right: "Formula"
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"Unknown connective {self.op!r}.")


Formula = Var | Const | Bang | BinOp

CONSTS = ("1", "0", "bot", "top")
OPS = ("and", "or", "mul", "imp")

ONE = Const("1")
ZERO = Const("0")
BOT = Const("bot")
TOP = Const("top")

NOTATIONS = ("substructural", "girard")

# Deepest nesting ``parse`` accepts, both of parentheses and of connectives
# (``depth``).  It keeps the parser, which recurses only into parentheses, and
# the recursive walkers (render, eval_formula, free_variables, depth, ...)
# well inside the default recursion limit.
MAX_NESTING = 100

_RESERVED_NAMES = frozenset({"bot", "top"})


def negation(f: Formula) -> Formula:
    """The derived negation f -> 0."""
    return BinOp("imp", f, ZERO)


class ParseError(Exception):
    """Syntax or lexing failure, with the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SUBSTRUCTURAL_TOKENS = [
    ("IMP", r"->"),
    ("OR", r"\\/"),
    ("AND", r"/\\"),
    ("MUL", r"\*"),
    ("BANG", r"!"),
    ("NEG", r"~"),
    ("LP", r"\("),
    ("RP", r"\)"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9']*"),
    ("NUM", r"[0-9]+"),
]

_GIRARD_TOKENS = [
    ("PERP", r"\^_\|_"),
    ("ZERO", r"_\|_"),
    ("JOIN", r"\(\+\)"),
    ("MUL", r"\(x\)"),
    ("IMP", r"-o"),
    ("AND", r"&"),
    ("BANG", r"!"),
    ("NEG", r"~"),
    ("LP", r"\("),
    ("RP", r"\)"),
    ("BOTG", r"0g"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9']*"),
    ("NUM", r"[0-9]+"),
]


def _lexer(spec: list[tuple[str, str]]) -> re.Pattern[str]:
    return re.compile("|".join(f"(?P<{kind}>{pat})" for kind, pat in spec))


_LEXERS = {
    "substructural": _lexer(_SUBSTRUCTURAL_TOKENS),
    "girard": _lexer(_GIRARD_TOKENS),
}


def _tokenize(text: str, notation: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) of each token, then an EOF token."""
    lexer, tokens, pos, n = _LEXERS[notation], [], 0, len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = lexer.match(text, pos)
        if m is None:
            raise ParseError(
                f"Unknown symbol {text[pos]!r} for the {notation} notation", pos
            )
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", n))
    return tokens


def _check_notation(notation: str) -> None:
    if notation not in NOTATIONS:
        raise ValueError(f"Unknown notation {notation!r}; expected one of {NOTATIONS}.")


class _Parser:
    def __init__(self, text: str, notation: str) -> None:
        self.notation = notation
        self.tokens = _tokenize(text, notation)
        self.index = 0
        self.parens = 0

    def peek(self) -> str:  # the next token's kind
        return self.tokens[self.index][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> None:
        found, text, pos = self.advance()
        if found != kind:
            raise ParseError(f"Expected {kind}, found {text!r}", pos)

    def parse_form(self) -> Formula:
        operands = [self.parse_or()]
        while self.peek() == "IMP":
            self.advance()
            operands.append(self.parse_or())
        node = operands.pop()
        while operands:
            node = BinOp("imp", operands.pop(), node)
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek() in ("OR", "JOIN"):
            self.advance()
            node = BinOp("or", node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_mul()
        while self.peek() == "AND":
            self.advance()
            node = BinOp("and", node, self.parse_mul())
        return node

    def parse_mul(self) -> Formula:
        node = self.parse_unary()
        while self.peek() == "MUL":
            self.advance()
            node = BinOp("mul", node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        if self.peek() not in ("BANG", "NEG"):
            return self.parse_postfix()
        prefixes = []
        while self.peek() in ("BANG", "NEG"):
            prefixes.append(self.advance()[0])
        node = self.parse_postfix()
        for kind in reversed(prefixes):
            node = Bang(node) if kind == "BANG" else negation(node)
        return node

    def parse_postfix(self) -> Formula:
        node = self.parse_atom()
        while self.peek() == "PERP":
            self.advance()
            node = negation(node)
        return node

    def parse_atom(self) -> Formula:
        kind, text, pos = self.advance()
        if kind == "LP":
            self.parens += 1
            if self.parens > MAX_NESTING:
                raise ParseError(f"Parentheses nest deeper than {MAX_NESTING}", pos)
            node = self.parse_form()
            self.expect("RP")
            self.parens -= 1
            return node
        if kind == "NUM":  # girard's 0 is spelled _|_
            if text == "1" or text == "0" and self.notation == "substructural":
                return ONE if text == "1" else ZERO
            raise ParseError(f"Unknown symbol {text!r} for the {self.notation} notation", pos)
        if kind == "ZERO":
            return ZERO
        if kind == "BOTG":
            return BOT
        if kind == "IDENT":  # girard's bot is spelled 0g
            if text == "top" or text == "bot" and self.notation == "substructural":
                return TOP if text == "top" else BOT
            if text in _RESERVED_NAMES:
                raise ParseError(f"Reserved word {text!r}", pos)
            return Var(text)
        raise ParseError(f"Unexpected token {text!r}", pos)


def parse(text: str, notation: str = "substructural") -> Formula:
    """Parse a formula in the given notation; raises ParseError on bad input."""
    _check_notation(notation)
    if not text.strip():
        raise ParseError("Empty formula", 0)
    parser = _Parser(text, notation)
    node = parser.parse_form()
    kind, text, pos = parser.advance()
    if kind != "EOF":
        raise ParseError(f"Trailing input {text!r}", pos)
    # each token adds at most one level, so only long inputs need the walk,
    # which is iterative because the tree may be deeper than the recursion limit
    stack = [(node, 0)] if len(parser.tokens) > MAX_NESTING else []
    while stack:
        sub, level = stack.pop()
        if level > MAX_NESTING:
            raise ParseError(f"Connectives nest deeper than {MAX_NESTING}", 0)
        if isinstance(sub, Bang):
            stack.append((sub.child, level + 1))
        elif isinstance(sub, BinOp):
            stack.extend(((sub.left, level + 1), (sub.right, level + 1)))
    return node


_SUB_SURFACE = {"and": " /\\ ", "or": " \\/ ", "mul": " * ", "imp": " -> "}
_GIR_SURFACE = {"and": " & ", "or": " (+) ", "mul": " (x) ", "imp": " -o "}
_SUB_CONSTS = {"1": "1", "0": "0", "bot": "bot", "top": "top"}
_GIR_CONSTS = {"1": "1", "0": "_|_", "bot": "0g", "top": "top"}

_LEVEL = {"imp": 0, "or": 1, "and": 2, "mul": 3}


def _level(f: Formula) -> int:
    if isinstance(f, BinOp):
        return _LEVEL[f.op]
    if isinstance(f, Bang):
        return 4
    return 5


def render(f: Formula, notation: str = "substructural") -> str:
    """Render so that parse(render(f, n), n) returns f, with minimal parens."""
    _check_notation(notation)
    surface = _SUB_SURFACE if notation == "substructural" else _GIR_SURFACE
    consts = _SUB_CONSTS if notation == "substructural" else _GIR_CONSTS

    def go(node: Formula, min_level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return consts[node.symbol]
        if isinstance(node, Bang):
            text = "!" + go(node.child, 4)
        else:
            level = _LEVEL[node.op]
            if node.op == "imp":
                text = go(node.left, 1) + surface["imp"] + go(node.right, 0)
            else:
                text = go(node.left, level) + surface[node.op] + go(node.right, level + 1)
        if _level(node) < min_level:
            return "( " + text + " )"
        return text

    return go(f, 0)


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace variables homomorphically; names outside the map stay put."""
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, Const):
        return f
    if isinstance(f, Bang):
        return Bang(substitute(f.child, mapping))
    return BinOp(f.op, substitute(f.left, mapping), substitute(f.right, mapping))


def free_variables(f: Formula) -> set[str]:
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Const):
        return set()
    if isinstance(f, Bang):
        return free_variables(f.child)
    return free_variables(f.left) | free_variables(f.right)


def size(f: Formula) -> int:
    """Node count."""
    if isinstance(f, (Var, Const)):
        return 1
    if isinstance(f, Bang):
        return 1 + size(f.child)
    return 1 + size(f.left) + size(f.right)


def depth(f: Formula) -> int:
    """Connective nesting depth; atoms have depth 0."""
    if isinstance(f, (Var, Const)):
        return 0
    if isinstance(f, Bang):
        return 1 + depth(f.child)
    return 1 + max(depth(f.left), depth(f.right))


def structural_key(f: Formula):
    """Total order key: variables, constants, then and < or < mul < imp < bang;
    cached on the node."""
    try:
        return f._key  # type: ignore[union-attr]
    except AttributeError:
        pass
    if isinstance(f, Var):
        key: tuple = (0, f.name)
    elif isinstance(f, Const):
        key = (1, CONSTS.index(f.symbol))
    elif isinstance(f, BinOp):
        key = (2, OPS.index(f.op), structural_key(f.left), structural_key(f.right))
    else:
        key = (3, structural_key(f.child))
    object.__setattr__(f, "_key", key)
    return key


def connectives(f: Formula) -> set[str]:
    """Connective and constant symbols occurring in f (variables excluded)."""
    if isinstance(f, Var):
        return set()
    if isinstance(f, Const):
        return {f.symbol}
    if isinstance(f, Bang):
        return {"bang"} | connectives(f.child)
    return {f.op} | connectives(f.left) | connectives(f.right)


def formula_to_dict(f: Formula) -> dict:
    if isinstance(f, Var):
        return {"var": f.name}
    if isinstance(f, Const):
        return {"const": f.symbol}
    if isinstance(f, Bang):
        return {"bang": formula_to_dict(f.child)}
    return {
        "op": f.op,
        "left": formula_to_dict(f.left),
        "right": formula_to_dict(f.right),
    }


def formula_from_dict(data: dict) -> Formula:
    if "var" in data:
        return Var(data["var"])
    if "const" in data:
        return Const(data["const"])
    if "bang" in data:
        return Bang(formula_from_dict(data["bang"]))
    return BinOp(
        data["op"], formula_from_dict(data["left"]), formula_from_dict(data["right"])
    )
