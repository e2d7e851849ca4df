"""Formula ASTs over {meet, join, fusion, implication, bang} with two surface notations.

The tree language has variables, the constants 1, 0, bot, top, the unary !,
and four binary connectives.  Negation is not a node: ``~f`` (and the
postfix dualizer of the girard notation) is expanded to ``f -> 0`` while
parsing, so downstream consumers handle a single connective set.

There is one node per structure: a constructor returns the live node of its
class and fields if there is one, found in a table keyed on them, children
by identity.  So ``==`` is identity and the hash is ``object``'s.  The table
holds its nodes weakly, and a node that is no longer used leaves it.

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

Each notation's spelling is one ``_SYNTAX`` entry, which the lexer, the
parser and ``render`` all read.  Binding strength is ``_LEVEL``, where a
higher level binds tighter: ``!``, then ``*``, ``/\\``, ``\\/``, ``->``.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Mapping


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the table key of the node referred to


# the one live node of each structure, by its key: the class, then the fields
_TABLE: dict[tuple, _Ref] = {}
_NO_REF = type(None)  # the reference of a key with no entry: called, it gives None
_new, _set = object.__new__, object.__setattr__  # _set writes past the frozen __setattr__


def _forget(ref: _Ref, table: dict = _TABLE) -> None:
    """Drop a dead node's entry unless a newer node took its key; ``table`` is
    bound here because callbacks still run while the module is torn down."""
    if table.get(ref.key) is ref:
        del table[ref.key]


def _enter(key: tuple) -> Formula:
    """A new node of class ``key[0]`` under ``key``, for its constructor to fill."""
    node = _new(key[0])
    ref = _TABLE[key] = _Ref(node, _forget)
    ref.key = key
    return node


class _Node:
    """Slots for the structural key, filled on first use, and the weak
    reference; pickling and deepcopy go through the constructor."""

    __slots__ = ("_key", "__weakref__")

    def __reduce__(self) -> tuple:
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


@dataclass(frozen=True, eq=False, init=False)
class Var(_Node):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Var:
        node = _TABLE.get(key := (cls, name), _NO_REF)()
        if node is None:
            _set(node := _enter(key), "name", name)
        return node


@dataclass(frozen=True, eq=False, init=False)
class Const(_Node):
    __slots__ = ("symbol",)
    symbol: str  # one of CONSTS

    def __new__(cls, symbol: str) -> Const:
        node = _TABLE.get(key := (cls, symbol), _NO_REF)()
        if node is None:  # a valid symbol misses only while the module loads
            if symbol not in CONSTS:
                raise ValueError(f"Unknown constant {symbol!r}.")
            _set(node := _enter(key), "symbol", symbol)
        return node


@dataclass(frozen=True, eq=False, init=False)
class Bang(_Node):
    __slots__ = ("child",)
    child: Formula

    def __new__(cls, child: Formula) -> Bang:
        node = _TABLE.get(key := (cls, child), _NO_REF)()
        if node is None:
            _set(node := _enter(key), "child", child)
        return node


@dataclass(frozen=True, eq=False, init=False)
class BinOp(_Node):
    __slots__ = ("op", "left", "right")
    op: str  # one of OPS
    left: Formula
    right: Formula

    def __new__(cls, op: str, left: Formula, right: Formula) -> BinOp:
        node = _TABLE.get(key := (cls, op, left, right), _NO_REF)()
        if node is None:  # only a valid connective has an entry
            if op not in OPS:
                raise ValueError(f"Unknown connective {op!r}.")
            _set(node := _enter(key), "op", op)
            _set(node, "left", left)
            _set(node, "right", right)
        return node


Formula = Var | Const | Bang | BinOp

CONSTS = ("1", "0", "bot", "top")
OPS = ("and", "or", "mul", "imp")

ONE = Const("1")
ZERO = Const("0")
BOT = Const("bot")
TOP = Const("top")

NOTATIONS = ("substructural", "girard")

# Deepest nesting ``parse`` accepts, both of parentheses and of connectives
# (``depth``).  It keeps the parser, which recurses only into parentheses and
# across the binding levels, and the recursive walkers (render, eval_formula,
# free_variables, depth, ...) well inside the default recursion limit.
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


# Each notation's spelling: its token patterns in match order (a spelling
# that begins another comes after it, and names and numerals come last),
# the connective that each binary operator token spells, and the constant that
# each word spells.  ``!``, ``~`` and the parentheses are spelled alike in both;
# girard's postfix negation is its token ``^_|_``.
_SYNTAX = {
    "substructural": (
        ("->", "\\/", "/\\", "*", "!", "~", "(", ")"),
        {"->": "imp", "\\/": "or", "/\\": "and", "*": "mul"},
        {"1": ONE, "0": ZERO, "bot": BOT, "top": TOP},
    ),
    "girard": (
        ("^_|_", "_|_", "(+)", "(x)", "-o", "&", "!", "~", "(", ")", "0g"),
        {"-o": "imp", "(+)": "or", "&": "and", "(x)": "mul"},
        {"1": ONE, "_|_": ZERO, "0g": BOT, "top": TOP},
    ),
}
_LEXERS = {
    notation: re.compile("|".join(map(re.escape, patterns)) + r"|[A-Za-z_][A-Za-z_0-9']*|[0-9]+")
    for notation, (patterns, _, _) in _SYNTAX.items()
}
# the spelling of each connective and constant, for render
_SPELLING = {
    notation: {meaning: spelling for spelling, meaning in (*ops.items(), *words.items())}
    for notation, (_, ops, words) in _SYNTAX.items()
}
# binding strength of the binary connectives, loosest first; ``!`` binds at 4
_LEVEL = {"imp": 0, "or": 1, "and": 2, "mul": 3}


def _tokenize(text: str, notation: str) -> list[tuple[str, int]]:
    """The text and position of each token, then ``("", len(text))``."""
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
        tokens.append((m.group(), pos))
        pos = m.end()
    tokens.append(("", n))
    return tokens


def _check_notation(notation: str) -> None:
    if notation not in NOTATIONS:
        raise ValueError(f"Unknown notation {notation!r}; expected one of {NOTATIONS}.")


def parse(text: str, notation: str = "substructural") -> Formula:
    """Parse a formula in the given notation; raises ParseError on bad input."""
    _check_notation(notation)
    if not text.strip():
        raise ParseError("Empty formula", 0)
    _, ops, words = _SYNTAX[notation]
    tokens = _tokenize(text, notation)
    at = parens = 0  # the next token's index; the open parentheses

    def climb(level: int) -> Formula:
        """The formula at the next token whose connectives bind at ``level``
        or tighter: an operand, then operators while they bind that tight.
        A chain of one connective is a loop, not a recursion per operator."""
        nonlocal at, parens
        start = at
        while tokens[at][0] in ("!", "~"):
            at += 1
        prefixes = tokens[start:at] if at > start else ()  # most operands have none
        word, pos = tokens[at]
        at += 1
        if word == "(":
            parens += 1
            if parens > MAX_NESTING:
                raise ParseError(f"Parentheses nest deeper than {MAX_NESTING}", pos)
            node = climb(0)
            word, pos = tokens[at]
            at += 1
            if word != ")":
                raise ParseError(f"Expected RP, found {word!r}", pos)
            parens -= 1
        elif word in words:
            node = words[word]
        elif word[:1].isidentifier():  # a name
            if word in _RESERVED_NAMES:
                raise ParseError(f"Reserved word {word!r}", pos)
            node = Var(word)
        elif word[:1].isdigit():  # a numeral that spells no constant here
            raise ParseError(f"Unknown symbol {word!r} for the {notation} notation", pos)
        else:
            raise ParseError(f"Unexpected token {word!r}", pos)
        while tokens[at][0] == "^_|_":
            at += 1
            node = negation(node)
        for prefix, _ in reversed(prefixes):
            node = Bang(node) if prefix == "!" else negation(node)
        imps = []  # the left operands of ``->``, folded to the right below
        while (op := ops.get(tokens[at][0])) is not None and _LEVEL[op] >= level:
            at += 1
            if op == "imp":
                imps.append(node)
                node = climb(1)
            else:
                node = BinOp(op, node, climb(_LEVEL[op] + 1))
        while imps:
            node = BinOp("imp", imps.pop(), node)
        return node

    try:
        node = climb(0)
    finally:
        del climb  # else climb's cell keeps it in a cycle, garbage for the collector
    word, pos = tokens[at]
    if word:
        raise ParseError(f"Trailing input {word!r}", pos)
    # each token adds at most one level, so only long inputs need the walk,
    # which is iterative because the tree may be deeper than the recursion limit
    stack = [(node, 0)] if len(tokens) > MAX_NESTING else []
    while stack:
        sub, level = stack.pop()
        if level > MAX_NESTING:
            raise ParseError(f"Connectives nest deeper than {MAX_NESTING}", 0)
        if isinstance(sub, Bang):
            stack.append((sub.child, level + 1))
        elif isinstance(sub, BinOp):
            stack.extend(((sub.left, level + 1), (sub.right, level + 1)))
    return node


def render(f: Formula, notation: str = "substructural") -> str:
    """Render so that parse(render(f, n), n) returns f, with minimal parens."""
    _check_notation(notation)
    return _render(f, 0, _SPELLING[notation])


def _render(node: Formula, min_level: int, spelling: dict) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return spelling[node]
    if isinstance(node, Bang):
        level, text = 4, "!" + _render(node.child, 4, spelling)
    else:  # ``->`` nests to the right, the others to the left
        level = _LEVEL[node.op]
        left, right = (level + 1, level) if node.op == "imp" else (level, level + 1)
        text = _render(node.left, left, spelling) + f" {spelling[node.op]} "
        text += _render(node.right, right, spelling)
    return "( " + text + " )" if level < min_level else text


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
    _set(f, "_key", key)
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
    return {"op": f.op, "left": formula_to_dict(f.left), "right": formula_to_dict(f.right)}
