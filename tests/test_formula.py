import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girale import formula as formula_module
from girale.formula import (
    BOT,
    Bang,
    BinOp,
    CONSTS,
    Const,
    MAX_NESTING,
    NOTATIONS,
    ONE,
    OPS,
    ParseError,
    TOP,
    Var,
    ZERO,
    depth,
    free_variables,
    formula_to_dict,
    parse,
    render,
    size,
    structural_key,
    substitute,
)

from tests import reference_kernel as ref


def imp(a, b):
    return BinOp("imp", a, b)


X, Y, Z = Var("x"), Var("y"), Var("z")


def test_parse_identity():
    assert parse("x -> x") == imp(X, X)


def test_parse_negation_expands():
    assert parse("~y") == imp(Var("y"), ZERO)


def test_parse_girard_plus_is_join():
    assert parse("x (+) y", "girard") == BinOp("or", X, Y)


def test_parse_girard_tokens():
    assert parse("x (x) y", "girard") == BinOp("mul", X, Y)
    assert parse("x -o x", "girard") == imp(X, X)
    assert parse("x & y", "girard") == BinOp("and", X, Y)
    assert parse("_|_", "girard") == ZERO
    assert parse("0g", "girard") == BOT
    assert parse("top", "girard") == TOP
    assert parse("x^_|_", "girard") == imp(X, ZERO)


def test_render_examples():
    assert render(imp(X, X)) == "x -> x"
    assert render(BinOp("mul", X, Y), "girard") == "x (x) y"
    assert render(BOT, "girard") == "0g"


def test_precedence():
    assert parse("x \\/ y -> z") == imp(BinOp("or", X, Y), Z)
    assert parse("!x * y") == BinOp("mul", Bang(X), Y)
    assert parse("x /\\ y \\/ z") == BinOp("or", BinOp("and", X, Y), Z)
    assert parse("x * y /\\ z") == BinOp("and", BinOp("mul", X, Y), Z)
    assert parse("x -> y -> z") == imp(X, imp(Y, Z))
    assert parse("~!x") == imp(Bang(X), ZERO)


PARSE_ERRORS = [  # notation, text, message, position
    ("substructural", "x -> $", "Unknown symbol '$' for the substructural notation", 5),
    ("substructural", "x (+) y", "Unknown symbol '+' for the substructural notation", 3),
    ("substructural", "x\n\u00e9", "Unknown symbol '\u00e9' for the substructural notation", 2),
    ("substructural", "", "Empty formula", 0),
    ("substructural", "x y", "Trailing input 'y'", 2),
    ("substructural", "x)", "Trailing input ')'", 1),
    ("substructural", "(x", "Expected RP, found ''", 2),
    ("substructural", "!(x /\\ y", "Expected RP, found ''", 8),
    ("substructural", "x -> ", "Unexpected token ''", 5),
    ("substructural", "(" * 101 + "x" + ")" * 101, "Parentheses nest deeper than 100", 100),
    ("substructural", "!" * 101 + "x", "Connectives nest deeper than 100", 0),
    ("substructural", " -> ".join(["x"] * 102), "Connectives nest deeper than 100", 0),
    ("girard", "x -> y", "Unknown symbol '-' for the girard notation", 2),
    ("girard", "0", "Unknown symbol '0' for the girard notation", 0),  # bottom is 0g
    ("girard", "x^_|_ ^", "Unknown symbol '^' for the girard notation", 6),
    ("girard", "", "Empty formula", 0),
    ("girard", "x y", "Trailing input 'y'", 2),
    ("girard", "(x & y", "Expected RP, found ''", 6),
    ("girard", "x -o", "Unexpected token ''", 4),
    ("girard", "bot", "Reserved word 'bot'", 0),
    ("girard", "x -o bot", "Reserved word 'bot'", 5),
    ("girard", "( " * 101 + "x" + " )" * 101, "Parentheses nest deeper than 100", 200),
    ("girard", "~" * 101 + "x", "Connectives nest deeper than 100", 0),
    ("girard", " -o ".join(["x"] * 102), "Connectives nest deeper than 100", 0),
    # 5000-token chains: the depth bound refuses them, and no parser recursion does
    ("substructural", "x" + " -> x" * 2500, "Connectives nest deeper than 100", 0),
    ("substructural", "x" + " * x" * 2500, "Connectives nest deeper than 100", 0),
    ("substructural", "x" + " \\/ x" * 2500, "Connectives nest deeper than 100", 0),
    ("substructural", "x" + " /\\ x" * 2500, "Connectives nest deeper than 100", 0),
    ("substructural", "!" * 5000 + "x", "Connectives nest deeper than 100", 0),
    ("substructural", "~" * 5000 + "x", "Connectives nest deeper than 100", 0),
    ("girard", "x" + " -o x" * 2500, "Connectives nest deeper than 100", 0),
    ("girard", "x" + " (x) x" * 2500, "Connectives nest deeper than 100", 0),
    ("girard", "x" + "^_|_" * 5000, "Connectives nest deeper than 100", 0),
]


def test_parse_errors_carry_position():
    for notation, text, message, position in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse(text, notation)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position


# every token of each notation, some run together, and junk for the lexer and the parser
SYNTAX_TOKENS = {
    "substructural": "-> \\/ /\\ * ! ~ ( ) x y' _1 1 0 bot top".split(),
    "girard": "^_|_ _|_ (+) (x) -o & ! ~ ( ) 0g x y' 1 top bot".split(),
}
JUNK = ["$", "^", "-", ">", "2", "0gx", " "]


def parse_outcome(parse_with, render_with, text, notation):
    """The tree and both renderings, or the error message and position."""
    try:
        f = parse_with(text, notation)
    except ParseError as err:
        return str(err), err.position
    return f, render_with(f, "substructural"), render_with(f, "girard")


@settings(max_examples=1000)
@given(st.sampled_from(NOTATIONS), st.data())
def test_parse_matches_the_descent_parser(notation, data):
    words = data.draw(st.lists(st.sampled_from(SYNTAX_TOKENS[notation] + JUNK), max_size=14))
    text = "".join(words)
    assert parse_outcome(parse, render, text, notation) == parse_outcome(
        ref.parse, ref.render, text, notation
    ), text


def test_substitute_examples():
    s = {"x": BinOp("mul", Y, Z)}
    assert substitute(parse("x -> x"), s) == parse("y * z -> y * z")
    assert substitute(parse("x /\\ y"), {}) == parse("x /\\ y")
    assert substitute(Bang(X), {"x": ONE}) == Bang(ONE)


def test_free_variables():
    assert free_variables(parse("x -> (y /\\ x)")) == {"x", "y"}
    assert free_variables(ONE) == set()
    assert free_variables(parse("!x * top")) == {"x"}


def test_size_depth_key():
    f = parse("!x * y")
    assert size(f) == 4
    assert depth(f) == 2
    assert structural_key(X) < structural_key(ONE) < structural_key(f)


DEEP_SHAPES = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "bangs": lambda n: "!" * n + "x",
    "negations": lambda n: "~" * n + "x",
    "implications": lambda n: " -> ".join(["x"] * (n + 1)),
    "products": lambda n: " * ".join(["x"] * (n + 1)),
    "guarded-implications": lambda n: "!" * (n % 2) + "!(x -> " * (n // 2) + "x" + ")" * (n // 2),
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_nesting_bound(shape):
    from girale.construct import SIGNATURE_FULL, build_R
    from girale.group import make_group
    from girale.semantics import eval_formula, valid

    algebra = build_R(make_group([2]), SIGNATURE_FULL)
    f = parse(DEEP_SHAPES[shape](MAX_NESTING))
    # every recursive walker survives the deepest accepted formula
    assert parse(render(f)) == f
    assert free_variables(f) == {"x"} and depth(f) <= MAX_NESTING
    eval_formula(algebra, f, {"x": 0})
    valid(algebra, f)  # the vectorized evaluator
    with pytest.raises(ParseError, match="nest deeper"):
        parse(DEEP_SHAPES[shape](MAX_NESTING + 1))


names = st.sampled_from(["x", "y", "z", "u", "v2", "w'"])
atoms = st.one_of(names.map(Var), st.sampled_from(CONSTS).map(Const))
formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        sub.map(Bang),
        st.tuples(st.sampled_from(OPS), sub, sub).map(lambda t: BinOp(*t)),
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(formulas, st.sampled_from(NOTATIONS))
def test_round_trip(f, notation):
    assert parse(render(f, notation), notation) == f


@settings(max_examples=150)
@given(formulas)
def test_notation_transport(f):
    via_girard = parse(render(f, "girard"), "girard")
    via_sub = parse(render(f, "substructural"), "substructural")
    assert via_girard == via_sub == f


@settings(max_examples=150)
@given(
    formulas,
    st.dictionaries(names, formulas, max_size=3),
    st.dictionaries(names, formulas, max_size=3),
)
def test_substitution_composes(f, s, t):
    composed = {v: substitute(expr, t) for v, expr in s.items()}
    for v, expr in t.items():
        composed.setdefault(v, expr)
    assert substitute(substitute(f, s), t) == substitute(f, composed)


@settings(max_examples=100)
@given(formulas)
def test_json_round_trip(f):
    assert ref.formula_from_dict(formula_to_dict(f)) == f


def _preorder(f) -> list[tuple]:
    """One token per node in preorder: variables, then constants in the order
    1, 0, bot, top, then and < or < mul < imp, then bang.  Each tag fixes its
    node's arity, so no formula's list is a proper prefix of another's, and
    comparing two lists compares the trees node by node."""
    if isinstance(f, Var):
        return [(0, f.name)]
    if isinstance(f, Const):
        return [(1, ("1", "0", "bot", "top").index(f.symbol))]
    if isinstance(f, BinOp):
        return [(2, ("and", "or", "mul", "imp").index(f.op)), *_preorder(f.left), *_preorder(f.right)]
    return [(3,), *_preorder(f.child)]


def _compare(a, b) -> int:
    return (a > b) - (a < b)


# pairs that differ deep inside as well as at the root: small formulas over
# two variables, which often share all but a few nodes, and f against f with
# every occurrence of one variable replaced
small_formulas = st.recursive(
    st.sampled_from([X, Y]),
    lambda sub: st.one_of(
        sub.map(Bang),
        st.tuples(st.sampled_from(OPS), sub, sub).map(lambda t: BinOp(*t)),
    ),
    max_leaves=4,
)
formula_pairs = st.one_of(
    st.tuples(formulas, formulas),
    st.tuples(small_formulas, small_formulas),
    st.tuples(formulas, names, formulas).map(lambda t: (t[0], substitute(t[0], {t[1]: t[2]}))),
)


@settings(max_examples=500)
@given(formula_pairs)
def test_structural_key_orders_as_the_preorder_tokens(pair):
    f, g = pair
    # the key's order against the token lists', and equal keys only for one node
    assert _compare(structural_key(f), structural_key(g)) == _compare(_preorder(f), _preorder(g))
    assert (structural_key(f) == structural_key(g)) == (f is g)


@settings(max_examples=200)
@given(formulas)
def test_cached_hash_matches_the_structure(f):
    # one node per structure
    twin = ref.formula_from_dict(formula_to_dict(f))
    assert twin is f and twin == f and hash(twin) == hash(f)


def test_caches_leave_fields_and_repr_alone():
    f = parse("!x * (y -> 0)")
    before = repr(f)
    hash(f), structural_key(f)
    assert repr(f) == before == (
        "BinOp(op='mul', left=Bang(child=Var(name='x')), "
        "right=BinOp(op='imp', left=Var(name='y'), right=Const(symbol='0')))"
    )
    shapes = {Var: ["name"], Const: ["symbol"], Bang: ["child"], BinOp: ["op", "left", "right"]}
    for cls, names in shapes.items():
        assert [field.name for field in dataclasses.fields(cls)] == names


_DUMP = """
import pickle, sys
from girale.formula import parse, structural_key
f = parse(sys.argv[1])
hash(f), structural_key(f)
sys.stdout.buffer.write(pickle.dumps(f))
"""

_LOAD = """
import pickle, sys
from girale.formula import parse
f = pickle.loads(sys.stdin.buffer.read())
print(hash(f) == hash(parse(sys.argv[1])), f == parse(sys.argv[1]))
"""


def test_pickling_drops_the_cached_hash():
    """A hash cached under one PYTHONHASHSEED must not survive into another."""
    text = "x * (y -> z) /\\ !(w \\/ 1)"
    src = str(Path(__import__("girale").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "1"}
    data = subprocess.run(
        [sys.executable, "-c", _DUMP, text], env=env, capture_output=True, check=True
    ).stdout
    assert hash(pickle.loads(data)) == hash(parse(text))
    env["PYTHONHASHSEED"] = "2"
    out = subprocess.run(
        [sys.executable, "-c", _LOAD, text], env=env, input=data, capture_output=True, check=True
    ).stdout
    assert out.split() == [b"True", b"True"]


@settings(max_examples=300)
@given(formulas, st.sampled_from(NOTATIONS))
def test_parse_gives_back_the_one_node(f, notation):
    assert parse(render(f, notation), notation) is f


@settings(max_examples=100)
@given(formulas)
def test_copies_give_back_the_one_node(f):
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    assert substitute(f, {}) is f


def test_the_table_forgets_a_dropped_node():
    """Reference counting alone frees the nodes and their entries: the
    cyclic collector stays off."""
    name = "fresh_name_of_this_test"
    enabled = gc.isenabled()
    gc.disable()
    try:
        f = parse(f"!({name} * {name}) -> {name}")
        nodes = [weakref.ref(node) for node in (f, f.left, f.left.child, f.right)]
        assert (Var, name) in formula_module._TABLE
        del f
        assert [node() for node in nodes] == [None] * 4
        assert (Var, name) not in formula_module._TABLE
        assert all(node() is not None for node in formula_module._TABLE.values())
    finally:
        if enabled:
            gc.enable()


def test_nodes_stay_frozen():
    f = parse("x * y")
    for field, value in (("op", "and"), ("left", Y)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, field, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        X.name = "y"
    assert f == BinOp("mul", X, Y) and X.name == "x"


def test_unknown_symbols_keep_their_messages():
    with pytest.raises(ValueError, match=r"^Unknown constant '2'\.$"):
        Const("2")
    with pytest.raises(ValueError, match=r"^Unknown connective 'xor'\.$"):
        BinOp("xor", X, Y)
