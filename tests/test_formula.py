import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    formula_from_dict,
    formula_to_dict,
    parse,
    render,
    size,
    structural_key,
    substitute,
)


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


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x -> $")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("x y")
    with pytest.raises(ParseError):
        parse("0", "girard")  # girard's lattice bottom is spelled 0g
    with pytest.raises(ParseError):
        parse("x (+) y")  # join spelled \/ in substructural notation
    with pytest.raises(ParseError):
        parse("bot", "girard")


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
    assert formula_from_dict(formula_to_dict(f)) == f
