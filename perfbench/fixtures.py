"""Fixed inputs shared with the acceptance suite (criteria 08, 09 and 10).

They are copied here, not imported from ``tests/``, so that the benchmark's
inputs stay the same while the test suite evolves.
"""

PROVABLE_SEQUENTS = [
    "x => x",
    "=> 1",
    "x, y => x * y",
    "x, y => y * x",
    "x, x -> y => y",
    "x -> y, x => y",
    "x /\\ y => x",
    "x /\\ y => y",
    "x => x \\/ y",
    "y => x \\/ y",
    "=> x -> x",
    "=> 1 -> (x -> x)",
    "x * y => y * x",
    "x * (y * z) => (x * y) * z",
    "(x * y) * z => x * (y * z)",
    "x, y -> z, x -> y => z",
    "x * (x -> y) => y",
    "x -> y => (z -> x) -> (z -> y)",
    "x -> y => (y -> z) -> (x -> z)",
    "x /\\ (y /\\ z) => (x /\\ y) /\\ z",
    "x \\/ y => y \\/ x",
    "x * (y \\/ z) => (x * y) \\/ (x * z)",
    "(x * y) \\/ (x * z) => x * (y \\/ z)",
    "(x -> y) /\\ (x -> z) => x -> (y /\\ z)",
    "x -> (y /\\ z) => (x -> y) /\\ (x -> z)",
    "1, x => x",
    "0 =>",
    "x, x -> 0 =>",
    "x, x -> 0 => 0",
    "=> (x * y) -> (y * x)",
    "x \\/ x => x",
    "x => x /\\ x",
]

REFUTABLE_SEQUENTS = [
    "x => x * x",
    "x, y => x",
    "x * x => x",
    "=> x \\/ (x -> 0)",
    "x \\/ y => x * y",
]

INTERPOLATION_FIXTURES = [
    ("x /\\ y", "x"),
    ("x /\\ y", "x \\/ z"),
    ("x * (x -> y)", "y \\/ z"),
    ("x", "x \\/ y"),
    ("x * y", "y * x"),
    ("x /\\ (y /\\ z)", "x /\\ y"),
    ("x", "y -> x * y"),
    ("(x * y) * z", "x * (y * z)"),
    ("!x", "x"),
    ("x /\\ 1", "x"),
    ("(x /\\ y) /\\ z", "x \\/ u"),
    ("x * (y /\\ 1)", "x * y"),
    ("!(x /\\ y)", "!x"),
    ("x \\/ y", "y \\/ x"),
    ("x * 1", "x"),
    ("x", "1 -> x"),
    ("(x \\/ y) * z", "(x * z) \\/ (y * z)"),
    ("!x * !y", "!(x /\\ y)"),
    ("!x", "!!x"),
    ("~~x", "x"),
]

CANONICAL_SIGNATURES = [
    frozenset(),
    frozenset({"0"}),
    frozenset({"0", "bot", "top"}),
    frozenset({"0", "bot", "top", "bang"}),
]
