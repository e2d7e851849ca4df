"""Regenerate the shipped Hilbert derivation corpus.

Every entry is checked against its system and evaluated for validity on the
full girale catalog (group orders up to 6) before being written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from girale.construct import SIGNATURE_FULL, build_R
from girale.group import abelian_group_catalog, make_group
from girale.proofs import SYSTEMS, Step, check_derivation
from girale.formula import parse, render
from girale.semantics import valid

# (name, system, steps); each step is (formula, rule) or (formula, rule, refs)
CORPUS = [
    ("axiom-A1", "RLe", [("x -> x", "A1")]),
    ("axiom-A2", "RLe", [("x /\\ y -> x", "A2")]),
    ("axiom-A3", "RLe", [("x /\\ y -> y", "A3")]),
    ("axiom-A4", "RLe", [("x -> x \\/ y", "A4")]),
    ("axiom-A5", "RLe", [("y -> x \\/ y", "A5")]),
    ("axiom-A6", "RLe", [("(x -> y) -> ((y -> z) -> (x -> z))", "A6")]),
    ("axiom-A7", "RLe", [("(x -> (y -> z)) -> (y -> (x -> z))", "A7")]),
    ("axiom-A8", "RLe", [("(x -> y) /\\ (x -> z) -> (x -> y /\\ z)", "A8")]),
    ("axiom-A9", "RLe", [("(x -> z) /\\ (y -> z) -> (x \\/ y -> z)", "A9")]),
    ("axiom-A10", "RLe", [("x -> (y -> x * y)", "A10")]),
    ("axiom-A11", "RLe", [("(x -> (y -> z)) -> (x * y -> z)", "A11")]),
    ("axiom-A12", "RLe", [("1", "A12")]),
    ("axiom-A13", "RLe", [("1 -> (x -> x)", "A13")]),
    ("axiom-Abot", "MALL", [("x -> top", "Abot")]),
    ("axiom-Atop", "MALL", [("bot -> x", "Atop")]),
    ("axiom-A0", "MALL", [("~0", "A0")]),
    ("axiom-NC", "MALL", [("x -> (~x -> 0)", "NC")]),
    ("axiom-DN", "MALL", [("~~x -> x", "DN")]),
    ("axiom-Con", "MALL", [("(x -> ~y) -> (y -> ~x)", "Con")]),
    ("axiom-guard-w", "LL", [("y -> (!x -> y)", "!w")]),
    ("axiom-guard-i", "LL", [("(!x -> (!x -> y)) -> (!x -> y)", "!i")]),
    ("axiom-guard-K", "LL", [("!(x -> y) -> (!x -> !y)", "!K")]),
    ("axiom-guard-T", "LL", [("!x -> x", "!T")]),
    ("axiom-guard-4", "LL", [("!x -> !!x", "!4")]),
    (
        "mp-identity",
        "RLe",
        [("1", "A12"), ("1 -> (x -> x)", "A13"), ("x -> x", "mp", (1, 2))],
    ),
    ("identity-fusion-instance", "RLe", [("x * y -> x * y", "A1")]),
    ("identity-join-instance", "RLe", [("1 -> (x \\/ y -> x \\/ y)", "A13")]),
    (
        "fusion-commuted-intro",
        "RLe",
        [
            ("x -> (y -> x * y)", "A10"),
            ("(x -> (y -> x * y)) -> (y -> (x -> x * y))", "A7"),
            ("y -> (x -> x * y)", "mp", (1, 2)),
        ],
    ),
    (
        "fusion-reflexive",
        "RLe",
        [
            ("x -> (y -> x * y)", "A10"),
            ("(x -> (y -> x * y)) -> (x * y -> x * y)", "A11"),
            ("x * y -> x * y", "mp", (1, 2)),
        ],
    ),
    ("adjoined-units", "RLe", [("1", "A12"), ("1", "A12"), ("1 /\\ 1", "adj", (1, 2))]),
    (
        "meet-reflexive",
        "RLe",
        [
            ("x /\\ y -> x", "A2"),
            ("x /\\ y -> y", "A3"),
            ("(x /\\ y -> x) /\\ (x /\\ y -> y)", "adj", (1, 2)),
            ("(x /\\ y -> x) /\\ (x /\\ y -> y) -> (x /\\ y -> x /\\ y)", "A8"),
            ("x /\\ y -> x /\\ y", "mp", (3, 4)),
        ],
    ),
    (
        "join-reflexive",
        "RLe",
        [
            ("x -> x \\/ y", "A4"),
            ("y -> x \\/ y", "A5"),
            ("(x -> x \\/ y) /\\ (y -> x \\/ y)", "adj", (1, 2)),
            ("(x -> x \\/ y) /\\ (y -> x \\/ y) -> (x \\/ y -> x \\/ y)", "A9"),
            ("x \\/ y -> x \\/ y", "mp", (3, 4)),
        ],
    ),
    (
        "meet-to-join",
        "RLe",
        [
            ("x /\\ y -> x", "A2"),
            ("(x /\\ y -> x) -> ((x -> x \\/ z) -> (x /\\ y -> x \\/ z))", "A6"),
            ("(x -> x \\/ z) -> (x /\\ y -> x \\/ z)", "mp", (1, 2)),
            ("x -> x \\/ z", "A4"),
            ("x /\\ y -> x \\/ z", "mp", (4, 3)),
        ],
    ),
    (
        "unit-fusion-intro",
        "RLe",
        [
            ("1", "A12"),
            ("1 -> (y -> 1 * y)", "A10"),
            ("y -> 1 * y", "mp", (1, 2)),
        ],
    ),
    (
        "top-theorem",
        "MALL",
        [("1", "A12"), ("1 -> top", "Abot"), ("top", "mp", (1, 2))],
    ),
    (
        "bounds-compose",
        "MALL",
        [
            ("bot -> x", "Atop"),
            ("x -> top", "Abot"),
            ("(bot -> x) -> ((x -> top) -> (bot -> top))", "A6"),
            ("(x -> top) -> (bot -> top)", "mp", (1, 3)),
            ("bot -> top", "mp", (2, 4)),
        ],
    ),
    (
        "zero-bounds-compose",
        "MALL",
        [
            ("bot -> 0", "Atop"),
            ("~0", "A0"),
            ("(bot -> 0) -> ((0 -> 0) -> (bot -> 0))", "A6"),
            ("(0 -> 0) -> (bot -> 0)", "mp", (1, 3)),
            ("bot -> 0", "mp", (2, 4)),
        ],
    ),
    (
        "double-negation-identity",
        "MALL",
        [
            ("x -> (~x -> 0)", "NC"),
            ("~~x -> x", "DN"),
            ("(x -> (~x -> 0)) -> (((~x -> 0) -> x) -> (x -> x))", "A6"),
            ("((~x -> 0) -> x) -> (x -> x)", "mp", (1, 3)),
            ("x -> x", "mp", (2, 4)),
        ],
    ),
    (
        "contraposition-compose",
        "MALL",
        [
            ("(x -> ~y) -> (y -> ~x)", "Con"),
            ("(y -> ~x) -> (x -> ~y)", "Con"),
            (
                "((x -> ~y) -> (y -> ~x)) -> (((y -> ~x) -> (x -> ~y)) -> ((x -> ~y) -> (x -> ~y)))",
                "A6",
            ),
            (
                "((y -> ~x) -> (x -> ~y)) -> ((x -> ~y) -> (x -> ~y))",
                "mp",
                (1, 3),
            ),
            ("(x -> ~y) -> (x -> ~y)", "mp", (2, 4)),
        ],
    ),
    (
        "swap-twice",
        "RLe",
        [
            ("(x -> (y -> z)) -> (y -> (x -> z))", "A7"),
            ("(y -> (x -> z)) -> (x -> (y -> z))", "A7"),
            (
                "((x -> (y -> z)) -> (y -> (x -> z))) -> (((y -> (x -> z)) -> (x -> (y -> z))) -> ((x -> (y -> z)) -> (x -> (y -> z))))",
                "A6",
            ),
            (
                "((y -> (x -> z)) -> (x -> (y -> z))) -> ((x -> (y -> z)) -> (x -> (y -> z)))",
                "mp",
                (1, 3),
            ),
            ("(x -> (y -> z)) -> (x -> (y -> z))", "mp", (2, 4)),
        ],
    ),
    ("nec-unit", "LL", [("1", "A12"), ("!1", "nec", (1,))]),
    (
        "nec-identity",
        "LL",
        [
            ("1", "A12"),
            ("1 -> (x -> x)", "A13"),
            ("x -> x", "mp", (1, 2)),
            ("!(x -> x)", "nec", (3,)),
        ],
    ),
    (
        "guard-distribution",
        "LL",
        [
            ("1", "A12"),
            ("1 -> (x -> x)", "A13"),
            ("x -> x", "mp", (1, 2)),
            ("!(x -> x)", "nec", (3,)),
            ("!(x -> x) -> (!x -> !x)", "!K"),
            ("!x -> !x", "mp", (4, 5)),
        ],
    ),
    (
        "guard-weakened-unit",
        "LL",
        [
            ("1", "A12"),
            ("1 -> (!x -> 1)", "!w"),
            ("!x -> 1", "mp", (1, 2)),
        ],
    ),
    (
        "guard-composition",
        "LL",
        [
            ("!x -> !!x", "!4"),
            ("!!x -> !x", "!T"),
            ("(!x -> !!x) -> ((!!x -> !x) -> (!x -> !x))", "A6"),
            ("(!!x -> !x) -> (!x -> !x)", "mp", (1, 3)),
            ("!x -> !x", "mp", (2, 4)),
        ],
    ),
    (
        "guard-to-join",
        "LL",
        [
            ("!x -> x", "!T"),
            ("(!x -> x) -> ((x -> x \\/ y) -> (!x -> x \\/ y))", "A6"),
            ("(x -> x \\/ y) -> (!x -> x \\/ y)", "mp", (1, 2)),
            ("x -> x \\/ y", "A4"),
            ("!x -> x \\/ y", "mp", (4, 3)),
        ],
    ),
    (
        "guard-contraction",
        "LL",
        [
            ("!x -> (!x -> !x * !x)", "A10"),
            ("(!x -> (!x -> !x * !x)) -> (!x -> !x * !x)", "!i"),
            ("!x -> !x * !x", "mp", (1, 2)),
        ],
    ),
    (
        "nec-adjoined",
        "LL",
        [
            ("1", "A12"),
            ("1", "A12"),
            ("1 /\\ 1", "adj", (1, 2)),
            ("!(1 /\\ 1)", "nec", (3,)),
        ],
    ),
    (
        "unit-meet-theorem",
        "RLe",
        [
            ("1", "A12"),
            ("1 -> (x -> x)", "A13"),
            ("x -> x", "mp", (1, 2)),
            ("1 /\\ (x -> x)", "adj", (1, 3)),
        ],
    ),
    (
        "curry-fusion-join",
        "RLe",
        [("(x \\/ y -> (y -> z)) -> ((x \\/ y) * y -> z)", "A11")],
    ),
    ("meet-lower-guarded", "LL", [("!x /\\ top -> !x", "A2")]),
    ("zero-identity", "FLe", [("0 -> 0", "A1")]),
    ("one-joins", "RLe", [("1 -> 1 \\/ x", "A4")]),
]


def to_steps(raw) -> tuple[Step, ...]:
    steps = []
    for item in raw:
        formula, rule = item[0], item[1]
        refs = tuple(item[2]) if len(item) > 2 else ()
        steps.append(Step(parse(formula), rule, refs))
    return tuple(steps)


def steps_to_json(steps: tuple[Step, ...]) -> list[dict]:
    out = []
    for step in steps:
        entry: dict = {"formula": render(step.formula), "rule": step.rule}
        if step.refs:
            entry["refs"] = list(step.refs)
        out.append(entry)
    return out


def main() -> None:
    girales = [
        build_R(make_group(chain or [1]), SIGNATURE_FULL)
        for chain in abelian_group_catalog(6)
    ]
    entries = []
    names = set()
    for name, system_name, raw in CORPUS:
        assert name not in names, f"duplicate name {name}"
        names.add(name)
        steps = to_steps(raw)
        report = check_derivation(steps, SYSTEMS[system_name])
        assert report.valid, f"{name}: {report.describe()}"
        theorem = steps[-1].formula
        for A in girales:
            outcome = valid(A, theorem)
            assert outcome.holds, f"{name}: fails on a girale ({outcome.countermodel})"
        entries.append(
            {"name": name, "system": system_name, "steps": steps_to_json(steps)}
        )
    used_rules = {s.rule for _, _, raw in CORPUS for s in to_steps(raw)}
    from girale.proofs import SCHEMES

    missing = set(SCHEMES) - used_rules
    assert not missing, f"schemes never used: {missing}"
    assert {"mp", "adj", "nec"} <= used_rules
    out = Path(__file__).resolve().parents[1] / "src/girale/data/hilbert_corpus.json"
    out.write_text(
        json.dumps({"derivations": entries}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} derivations to {out}")


if __name__ == "__main__":
    main()
