"""Fuzz the CLI input layer: mutated JSON files and numeric flags.

No input may crash the CLI: every run ends in exit 0-3 with no traceback,
and exit 1 (a false judgment) comes only with a countermodel or a false
verdict in the payload.  Exit 4 (internal error) is a bug here.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from girale.algebra import algebra_to_json, trivial_algebra
from girale.cli import run
from girale.construct import SIGNATURE_FULL, build_R
from girale.group import make_group

ALGEBRA = algebra_to_json(build_R(make_group([2]), SIGNATURE_FULL))
SPAN = {
    "A": algebra_to_json(trivial_algebra()),
    "B": algebra_to_json(build_R(make_group([2]))),
    "C": algebra_to_json(build_R(make_group([3]))),
    "phi1": [0],
    "phi2": [0],
}
DERIVATION = {
    "system": "LL",
    "premises": [],
    "steps": [
        {"formula": "1", "rule": "A12"},
        {"formula": "1 -> (x -> x)", "rule": "A13"},
        {"formula": "x -> x", "rule": "mp", "refs": [1, 2]},
    ],
}

# verbs run on each kind of mutated file; {file} is the file's path
VERBS = {
    "algebra": [
        ["check-class", "--algebra", "{file}"],
        ["member-k", "--algebra", "{file}", "--primes", "2"],
        ["eval", "--algebra", "{file}", "--formula", "!x * y", "--assign", "x=0,y=1"],
        ["consequence", "--algebras", "{file}", "--premises", "x", "--conclusion", "x * x"],
        ["congruences", "--algebra", "{file}"],
        ["homs", "--source", "{file}", "--target", "{file}"],
    ],
    "group": [["build", "--group-file", "{file}", "--sig", "full"]],
    "span": [["amalgamate", "--span", "{file}", "--primes", "5"]],
    "derivation": [["check-proof", "--file", "{file}"]],
}
DOCUMENTS = {
    "algebra": ALGEBRA,
    "group": {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["1", "a", "a2"]},
    "span": SPAN,
    "derivation": DERIVATION,
}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.floats(),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda sub: st.lists(sub, max_size=3) | st.dictionaries(st.text(max_size=3), sub, max_size=3),
    max_leaves=6,
)


def _locations(doc):
    """Every (container, key) slot of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield doc, key
        yield from _locations(value)


@st.composite
def mutated(draw, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_locations(doc))
        if not slots:
            return draw(json_values)
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            container[key] = draw(json_values)
        else:
            del container[key]
    return doc


# small values, and values far past every bound: a depth past 5 changes no
# candidate size, and no catalog group is larger than GIRALE_MAX_SIZE
numeric_runs = st.one_of(
    (st.integers(-3, 2) | st.integers(10**6, 10**15)).map(
        lambda d: ["interpolate", "--algebras", "{file}", "--premise", "x /\\ y",
                   "--conclusion", "x \\/ z", "--mode", "guarded", "--depth", str(d)]
    ),
    st.integers(-3, 6).map(
        lambda b: ["prove", "--sequent", "x, x -> y => y * 1", "--bound", str(b)]
    ),
    (st.integers(-3, 4) | st.integers(67, 10**15)).map(
        lambda m: ["catalog", "--primes", "2", "--max-order", str(m), "--sig", "none", "--spans"]
    ),
)


@st.composite
def cli_runs(draw):
    """(argv, file contents) pairs: a mutated file under a verb, or a numeric flag."""
    kind = draw(st.sampled_from(sorted(VERBS) + ["flags"]))
    if kind == "flags":
        return draw(numeric_runs), ALGEBRA
    return draw(st.sampled_from(VERBS[kind])), draw(mutated(DOCUMENTS[kind]))


def _false_verdict(result: dict) -> bool:
    return (
        "countermodel" in result
        or any(result.get(key) is False for key in ("passed", "member", "valid", "holds"))
        or result.get("status") in ("refuted", "unprovable")
        or bool(result.get("failures"))
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(cli_runs())
def test_cli_never_crashes(tmp_path, capsys, case):
    argv, contents = case
    path = tmp_path / "input.json"
    path.write_text(json.dumps(contents))
    code = run([arg.replace("{file}", str(path)) for arg in argv] + ["--json"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code in (0, 1, 2, 3), captured.out
    if code == 1:
        assert _false_verdict(json.loads(captured.out)["result"]), captured.out
