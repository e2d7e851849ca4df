import json
import time
from pathlib import Path

import pytest

from girale.cli import run


def invoke(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def invoke_json(capsys, argv):
    code, out = invoke(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_parse_command(capsys):
    code, doc = invoke_json(capsys, ["parse", "x -o x", "--notation", "girard"])
    assert code == 0
    assert doc["result"]["rendered"]["substructural"] == "x -> x"
    assert doc["meta"]["version"]
    assert doc["meta"]["inputs"]


def test_parse_error_is_usage(capsys):
    code, doc = invoke_json(capsys, ["parse", "x ->"])
    assert code == 2
    assert "error" in doc["result"]


def test_output_determinism(capsys):
    first = invoke(capsys, ["build", "--group", "3", "--sig", "full", "--json"])
    second = invoke(capsys, ["build", "--group", "3", "--sig", "full", "--json"])
    assert first == second


def test_build_writes_algebra(tmp_path, capsys):
    out = tmp_path / "r_z3.json"
    code, doc = invoke_json(
        capsys, ["build", "--group", "3", "--sig", "full", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["size"] == 5
    assert data["names"] == ["1", "a", "a2", "bot", "top"]
    assert doc["result"]["algebra"]["size"] == 5


def test_build_capacity_exit_code(capsys):
    code, doc = invoke_json(capsys, ["build", "--group", "100", "--sig", "none"])
    assert code == 3


def test_catalog_refuses_an_order_past_the_bound_before_listing(capsys):
    """No group above GIRALE_MAX_SIZE can be made, so a larger --max-order is
    refused before its invariant-factor chains are listed."""
    started = time.perf_counter()
    code, doc = invoke_json(capsys, ["catalog", "--primes", "2", "--max-order", "100000000"])
    assert code == 3
    assert doc["result"]["error"] == "catalog group has size 100000000, exceeding the bound 66."
    assert time.perf_counter() - started < 1


def test_check_class_and_member(tmp_path, capsys):
    algebra = tmp_path / "a.json"
    invoke(capsys, ["build", "--group", "3", "--sig", "full", "--out", str(algebra)])
    code, doc = invoke_json(capsys, ["check-class", "--algebra", str(algebra), "--tag", "girale"])
    assert code == 0 and doc["result"]["passed"]
    code, doc = invoke_json(capsys, ["member-k", "--algebra", str(algebra), "--primes", "2"])
    assert code == 0 and doc["result"]["member"]
    code, doc = invoke_json(capsys, ["member-k", "--algebra", str(algebra), "--primes", "3"])
    assert code == 1 and not doc["result"]["member"]
    assert doc["result"]["failed"] == "sigma-3"


def test_consequence_countermodel(tmp_path, capsys):
    algebra = tmp_path / "r_z2.json"
    invoke(capsys, ["build", "--group", "2", "--sig", "none", "--out", str(algebra)])
    code, doc = invoke_json(
        capsys,
        [
            "consequence",
            "--algebras",
            str(algebra),
            "--premises",
            "x*y",
            "--conclusion",
            "x",
        ],
    )
    assert code == 1
    assert doc["result"]["countermodel"] == {"x": "a", "y": "a"}


def test_eval_command(tmp_path, capsys):
    algebra = tmp_path / "g.json"
    invoke(capsys, ["build", "--group", "3", "--sig", "full", "--out", str(algebra)])
    code, doc = invoke_json(
        capsys,
        ["eval", "--algebra", str(algebra), "--formula", "!x", "--assign", "x=a"],
    )
    assert code == 0
    assert doc["result"]["name"] == "bot"


@pytest.mark.parametrize(
    "token, element",
    [("1", {"element": 0, "name": "1"}), ("3", {"element": 3, "name": "top"}),
     ("a,,", {"element": 1, "name": "a"})],
)
def test_eval_integer_element_token(tmp_path, capsys, token, element):
    """An assignment reads an element name first, then an index: in R(Z2),
    x=1 is the unit, named "1", and x=3 is top, which no name spells.
    Empty items are skipped."""
    algebra = tmp_path / "g.json"
    algebra.write_text(json.dumps(ALG))
    argv = ["eval", "--algebra", str(algebra), "--formula", "x", "--assign", f"x={token}"]
    code, doc = invoke_json(capsys, argv)
    assert code == 0
    assert doc["result"] == element


def test_congruences_command(tmp_path, capsys):
    algebra = tmp_path / "g.json"
    invoke(capsys, ["build", "--group", "2", "--sig", "none", "--out", str(algebra)])
    code, doc = invoke_json(capsys, ["congruences", "--algebra", str(algebra)])
    assert code == 0
    assert doc["result"] == {"count": 2, "fsi": True, "simple": True}


def test_congruences_output_pinned(capsys, monkeypatch):
    """Byte-identical --json on R(Z2) x R(Z3): 20 elements, 4 congruences,
    neither simple nor FSI."""
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data)
    code, out = invoke(capsys, ["congruences", "--algebra", "r_z2_x_r_z3_full.json", "--json"])
    assert code == 0
    assert out == (data / "congruences-z2-x-z3.json").read_text()


def test_homs_command(tmp_path, capsys):
    algebra = tmp_path / "g.json"
    invoke(capsys, ["build", "--group", "2", "--sig", "none", "--out", str(algebra)])
    code, doc = invoke_json(
        capsys, ["homs", "--source", str(algebra), "--target", str(algebra)]
    )
    assert code == 0 and doc["result"]["count"] == 2


def test_prove_command(capsys):
    code, doc = invoke_json(capsys, ["prove", "--sequent", "x, x -> y => y", "--bound", "8"])
    assert code == 0
    assert doc["result"]["status"] == "proved" and doc["result"]["revalidated"]
    code, doc = invoke_json(capsys, ["prove", "--sequent", "x => x * x", "--bound", "12"])
    assert code == 1
    assert doc["result"]["status"] == "refuted"
    assert doc["result"]["countermodel"] == {"x": "a"}


def test_prove_unknown_is_not_a_false_judgment(capsys):
    # provable, but not within bound 1, and no countermodel exists
    code, doc = invoke_json(capsys, ["prove", "--sequent", "x, x -> y => y * 1", "--bound", "1"])
    assert code == 0
    assert doc["result"] == {
        "status": "unknown",
        "bound": 1,
        "note": "search cut off at the bound; not a proof or a refutation",
    }


def test_prove_exhaustive_failure_is_unprovable(capsys):
    # double negation elimination: no cut-free FLe proof, yet valid in R(Z2), R(Z3)
    code, doc = invoke_json(capsys, ["prove", "--sequent", "(x -> 0) -> 0 => x", "--bound", "12"])
    assert code == 1
    assert doc["result"]["status"] == "unprovable"
    assert "exhaustive cut-free search" in doc["result"]["note"]
    # decided at bound 1 too: the one premise, => x -> 0, has x unbalanced
    code, doc = invoke_json(capsys, ["prove", "--sequent", "(x -> 0) -> 0 => x", "--bound", "1"])
    assert code == 1 and doc["result"]["status"] == "unprovable"
    # balanced, and provable only deeper than bound 1, so not decided
    code, doc = invoke_json(capsys, ["prove", "--sequent", "x, x -> y => y * 1", "--bound", "1"])
    assert code == 0 and doc["result"]["status"] == "unknown"


NINE_ATOMS = ", ".join(f"a{i}" for i in range(9)) + " => b * c"
ELEVEN_BALANCED = ", ".join(f"a{i}" for i in range(9)) + ", b, c => " + " * ".join(
    [f"a{i}" for i in range(9)] + ["b", "c"]
)


def test_prove_over_capacity_countermodel_search_keeps_a_decided_verdict(capsys):
    # 11 variables over R(Z2) overflow the assignment grid; the search itself
    # already failed without a cut-off, so the sequent is unprovable
    code, doc = invoke_json(capsys, ["prove", "--sequent", NINE_ATOMS, "--bound", "12"])
    assert code == 1
    assert doc["result"] == {
        "status": "unprovable",
        "bound": 12,
        "note": "certificate: exhaustive cut-free search, no proof at any depth",
    }
    # every atom balances, and the sequent is provable, only not within bound
    # 1: a cut-off failure rules out a countermodel, so none is searched for
    # and the over-capacity grid is never built
    code, doc = invoke_json(capsys, ["prove", "--sequent", ELEVEN_BALANCED, "--bound", "1"])
    assert code == 0
    assert doc["result"] == {
        "status": "unknown",
        "bound": 1,
        "note": "search cut off at the bound; not a proof or a refutation",
    }


def test_prove_without_exchange(capsys):
    # -> is the left residual: its argument must stand immediately to its left
    code, doc = invoke_json(
        capsys, ["prove", "--sequent", "x, x -> y => y", "--bound", "12", "--no-exchange"]
    )
    assert code == 0 and doc["result"]["status"] == "proved"
    assert doc["result"]["revalidated"]
    code, doc = invoke_json(
        capsys, ["prove", "--sequent", "x -> y, x => y", "--bound", "12", "--no-exchange"]
    )
    assert code == 1 and doc["result"]["status"] == "unprovable"
    code, doc = invoke_json(capsys, ["prove", "--sequent", "x -> y, x => y", "--bound", "12"])
    assert code == 0 and doc["result"]["status"] == "proved"


# name -> (argv, exit code), captured before the search ran over subformula codes;
# prove-cut-off since, when the count test decided its old sequent at bound 1;
# prove-decided-past-bound is cut off at bound 1 and decided past it
PROVE_PINNED = {
    "prove-arrow-times": (["--sequent", "x, y, x -> z => z * y"], 0),
    "prove-repeated": (["--sequent", "x, x, x -> y, x -> y => y * y"], 0),
    "prove-no-exchange": (["--sequent", "x, x -> y => y", "--no-exchange"], 0),
    "prove-unprovable": (["--sequent", "(x -> 0) -> 0 => x"], 1),
    "prove-refuted": (["--sequent", "a, a -> b, b -> c, c -> d => d * a"], 1),
    "prove-cut-off": (["--sequent", "x, x -> y => y * 1", "--bound", "1"], 0),
    "prove-decided-past-bound": (["--sequent", "1 =>", "--bound", "1"], 1),
}


@pytest.mark.parametrize("name", sorted(PROVE_PINNED))
def test_prove_output_pinned(capsys, name):
    """Byte-identical --json for proofs with ->l and *r, with and without
    exchange, and for unprovable, refuted and cut-off results."""
    argv, expected = PROVE_PINNED[name]
    bound = [] if "--bound" in argv else ["--bound", "12"]
    code, out = invoke(capsys, ["prove", *argv, *bound, "--json"])
    assert code == expected
    assert out == (Path(__file__).parent / "data" / f"{name}.json").read_text()


# name -> argv: one formula per notation that uses every token of that notation
PARSE_PINNED = {
    "parse-substructural": ["!(x * ~y') /\\ (bot \\/ top) -> 1 \\/ 0 * z2"],
    "parse-girard": [
        "!( x ) (x) ~y' & (0g (+) top) -o 1 (+) _|_ (x) z2^_|_", "--notation", "girard"
    ],
}


@pytest.mark.parametrize("name", sorted(PARSE_PINNED))
def test_parse_output_pinned(capsys, name):
    """Byte-identical --json for the tree and both renderings."""
    code, out = invoke(capsys, ["parse", *PARSE_PINNED[name], "--json"])
    assert code == 0
    assert out == (Path(__file__).parent / "data" / f"{name}.json").read_text()


@pytest.mark.parametrize(
    "algebra, tag",
    [("broken_signature", "auto"), ("broken_girale", "girale")],
)
def test_check_class_output_pinned(capsys, monkeypatch, algebra, tag):
    """Byte-identical --json for broken algebras, up to the 50 violations reported."""
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data)
    code, out = invoke(
        capsys, ["check-class", "--algebra", f"{algebra}.json", "--tag", tag, "--json"]
    )
    assert code == 1
    assert out == (data / f"{algebra}.check-class-{tag}.json").read_text()


_HOMS = {
    "homs-z2-z4-zero": ["--source", "r_z2_zero.json", "--target", "r_z4_zero.json"],
    "homs-z2-z2z2-full": ["--source", "r_z2_full.json", "--target", "r_z2z2_full.json"],
}
_INTERPOLATE = [
    "--algebras", "r_z3_full.json,r_z2z2_full.json",
    "--premise", "(x * y) /\\ u", "--conclusion", "(x * y) \\/ v", "--depth", "2",
]
PINNED = {
    **{name: ["homs", *argv] for name, argv in _HOMS.items()},
    **{f"{name}-injective": ["homs", *argv, "--injective"] for name, argv in _HOMS.items()},
    **{
        f"interpolate-{mode}": ["interpolate", *_INTERPOLATE, "--mode", mode]
        for mode in ("deductive", "craig", "guarded")
    },
    "interpolate-mixed-guard": ["interpolate", *_INTERPOLATE, "--mode", "guarded", "--mixed-guard"],
    "interpolate-exhausted": [
        "interpolate", "--algebras", "r_z2_full.json", "--premise", "x * y",
        "--conclusion", "x * y", "--mode", "craig", "--depth", "0",
    ],
    "interpolate-refused": [
        "interpolate", "--algebras", "r_z3_full.json,r_z2z2_full.json",
        "--premise", "!(x -> y) * x /\\ u", "--conclusion", "!y \\/ v", "--mode", "craig",
        "--depth", "3",
    ],
}


def test_interpolate_depth_past_five_caps_the_candidate_size(capsys, monkeypatch):
    """Any depth of 5 or more gives the candidate size cap 33, so a huge depth
    answers as depth 40 does, at once, without computing 2 ** (depth + 1)."""
    monkeypatch.chdir(Path(__file__).parent / "data")
    argv = ["interpolate", *_INTERPOLATE[:-2], "--mode", "craig", "--json", "--depth"]
    started = time.perf_counter()
    outputs = [invoke(capsys, argv + [depth]) for depth in ("40", "1000000000000")]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("name", sorted(PINNED))
def test_homs_and_interpolate_output_pinned(capsys, monkeypatch, name):
    """Byte-identical --json for hom enumeration and every interpolation reading."""
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data)
    code, out = invoke(capsys, PINNED[name] + ["--json"])
    assert code == (1 if name == "interpolate-refused" else 0)
    assert out == (data / f"{name}.json").read_text()


# name -> (argv, exit code): pushouts over a nontrivial A (the coset numbering
# shows in D's tables, its names c0.. and psi1/psi2), make_group's names and
# table, and check_sigma's witness
GROUP_PINNED = {
    "amalgamate-z2-z4-z2z2": (["amalgamate", "--span", "span-z2-z4-z2z2.json", "--primes", "3"], 0),
    "amalgamate-z3-z9-z9": (["amalgamate", "--span", "span-z3-z9-z9.json", "--primes", "2"], 0),
    "amalgamate-t-z2-z3": (["amalgamate", "--span", "span-t-z2-z3.json", "--primes", "5"], 0),
    "build-2-2-3-full": (["build", "--group", "2,2,3", "--sig", "full"], 0),
    "member-k-z3-p2": (["member-k", "--algebra", "r_z3_full.json", "--primes", "2"], 0),
    # z2z4.json is the file of `build --group 2,4 --sig full`: the group's name
    # comes from its invariant factors
    "member-k-z2z4-p3": (["member-k", "--algebra", "z2z4.json", "--primes", "3"], 0),
    "member-k-z3-p3": (["member-k", "--algebra", "r_z3_full.json", "--primes", "3"], 1),
    "member-k-z4-p2-3": (["member-k", "--algebra", "r_z4_zero.json", "--primes", "2,3"], 1),
    # R(Z3) over {0} with 0 moved from the unit to a: a structure mismatch, with no witness
    "member-k-z3-zero-at-a-p2": (["member-k", "--algebra", "r_z3_zero_at_a.json", "--primes", "2"], 1),
    # R(Z2) x R(Z3): its interior element (1|bot) is not invertible, so sentence 1 fails
    "member-k-z2-x-z3-p2-3": (["member-k", "--algebra", "r_z2_x_r_z3_full.json", "--primes", "2,3"], 1),
}


@pytest.mark.parametrize("name", sorted(GROUP_PINNED))
def test_group_layer_output_pinned(capsys, monkeypatch, name):
    """Byte-identical --json for pushouts, make_group and the sigma witness."""
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data)
    argv, expected = GROUP_PINNED[name]
    code, out = invoke(capsys, argv + ["--json"])
    assert code == expected
    assert out == (data / f"{name}.json").read_text()


# name -> (argv, exit code), captured while consequence still ran algebra by
# algebra: a catalog where the judgment holds, a countermodel in algebra 1,
# and a refutation in algebra 0 of a catalog whose algebra 1 lacks 0
CONSEQUENCE_PINNED = {
    "consequence-holds": (
        ["--algebras", "r_z3_full.json,r_z2z2_full.json", "--premises", "x", "--conclusion", "x \\/ y"], 0
    ),
    "consequence-algebra-1": (
        ["--algebras", "r_z3_full.json,r_z2z2_full.json", "--premises", "x * x", "--conclusion", "x"], 1
    ),
    "consequence-mixed-signature": (
        ["--algebras", "r_z3_full.json,r_z2_none.json", "--conclusion", "x -> 0"], 1
    ),
}


@pytest.mark.parametrize("name", sorted(CONSEQUENCE_PINNED))
def test_consequence_output_pinned(capsys, monkeypatch, name):
    """Byte-identical --json for consequence over two-algebra catalogs."""
    data = Path(__file__).parent / "data"
    monkeypatch.chdir(data)
    argv, expected = CONSEQUENCE_PINNED[name]
    code, out = invoke(capsys, ["consequence", *argv, "--json"])
    assert code == expected
    assert out == (data / f"{name}.json").read_text()


def test_interpolate_command(tmp_path, capsys):
    algebra = tmp_path / "g.json"
    invoke(capsys, ["build", "--group", "3", "--sig", "full", "--out", str(algebra)])
    code, doc = invoke_json(
        capsys,
        [
            "interpolate",
            "--algebras",
            str(algebra),
            "--premise",
            "x /\\ y",
            "--conclusion",
            "x \\/ z",
            "--mode",
            "guarded",
        ],
    )
    assert code == 0
    assert doc["result"]["status"] == "found"
    assert doc["result"]["interpolant"] == "x"


def test_check_proof_command(tmp_path, capsys):
    good = tmp_path / "d.json"
    good.write_text(
        json.dumps(
            [
                {"formula": "1", "rule": "A12"},
                {"formula": "1 -> (x -> x)", "rule": "A13"},
                {"formula": "x -> x", "rule": "mp", "refs": [1, 2]},
            ]
        )
    )
    code, doc = invoke_json(capsys, ["check-proof", "--file", str(good), "--system", "LL"])
    assert code == 0 and doc["result"]["valid"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"formula": "x -> y", "rule": "A1"}]))
    code, doc = invoke_json(capsys, ["check-proof", "--file", str(bad), "--system", "LL"])
    assert code == 1
    assert doc["result"]["step"] == 1


def test_repeated_input_keys_keep_every_hash(tmp_path, capsys):
    """Two files of one name, or two premises, each keep their hash in the
    header: the first under its key, later ones under key#2, key#3, ..."""
    import hashlib

    paths = []
    for folder, group in (("a", "2"), ("b", "3")):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "r.json")
        invoke(capsys, ["build", "--group", group, "--sig", "none", "--out", str(paths[-1])])
    argv = ["consequence", "--algebras", ",".join(map(str, paths)), "--conclusion", "x -> x"]
    code, doc = invoke_json(capsys, argv)
    assert code == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
    inputs = doc["meta"]["inputs"]
    assert digests[0] != digests[1]
    assert [inputs["algebra:r.json"], inputs["algebra:r.json#2"]] == digests

    derivation = tmp_path / "d.json"
    derivation.write_text(json.dumps([{"formula": "x", "rule": "premise"}]))
    argv = ["check-proof", "--file", str(derivation), "--premise", "x", "--premise", "y"]
    code, doc = invoke_json(capsys, argv)
    inputs = doc["meta"]["inputs"]
    expected = [hashlib.sha256(t.encode()).hexdigest() for t in ("x", "y")]
    assert [inputs["premise"], inputs["premise#2"]] == expected


def test_amalgamate_command(tmp_path, capsys):
    z3 = tmp_path / "z3.json"
    z5 = tmp_path / "z5.json"
    invoke(capsys, ["build", "--group", "3", "--sig", "none", "--out", str(z3)])
    invoke(capsys, ["build", "--group", "5", "--sig", "none", "--out", str(z5)])
    from girale.algebra import algebra_to_json, trivial_algebra

    trivial = trivial_algebra()
    span = {
        "A": algebra_to_json(trivial),
        "B": json.loads(z3.read_text()),
        "C": json.loads(z5.read_text()),
        "phi1": [0],
        "phi2": [0],
    }
    span_file = tmp_path / "span.json"
    span_file.write_text(json.dumps(span))
    code, doc = invoke_json(
        capsys, ["amalgamate", "--span", str(span_file), "--primes", "2"]
    )
    assert code == 0
    assert doc["result"]["passed"]
    assert doc["result"]["D"]["size"] == 17


def test_catalog_command(capsys):
    code, doc = invoke_json(
        capsys,
        ["catalog", "--primes", "2", "--max-order", "4", "--sig", "none", "--spans"],
    )
    assert code == 0
    assert doc["result"]["failures"] == []
    assert doc["result"]["spans"]["count"] > 0


# the amalgamation sweep's verdicts through the CLI: every span of the class
# catalog up to order 7 in the four default signatures, amalgamated and verified
CATALOG_SPANS_PINNED = {f"catalog-spans-p{p.replace(',', '-')}-o7": p for p in ("2", "5", "2,5")}


@pytest.mark.parametrize("name", sorted(CATALOG_SPANS_PINNED))
def test_catalog_spans_output_pinned(capsys, name):
    """Byte-identical --json for catalog --spans."""
    argv = ["catalog", "--primes", CATALOG_SPANS_PINNED[name], "--max-order", "7", "--spans"]
    code, out = invoke(capsys, argv + ["--json"])
    assert code == 0
    assert out == (Path(__file__).parent / "data" / f"{name}.json").read_text()


def test_usage_error_exit_code(capsys):
    assert run(["build", "--sig", "none"]) == 2
    assert run(["nonsense"]) == 2


def _r_z2_full():
    from girale.algebra import algebra_to_json
    from girale.construct import SIGNATURE_FULL, build_R
    from girale.group import make_group

    return algebra_to_json(build_R(make_group([2]), SIGNATURE_FULL))


def _with(data, **changes):
    out = json.loads(json.dumps(data))
    out.update(changes)
    return out


ALG = _r_z2_full()
BROKEN_GIRALE = json.loads((Path(__file__).parent / "data" / "broken_girale.json").read_text())
FLOAT_TABLE = [[0.5] + row[1:] for row in ALG["meet"]]

# (verb and flags, file contents for the {file} placeholder or None)
MALFORMED = {
    "algebra-float": (["member-k", "--algebra", "{file}", "--primes", "2"], _with(ALG, meet=FLOAT_TABLE)),
    "algebra-bang-null": (["member-k", "--algebra", "{file}", "--primes", "2"], _with(ALG, bang=None)),
    "algebra-one-string": (["member-k", "--algebra", "{file}", "--primes", "2"], _with(ALG, one="0")),
    "algebra-not-object": (["homs", "--source", "{file}", "--target", "{file}"], [1, 2]),
    "group-float": (["build", "--group-file", "{file}"], {"table": [[0, 1], [1, 0.0]]}),
    "group-factors-string": (["build", "--group-file", "{file}"], {"invariant_factors": "3"}),
    "span-list-A": (
        ["amalgamate", "--span", "{file}", "--primes", "2"],
        {"A": [], "B": ALG, "C": ALG, "phi1": [0], "phi2": [0]},
    ),
    "span-float-phi": (
        ["amalgamate", "--span", "{file}", "--primes", "2"],
        {"A": ALG, "B": ALG, "C": ALG, "phi1": [0.0, 1, 2, 3], "phi2": [0, 1, 2, 3]},
    ),
    "span-leg-not-hom": (
        ["amalgamate", "--span", "{file}", "--primes", "2"],
        {"A": ALG, "B": ALG, "C": ALG, "phi1": [1, 0, 2, 3], "phi2": [0, 1, 2, 3]},
    ),
    "derivation-steps-number": (["check-proof", "--file", "{file}"], {"steps": 5}),
    "derivation-formula-number": (["check-proof", "--file", "{file}"], [{"formula": 3}]),
    "derivation-refs-string": (
        ["check-proof", "--file", "{file}"],
        [{"formula": "x", "rule": "mp", "refs": "12"}],
    ),
    "deep-parentheses": (["parse", "(" * 3000 + "x" + ")" * 3000], None),
    "negative-depth": (
        ["interpolate", "--algebras", "{file}", "--premise", "x", "--conclusion", "x",
         "--mode", "craig", "--depth", "-3"],
        ALG,
    ),
    "negative-max-order": (["catalog", "--primes", "2", "--max-order", "-1"], None),
    "negative-bound": (["prove", "--sequent", "x => x", "--bound", "-1"], None),
    "primes-empty": (["member-k", "--algebra", "{file}", "--primes", ""], ALG),
    "primes-word": (["member-k", "--algebra", "{file}", "--primes", "2,x"], ALG),
    "group-word": (["build", "--group", "2,y"], None),
    "assign-out-of-range": (["eval", "--algebra", "{file}", "--formula", "x", "--assign", "x=9"], ALG),
    "assign-unused-out-of-range": (
        ["eval", "--algebra", "{file}", "--formula", "x", "--assign", "x=0,y=9"], ALG
    ),
    "algebra-signature-unknown": (["check-class", "--algebra", "{file}"], _with(ALG, signature=["nonsense"])),
    "algebra-signature-short": (["check-class", "--algebra", "{file}"], _with(ALG, signature=["0", "bot"])),
    "assign-no-equals": (["eval", "--algebra", "{file}", "--formula", "x", "--assign", "x"], ALG),
    "derivation-system-number": (["check-proof", "--file", "{file}"], {"steps": [], "system": 3}),
    "derivation-premise-number": (["check-proof", "--file", "{file}"], {"steps": [], "premises": [1]}),
    "derivation-system-unknown": (["check-proof", "--file", "{file}"], {"steps": [], "system": "K4"}),
    "derivation-no-steps": (["check-proof", "--file", "{file}"], {"system": "LL"}),
    "span-no-A": (
        ["amalgamate", "--span", "{file}", "--primes", "2"],
        {"B": ALG, "C": ALG, "phi1": [0, 1, 2, 3], "phi2": [0, 1, 2, 3]},
    ),
    "span-no-phi2": (
        ["amalgamate", "--span", "{file}", "--primes", "2"],
        {"A": ALG, "B": ALG, "C": ALG, "phi1": [0, 1, 2, 3]},
    ),
    "algebra-one-null": (["congruences", "--algebra", "{file}"], _with(ALG, one=None)),
    "algebra-size-null": (["congruences", "--algebra", "{file}"], _with(ALG, size=None)),
    "span-not-object": (["amalgamate", "--span", "{file}", "--primes", "2"], [ALG, ALG, ALG]),
    "assign-unknown": (["eval", "--algebra", "{file}", "--formula", "x", "--assign", "x=b"], ALG),
    "group-names-short": (
        ["build", "--group-file", "{file}"], {"table": [[0, 1], [1, 0]], "names": ["1"]}
    ),
    "sequent-bang": (["prove", "--sequent", "!x => x"], None),
    "algebra-fails-class-laws": (["member-k", "--algebra", "{file}", "--primes", "2"], BROKEN_GIRALE),
    # the span check runs in one process: there is no worker count to give
    "catalog-jobs": (["catalog", "--primes", "2", "--spans", "--jobs", "2"], None),
    # GIRALE_MAX_SIZE is the one size bound: congruences has none of its own
    "congruences-max-size": (["congruences", "--algebra", "{file}", "--max-size", "8"], ALG),
}
# what a case's error must say: the field or element at fault, never a bare KeyError
ERROR_SAYS = {
    "derivation-no-steps": "Derivation field 'steps' is missing.",
    "span-no-A": "Span field 'A' is missing.",
    "span-no-phi2": "Span field 'phi2' is missing.",
    "algebra-one-null": "Algebra JSON field 'one' must be an integer.",
    "algebra-size-null": "Algebra JSON field 'size' must be an integer.",
    "span-not-object": "Span file must be a JSON object.",
    "assign-unknown": "Unknown element 'b'.",
    "assign-out-of-range": "Assignment value 9 out of range for 'x'.",
    "assign-unused-out-of-range": "Assignment value 9 out of range for 'y'.",
    "algebra-signature-unknown": "field 'signature' must match the constants: ['0', 'bang', 'bot', 'top'].",
    "algebra-signature-short": "field 'signature' must match the constants: ['0', 'bang', 'bot', 'top'].",
    "group-names-short": "element_names length does not match group size.",
    "sequent-bang": "must avoid ['bang']; search covers the bounded-free, guard-free fragment.",
    "algebra-fails-class-laws": (
        "Algebra fails its class laws: meet-commutative(1,4); meet-associative(0,1,4); "
        "meet-associative(1,1,4); meet-associative(1,4,0); meet-associative(1,4,4); "
        "absorption-join-meet(1,4); mult-commutative(4,5); mult-associative(1,3,5)."
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_usage_error(case, tmp_path, capsys):
    argv, contents = MALFORMED[case]
    path = tmp_path / "input.json"
    if contents is not None:
        path.write_text(json.dumps(contents))
    code = run([arg.replace("{file}", str(path)) for arg in argv] + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    if captured.out:  # argparse rejections print usage to stderr instead
        error = json.loads(captured.out)["result"]["error"]
        assert error
        if case in ERROR_SAYS:
            assert error.endswith(ERROR_SAYS[case]) and "KeyError" not in error, error
    else:
        assert "error" in captured.err


def test_internal_error_exit_code(monkeypatch, capsys):
    import girale.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "parse", broken)
    code, doc = invoke_json(capsys, ["parse", "x"])
    assert code == cli.EXIT_INTERNAL == 4
    assert doc["result"]["error"] == "internal error: RuntimeError: boom"


def test_key_error_is_an_internal_error(monkeypatch, capsys):
    """Every JSON field goes through one reader, so a KeyError is a bug: exit 4."""
    import girale.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("steps")

    monkeypatch.setattr(cli, "parse", broken)
    code, doc = invoke_json(capsys, ["parse", "x"])
    assert code == cli.EXIT_INTERNAL
    assert doc["result"]["error"] == "internal error: KeyError: 'steps'"


@pytest.mark.parametrize(
    "argv, document, keys",
    [
        (["check-class", "--algebra", "{file}"], ALG, ("zero", "signature", "names")),
        (["member-k", "--algebra", "{file}", "--primes", "3"], ALG, ("zero", "signature", "names")),
        (["eval", "--algebra", "{file}", "--formula", "x * y", "--assign", "x=1,y=2"], ALG,
         ("zero", "signature", "names")),
        (["build", "--group-file", "{file}", "--sig", "full"],
         {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["1", "a", "a2"]}, ("names",)),
    ],
)
def test_null_optional_field_reads_as_absent(tmp_path, capsys, argv, document, keys):
    """A null zero, bot, top, signature or names is the field left out: same output,
    same exit.  The signature goes with the zero, which it names."""
    nulled = _with(document, **dict.fromkeys(keys))
    absent = {k: v for k, v in document.items() if k not in keys}
    outputs = []
    for name, contents in (("nulled.json", nulled), ("absent.json", absent)):
        path = tmp_path / name
        path.write_text(json.dumps(contents))
        outputs.append(invoke(capsys, [arg.replace("{file}", str(path)) for arg in argv]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0, outputs[0][1]


def test_member_k_on_the_trivial_algebra(tmp_path, capsys):
    from girale.algebra import algebra_to_json, trivial_algebra

    algebra = tmp_path / "t.json"
    algebra.write_text(json.dumps(algebra_to_json(trivial_algebra())))
    code, doc = invoke_json(capsys, ["member-k", "--algebra", str(algebra), "--primes", "2"])
    assert (code, doc["result"]) == (0, {"member": True, "detail": "yes (trivial algebra)"})
