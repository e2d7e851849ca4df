"""Command-line interface: one verb per workbench operation, JSON-first output.

Exit codes: 0 success or a true judgment, 1 a false judgment (countermodel
attached, or ``prove`` status unprovable: no cut-free proof at any depth), 2
usage or input errors, 3 capacity errors, 4 an internal error (a bug: any
other exception, reported with its message); a bounded search without an
answer (exhausted, or ``prove`` status unknown: a cut-free proof exists, only
deeper than --bound, so no countermodel is looked for) exits 0 with a note.
With --json every payload is a single JSON object embedding the tool version
and SHA-256 hashes of all inputs, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .algebra import (
    CLASS_TAGS,
    AlgHom,
    _field,
    algebra_from_json,
    algebra_to_json,
    check_class,
    check_signature_laws,
    congruence_set,
    enumerate_homs,
)
from .amalgam import Span, amalgamate, class_catalog, span_catalog, verify_amalgam
from .capacity import CapacityError
from .construct import KClassQuery, build_R, member_K, parse_signature
from .formula import NOTATIONS, ParseError, formula_to_dict, parse, render
from .group import PrimeSet, group_from_json, make_group
from .proofs import (
    SYSTEMS,
    _refutation_catalog,
    check_derivation,
    parse_sequent,
    proof_to_json,
    search_sequent,
    sequent_to_formula,
    steps_from_json,
    validate_proof,
)
from .semantics import MODES, consequence, eval_formula, interpolant_search

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Inputs:
    """Collects input hashes for the reproducibility header."""

    def __init__(self) -> None:
        self.hashes: dict[str, str] = {}

    def _record(self, key: str, data: bytes) -> None:
        """Hash under the key; a repeated key gets the suffix #2, #3, ..."""
        unique, k = key, 1
        while unique in self.hashes:
            k += 1
            unique = f"{key}#{k}"
        self.hashes[unique] = _sha256(data)

    def text(self, label: str, value: str) -> str:
        self._record(label, value.encode("utf-8"))
        return value

    def file(self, label: str, path: str) -> bytes:
        data = Path(path).read_bytes()
        self._record(f"{label}:{Path(path).name}", data)
        return data

    def json_file(self, label: str, path: str) -> dict | list:
        return json.loads(self.file(label, path).decode("utf-8"))


def _primes(text: str) -> PrimeSet:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"Bad prime list {text!r}.") from exc
    if not values:
        raise UsageError("The prime list is empty.")
    return PrimeSet.of(*values)


def _factors(text: str) -> list[int]:
    cleaned = text.replace("x", ",")
    try:
        return [int(p) for p in cleaned.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"Bad group spec {text!r}; use e.g. '3' or '2,2'.") from exc


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_algebra(inputs: _Inputs, path: str):
    return algebra_from_json(inputs.json_file("algebra", path))


def _element_index(A, token: str) -> int:
    token = token.strip()
    if A.names is not None and token in A.names:
        return A.names.index(token)
    try:
        return int(token)  # eval_formula checks the range
    except ValueError as exc:
        raise UsageError(f"Unknown element {token!r}.") from exc


def _named_assignment(A, assignment: dict[str, int]) -> dict[str, str]:
    return {k: A.name_of(v) for k, v in sorted(assignment.items())}


def _refutation(algebras, result) -> dict:
    """The index of the refuting algebra and the countermodel, by element names."""
    index, countermodel = result.algebra_index, result.countermodel
    assert index is not None and countermodel is not None
    return {"algebra_index": index, "countermodel": _named_assignment(algebras[index], countermodel)}


# --- command handlers ------------------------------------------------------


def _cmd_parse(args, inputs: _Inputs):
    text = inputs.text("formula", args.formula)
    f = parse(text, args.notation)
    payload = {
        "ast": formula_to_dict(f),
        "rendered": {
            "substructural": render(f, "substructural"),
            "girard": render(f, "girard"),
        },
    }
    return EXIT_TRUE, payload


def _cmd_build(args, inputs: _Inputs):
    if args.group_file:
        group = group_from_json(inputs.json_file("group", args.group_file))
    elif args.group:
        group = make_group(_factors(inputs.text("group", args.group)))
    else:
        raise UsageError("build needs --group or --group-file.")
    signature = parse_signature(inputs.text("sig", args.sig))
    algebra = build_R(group, signature)
    payload = {"algebra": algebra_to_json(algebra)}
    if args.out:
        text = json.dumps(payload["algebra"], indent=2, sort_keys=True) + "\n"
        Path(args.out).write_text(text, encoding="utf-8")
        payload["written"] = args.out
    return EXIT_TRUE, payload


def _cmd_check_class(args, inputs: _Inputs):
    A = _load_algebra(inputs, args.algebra)
    if args.tag == "auto":
        report = check_signature_laws(A)
        tag = "signature"
    else:
        report = check_class(A, args.tag)
        tag = args.tag
    payload = {
        "tag": tag,
        "passed": report.passed,
        "violations": [
            {"law": v.law, "witness": [A.name_of(w) for w in v.witness]}
            for v in report.violations[:50]
        ],
    }
    return (EXIT_TRUE if report.passed else EXIT_FALSE), payload


def _cmd_member_k(args, inputs: _Inputs):
    A = _load_algebra(inputs, args.algebra)
    primes = _primes(inputs.text("primes", args.primes))
    result = member_K(A, KClassQuery(primes, A.signature))
    payload = {"member": result.member, "detail": result.describe()}
    if result.group is not None:
        payload["group"] = result.group.describe()
    if not result.member:
        payload["failed"] = result.failed
        payload["witness"] = [A.name_of(w) for w in result.witness]
    return (EXIT_TRUE if result.member else EXIT_FALSE), payload


def _cmd_congruences(args, inputs: _Inputs):
    A = _load_algebra(inputs, args.algebra)
    congruences = congruence_set(A)
    payload = {
        "count": congruences.count,
        "simple": congruences.is_simple(),
        "fsi": congruences.is_fsi(),
    }
    return EXIT_TRUE, payload


def _cmd_homs(args, inputs: _Inputs):
    source = _load_algebra(inputs, args.source)
    target = algebra_from_json(inputs.json_file("target", args.target))
    homs = enumerate_homs(source, target, injective_only=args.injective)
    payload = {"count": len(homs), "homs": [list(h.mapping) for h in homs]}
    return EXIT_TRUE, payload


def _cmd_amalgamate(args, inputs: _Inputs):
    span = _span_from_json(inputs.json_file("span", args.span))
    primes = _primes(inputs.text("primes", args.primes))
    query = KClassQuery(primes, span.A.signature)
    amalgam = amalgamate(span, query)
    report = verify_amalgam(span, amalgam, strong=True)
    payload = {
        "D": algebra_to_json(amalgam.D),
        "psi1": list(amalgam.psi1.mapping),
        "psi2": list(amalgam.psi2.mapping),
        "checks": [
            {"name": c.name, "passed": c.passed, "witness": list(c.witness)}
            for c in report.checks
        ],
        "passed": report.passed,
        "strong": report.strong,
    }
    return (EXIT_TRUE if report.passed else EXIT_FALSE), payload


def _span_from_json(data) -> Span:
    """Span bundle {A, B, C, phi1, phi2}; shape and types checked, naming the field."""
    if not isinstance(data, dict):
        raise UsageError("Span file must be a JSON object.")
    algebras = {}
    for key in ("A", "B", "C"):
        value = _field(data, key, "a JSON value", "Span")
        try:
            algebras[key] = algebra_from_json(value)
        except ValueError as exc:
            raise ValueError(f"Span field {key!r}: {exc}") from exc
    phi1, phi2 = (tuple(_field(data, key, "a list of integers", "Span")) for key in ("phi1", "phi2"))
    A, B, C = algebras["A"], algebras["B"], algebras["C"]
    return Span(A, B, C, AlgHom(A, B, phi1), AlgHom(A, C, phi2))


def _cmd_eval(args, inputs: _Inputs):
    A = _load_algebra(inputs, args.algebra)
    f = parse(inputs.text("formula", args.formula), args.notation)
    assignment = {}
    raw = inputs.text("assign", args.assign or "")
    for item in raw.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise UsageError(f"Bad assignment item {item!r}; use var=element.")
        key, value = item.split("=", 1)
        assignment[key.strip()] = _element_index(A, value)
    value = eval_formula(A, f, assignment)
    payload = {"element": value, "name": A.name_of(value)}
    return EXIT_TRUE, payload


def _cmd_consequence(args, inputs: _Inputs):
    algebras = [_load_algebra(inputs, path) for path in args.algebras.split(",") if path]
    premises = [
        parse(p, args.notation)
        for p in inputs.text("premises", args.premises or "").split(",")
        if p.strip()
    ]
    conclusion = parse(inputs.text("conclusion", args.conclusion), args.notation)
    result = consequence(algebras, premises, conclusion)
    payload: dict = {"holds": result.holds}
    if not result.holds:
        payload.update(_refutation(algebras, result))
    return (EXIT_TRUE if result.holds else EXIT_FALSE), payload


def _cmd_interpolate(args, inputs: _Inputs):
    algebras = [_load_algebra(inputs, path) for path in args.algebras.split(",") if path]
    phi = parse(inputs.text("premise", args.premise), args.notation)
    psi = parse(inputs.text("conclusion", args.conclusion), args.notation)
    result = interpolant_search(
        algebras, phi, psi, args.mode, args.depth, mixed_guard=args.mixed_guard
    )
    payload: dict = {
        "status": result.status,
        "mode": result.mode,
        "candidates_tried": result.candidates_tried,
    }
    if result.status == "found":
        assert result.interpolant is not None
        payload["interpolant"] = render(result.interpolant)
        payload["certificate"] = [
            {"judgment": j.description, "holds": j.holds} for j in result.certificate
        ]
        return EXIT_TRUE, payload
    if result.status == "refused":
        payload.update(_refutation(algebras, result))
        return EXIT_FALSE, payload
    payload["note"] = "bounded search exhausted; not a refutation"
    return EXIT_TRUE, payload


def _cmd_prove(args, inputs: _Inputs):
    seq = parse_sequent(inputs.text("sequent", args.sequent))
    proof, exhaustive = search_sequent(seq, args.bound, with_exchange=not args.no_exchange)
    if proof is not None:
        problems = validate_proof(proof, with_exchange=not args.no_exchange)
        payload = {
            "status": "proved",
            "depth": proof.depth(),
            "revalidated": not problems,
            "proof": proof_to_json(proof),
        }
        return EXIT_TRUE, payload
    payload = {"status": "unknown", "bound": args.bound}
    if not exhaustive:  # a cut-free proof exists, deeper than the bound, so no countermodel
        payload["note"] = "search cut off at the bound; not a proof or a refutation"
        return EXIT_TRUE, payload
    translated, catalog = sequent_to_formula(seq), _refutation_catalog()
    try:
        refutation = consequence(catalog, [], translated)
        if not refutation.holds:
            A = catalog[refutation.algebra_index]
            payload["status"] = "refuted"
            payload["countermodel"] = _named_assignment(A, refutation.countermodel)
            payload["formula"] = render(translated)
            return EXIT_FALSE, payload
    except CapacityError:  # the exhaustive search has decided already
        pass
    payload["status"] = "unprovable"
    payload["note"] = "certificate: exhaustive cut-free search, no proof at any depth"
    return EXIT_FALSE, payload


def _cmd_check_proof(args, inputs: _Inputs):
    data = inputs.json_file("derivation", args.file)
    if isinstance(data, dict):
        steps_json = _field(data, "steps", "a JSON value", "Derivation")
        system_name = _field(data, "system", "a string", "Derivation", args.system)
        premise_texts = _field(data, "premises", "a list of strings", "Derivation", [])
    else:
        steps_json, system_name, premise_texts = data, args.system, []
    if system_name not in SYSTEMS:
        raise UsageError(f"Unknown system {system_name!r}; pick from {sorted(SYSTEMS)}.")
    steps = steps_from_json(steps_json)
    premises = [parse(t) for t in premise_texts]
    for text in args.premise or []:
        premises.append(parse(inputs.text("premise", text)))
    report = check_derivation(steps, SYSTEMS[system_name], premises)
    payload = {"valid": report.valid, "system": system_name}
    if not report.valid:
        payload["step"] = report.step
        payload["reason"] = report.reason
    return (EXIT_TRUE if report.valid else EXIT_FALSE), payload


def _cmd_catalog(args, inputs: _Inputs):
    primes = _primes(inputs.text("primes", args.primes))
    signatures = [parse_signature(s) for s in inputs.text("sig", args.sig).split(";")]
    summary: dict = {
        "max_order": args.max_order,
        "primes": sorted(primes),
        "construction_checked": 0,
        "simple": 0,
        "failures": [],
    }
    for signature in signatures:
        for label, algebra, group in class_catalog(primes, signature, args.max_order):
            report = check_signature_laws(algebra)
            summary["construction_checked"] += 1
            if not report.passed:
                summary["failures"].append(f"laws:{label}:{sorted(signature)}")
            if group is not None:
                congruences = congruence_set(algebra)
                if congruences.is_simple():
                    summary["simple"] += 1
                else:
                    summary["failures"].append(f"simplicity:{label}:{sorted(signature)}")
    if args.spans:
        span_stats = {"count": 0, "passed": 0, "strong": 0}
        for signature in signatures:
            query = KClassQuery(primes, signature)
            for span in span_catalog(primes, signature, args.max_order):
                amalgam = amalgamate(span, query)
                report = verify_amalgam(span, amalgam, strong=True)
                passed = report.passed and member_K(amalgam.D, query).member
                span_stats["count"] += 1
                span_stats["passed"] += int(passed)
                span_stats["strong"] += int(report.strong)
                if not passed:
                    sizes = [span.A.size, span.B.size, span.C.size, amalgam.D.size]
                    summary["failures"].append(f"amalgam:{sizes}")
        summary["spans"] = span_stats
    ok = not summary["failures"]
    return (EXIT_TRUE if ok else EXIT_FALSE), summary


# --- driver ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a single JSON object")
    top = argparse.ArgumentParser(
        prog="girale", description="Finite-model workbench for substructural logics."
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("parse", help="parse a formula and print its tree")
    p.add_argument("formula")
    p.add_argument("--notation", choices=NOTATIONS, default="substructural")
    p.set_defaults(handler=_cmd_parse)

    p = add_parser("build", help="expand a group into an algebra")
    p.add_argument("--group", help="invariant factors, e.g. 3 or 2,2")
    p.add_argument("--group-file", help="group JSON file")
    p.add_argument("--sig", default="none", help="full, none, or comma list of 0,bot,top,bang")
    p.add_argument("--out", help="write the algebra JSON here")
    p.set_defaults(handler=_cmd_build)

    p = add_parser("check-class", help="run the law checker on an algebra file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--tag", default="auto", choices=("auto",) + CLASS_TAGS)
    p.set_defaults(handler=_cmd_check_class)

    p = add_parser("member-k", help="class membership for a prime set")
    p.add_argument("--algebra", required=True)
    p.add_argument("--primes", required=True)
    p.set_defaults(handler=_cmd_member_k)

    p = add_parser("congruences", help="congruence count, simplicity, FSI")
    p.add_argument("--algebra", required=True)
    p.set_defaults(handler=_cmd_congruences)

    p = add_parser("homs", help="enumerate homomorphisms between algebra files")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--injective", action="store_true")
    p.set_defaults(handler=_cmd_homs)

    p = add_parser("amalgamate", help="amalgamate a span bundle")
    p.add_argument("--span", required=True)
    p.add_argument("--primes", required=True)
    p.set_defaults(handler=_cmd_amalgamate)

    p = add_parser("eval", help="evaluate a formula under an assignment")
    p.add_argument("--algebra", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="", help="e.g. x=a,y=bot; an element name, else an index")
    p.add_argument("--notation", choices=NOTATIONS, default="substructural")
    p.set_defaults(handler=_cmd_eval)

    p = add_parser("consequence", help="designated-value consequence over algebras")
    p.add_argument("--algebras", required=True, help="comma list of algebra files")
    p.add_argument("--premises", default="", help="comma list of formulas")
    p.add_argument("--conclusion", required=True)
    p.add_argument("--notation", choices=NOTATIONS, default="substructural")
    p.set_defaults(handler=_cmd_consequence)

    p = add_parser("interpolate", help="bounded interpolant search")
    p.add_argument("--algebras", required=True)
    p.add_argument("--premise", required=True)
    p.add_argument("--conclusion", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--depth", type=_non_negative, default=4)
    p.add_argument("--mixed-guard", action="store_true")
    p.add_argument("--notation", choices=NOTATIONS, default="substructural")
    p.set_defaults(handler=_cmd_interpolate)

    p = add_parser("prove", help="backward cut-free sequent search")
    p.add_argument("--sequent", required=True, help="e.g. 'x, x -> y => y'")
    p.add_argument("--bound", type=_non_negative, default=8)
    p.add_argument("--no-exchange", action="store_true")
    p.set_defaults(handler=_cmd_prove)

    p = add_parser("check-proof", help="check a Hilbert derivation file")
    p.add_argument("--file", required=True)
    p.add_argument("--system", default="LL")
    p.add_argument("--premise", action="append", help="premise formula (repeatable)")
    p.set_defaults(handler=_cmd_check_proof)

    p = add_parser("catalog", help="batch construction and amalgamation suite")
    p.add_argument("--primes", required=True)
    p.add_argument("--max-order", type=_non_negative, default=7)
    p.add_argument("--sig", default="none;0;0,bot,top;full", help="semicolon list of signatures")
    p.add_argument("--spans", action="store_true")
    p.set_defaults(handler=_cmd_catalog)

    return top


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    inputs = _Inputs()
    try:
        code, payload = args.handler(args, inputs)
    except UsageError as exc:
        code, payload = EXIT_USAGE, {"error": str(exc)}
    except (ParseError, ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        code, payload = EXIT_USAGE, {"error": f"{type(exc).__name__}: {exc}"}
    except CapacityError as exc:
        code, payload = EXIT_CAPACITY, {"error": str(exc)}
    except Exception as exc:
        code, payload = EXIT_INTERNAL, {"error": f"internal error: {type(exc).__name__}: {exc}"}
    meta = {"version": __version__, "inputs": dict(sorted(inputs.hashes.items()))}
    if getattr(args, "json", False):
        document = {"meta": meta, "result": payload, "exit": code}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in _as_text(payload):
            print(line)
    return code


def _as_text(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_as_text(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
