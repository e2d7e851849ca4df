"""Self-check of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs every workload at a tiny size, one traced and one untraced pass in
this process.  It asserts that the results pass their oracles, that every
metric named in BENCHMARK.json is reported with its unit, and that each
traced workload reports calls for the functions it is known to drive.  It then plants a wrong
answer for every oracle and asserts that the oracle rejects it.  Exit code 0
means every check held.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import run

girale = run._import_girale()

from girale import algebra, formula, proofs, semantics  # noqa: E402

import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# functions each workload must drive (the trace shows at least one call)
DRIVES = {
    "amalgam-sweep": [
        "group.make_group", "group.group_from_table", "group.pushout", "group.group_homs",
        "group.check_sigma", "algebra.check_signature_laws", "algebra.congruence_set",
        "algebra.residuals_from_mult", "algebra.AlgHom.violations", "construct.build_R",
        "construct.member_K", "construct.lift_embedding", "construct.restrict_embedding",
        "amalgam.span_catalog", "amalgam.amalgamate", "amalgam.verify_amalgam",
    ],
    "interp-search": [
        "formula.parse", "semantics.consequence", "semantics.consequence_slow",
        "semantics.interpolant_search", "construct.build_R",
    ],
    "sequent-search": ["formula.parse", "proofs.prove_sequent", "proofs.validate_proof"],
    "table-kernel": [
        "group.make_group", "algebra.check_signature_laws", "algebra.congruence_set",
        "algebra.enumerate_homs", "construct.build_R", "construct.member_K",
        "semantics.consequence", "semantics.valid", "semantics.deduction_check",
    ],
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def expect_metrics(metrics: dict, declared: list[dict], label: str) -> None:
    block = run.metric_block(metrics)
    wanted = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in block.items()}
    expect(got == wanted, f"{label}: every declared metric is reported with its unit")
    expect(
        all(isinstance(e["value"], (int, float)) for e in block.values()),
        f"{label}: every metric value is a number",
    )


def tiny_runs() -> None:
    for name, cls in workloads.WORKLOADS.items():
        start = time.monotonic()
        workload = cls(7, tiny=True)
        setup_s = time.monotonic() - start
        # traced first: it must see the cold-cache calls of a fresh process
        passes = [run.checked_pass(girale, workload, traced)[0] for traced in (True, False)]
        for record in passes:
            record["setup_s"] = setup_s
        failed, problems = run.count_failures(passes)
        expect(failed == 0, f"{name}: tiny run passes its oracles {problems[:3]}")
        expect_metrics(run.end_to_end(passes[1:]), BENCHMARK["end_to_end"], f"{name} untraced")
        layer = run.per_layer(passes)
        expect_metrics(layer, BENCHMARK["per_layer"], f"{name} traced")
        silent = [f for f in DRIVES[name] if not layer[f"{f}.calls"][0]]
        expect(not silent, f"{name}: the trace sees calls to every driven function {silent}")
        expect(
            hasattr(girale.construct.member_K, "cache_info")
            and algebra.AlgHom.violations.__module__ == "girale.algebra",
            f"{name}: tracing is uninstalled",
        )


def first_output(workload, prefix: str):
    item = next(i for i in workload.pass_items() if i.key.startswith(prefix))
    return item, item.run()


def rejects(workload, item, output, label: str) -> None:
    result = workload.summarize(item, output)
    expect(workload.check(item, result) is not None, f"oracle rejects {label}")


def planted_answers() -> None:
    sweep = workloads.AmalgamSweep(7, tiny=True)
    item, (span, result, report, member) = first_output(sweep, "span")
    mapping = list(result.psi1.mapping)
    mapping[0], mapping[-1] = mapping[-1], mapping[0]
    corrupt = dataclasses.replace(
        result, psi1=algebra.AlgHom(result.psi1.source, result.psi1.target, tuple(mapping))
    )
    corrupt_report = girale.amalgam.verify_amalgam(span, corrupt, strong=True)
    rejects(sweep, item, (span, corrupt, corrupt_report, member), "a corrupted span leg")

    interp = workloads.InterpSearch(7, tiny=True)
    interp.jobs = [
        (key, "small", "x * y", "y * x", mode, 4, 20000)
        for key, _, _, _, mode, _, _ in interp.jobs
        if key.startswith("fixture")
    ]
    item, (phi, psi, res) = first_output(interp, "fixture")
    swapped = dataclasses.replace(res, interpolant=formula.parse("x"))
    rejects(interp, item, (phi, psi, swapped), "a swapped interpolant")
    rejects(interp, item, (phi, psi, dataclasses.replace(res, status="exhausted")),
            "an exhausted acceptance fixture")

    seqs = workloads.SequentSearch(7, tiny=True)
    item, (seq, proof, problems) = first_output(seqs, "suite+")
    rejects(seqs, item, (seq, None, []), "an unknown verdict on a provable sequent")
    mislabelled = dataclasses.replace(proof, rule="cut" if proof.rule != "cut" else "ax")
    rejects(seqs, item, (seq, mislabelled, []), "a proof with a wrong rule")
    item, (seq, proof, problems) = first_output(seqs, "chain 3 proves")
    other = proofs.prove_sequent(proofs.parse_sequent("x => x"), 4)
    rejects(seqs, item, (seq, other, []), "a proof of another sequent")
    item, output = first_output(seqs, "chain 3 fails")
    rejects(seqs, item, (output[0], proof, []), "a proof of a chain known to be unprovable")

    kernel = workloads.TableKernel(7, tiny=True)
    item, output = first_output(kernel, "battery")
    grp, A, laws, member, congruences, verdicts = output
    imp = [list(row) for row in A.imp]
    imp[0][1], imp[1][0] = imp[1][0], imp[0][1]
    bent = dataclasses.replace(A, imp=tuple(map(tuple, imp)))
    rejects(kernel, item, (grp, bent, laws, member, congruences, verdicts), "a bent imp table")
    holds = not verdicts[0].holds
    flipped = [semantics.ValidityResult(holds, None if holds else {})] + verdicts[1:]
    rejects(kernel, item, (grp, A, laws, member, congruences, flipped), "a flipped validity verdict")
    if congruences is not None:
        extra = algebra.CongruenceSet(congruences.congruences + congruences.congruences[:1])
        rejects(kernel, item, (grp, A, laws, member, extra, verdicts), "a third congruence")
    item, (source, target, homs) = next(
        (i, out) for i in kernel.pass_items() if i.key.startswith("homs") and (out := i.run())[2]
    )
    rejects(kernel, item, (source, target, homs[1:]), "a missing embedding")
    rejects(kernel, item, (source, target, homs + homs[:1]), "a repeated embedding")
    item, report = first_output(kernel, "deduction")
    holds = not report.guarded_both.holds
    wrong = dataclasses.replace(
        report, guarded_both=semantics.ConsequenceResult(holds, None if holds else 0, None if holds else {})
    )
    rejects(kernel, item, wrong, "disagreeing premise-discharge forms")


def main() -> int:
    tiny_runs()
    planted_answers()
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
