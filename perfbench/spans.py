"""Span tracing from outside the program.

The benchmark swaps span-recording wrappers in for girale's public functions
while a traced pass runs, and puts the originals back afterwards.  A wrapper
replaces every binding through which a call can reach the function: the
defining module's global, each ``from .x import y`` copy in another girale
module (or in the package), and the class attribute for a method.  Spans are
kept in memory and written out when the pass ends.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute) of every traced function; "Class.method" names a method
TRACED = [
    ("formula", "parse"),
    ("group", "make_group"),
    ("group", "group_from_table"),
    ("group", "pushout"),
    ("group", "group_homs"),
    ("group", "check_sigma"),
    ("algebra", "check_signature_laws"),
    ("algebra", "congruence_set"),
    ("algebra", "residuals_from_mult"),
    ("algebra", "enumerate_homs"),
    ("algebra", "AlgHom.violations"),
    ("construct", "build_R"),
    ("construct", "member_K"),
    ("construct", "lift_embedding"),
    ("construct", "restrict_embedding"),
    ("amalgam", "span_catalog"),
    ("amalgam", "amalgamate"),
    ("amalgam", "verify_amalgam"),
    ("semantics", "consequence"),
    ("semantics", "consequence_slow"),
    ("semantics", "valid"),
    ("semantics", "deduction_check"),
    ("semantics", "interpolant_search"),
    ("proofs", "prove_sequent"),
    ("proofs", "validate_proof"),
]

GENERATORS = {"amalgam.span_catalog"}

SPAN_NAMES = [f"{module}.{attr}" for module, attr in TRACED]


class Recorder:
    """Collects spans (name, start, end, parent, item) and counters for one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.stack: list[int] = []
        self.item = -1  # -1: the pass's prelude
        self.counters: dict[str, float] = {}
        self._undo: list[Callable[[], None]] = []

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name_id: int, fn: Callable, args, kwargs) -> Any:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name_id, 0.0, 0.0, parent, self.item))
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name_id, start, end, parent, self.item)

    def install(self, girale_package) -> None:
        """Swap wrappers in for every binding of every traced function."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "girale" or name.startswith("girale."))
        ]
        for name_id, (module_name, attr) in enumerate(TRACED):
            module = getattr(girale_package, module_name)
            full = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name_id, full, original))
                self._undo.append(lambda cls=cls, m=method, o=original: setattr(cls, m, o))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name_id, full, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append(lambda m=m, k=key, o=original: setattr(m, k, o))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, name_id: int, full: str, original: Callable) -> Callable:
        recorder = self
        if full in GENERATORS:

            def generator_wrapper(*args, **kwargs):
                # only the time spent producing each element counts as the span
                it = original(*args, **kwargs)
                while True:
                    try:
                        element = recorder.call(name_id, next, (it,), {})
                    except StopIteration:
                        return
                    yield element

            return generator_wrapper

        post = _POST_HOOKS.get(full)

        def wrapper(*args, **kwargs):
            result = recorder.call(name_id, original, args, kwargs)
            if post is not None:
                post(recorder, result)
            return result

        return wrapper


def _candidates(recorder: Recorder, result) -> None:
    recorder.count("semantics.interpolant_search.candidates", result.candidates_tried)


def _proof_nodes(recorder: Recorder, proof) -> None:
    if proof is not None:
        recorder.count("proofs.prove_sequent.proof_nodes", sum(1 for _ in proof.nodes()))


_POST_HOOKS = {
    "semantics.interpolant_search": _candidates,
    "proofs.prove_sequent": _proof_nodes,
}


def layer_times(spans) -> dict[str, tuple[int, float, float]]:
    """Per traced function: (calls, busy seconds, self seconds).

    Busy time is inclusive; self time subtracts the time of direct child spans.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for i, (name_id, start, end, _, _) in enumerate(spans):
        entry = out[SPAN_NAMES[name_id]]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i]
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


def write_spans(path: Path, spans, pass_index: int) -> None:
    """Append one pass's spans; ``id`` and ``parent`` number spans within a pass."""
    with open(path, "a", encoding="utf-8") as handle:
        for i, (name_id, start, end, parent, item) in enumerate(spans):
            handle.write(
                f"{i}\t{SPAN_NAMES[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{pass_index}\t{item}\n"
            )
