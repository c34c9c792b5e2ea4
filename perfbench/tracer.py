"""Call-boundary tracer for the benchmark's traced run.

The traced run wraps public functions of the cqg modules from outside: each
wrapper replaces the function at every module attribute that refers to it,
because a function imported by name (``from .intertwiners import cg_set``
in ``spectral`` and ``cli``) is looked up in the importing module, not in
the defining one.  Spans are named after the defining module.

Hot tiny methods (``FusionTable.components``, ``QGModel.rho``) are not
wrapped: at a million calls per pass the wrapper would cost more than the
work it measures.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (defining module, function) pairs; a span per call
FUNCTIONS = (
    ("models", "resolve_builtin"),
    ("rep_data", "validate_model"),
    ("rep_data", "load_model_with_report"),
    ("rep_data", "model_to_document"),
    ("intertwiners", "cg_set"),
    ("intertwiners", "verify_cg_unitarity"),
    ("intertwiners", "cg_intertwining_residual"),
    ("intertwiners", "cg_supplement_document"),
    ("intertwiners", "verify_modular"),
    ("intertwiners", "verify_coassociativity"),
    ("spectral", "spectral_grid"),
    ("spectral", "spectral_projection"),
    ("spectral", "verify_theorem_5_3"),
    ("fusion", "tensor_power_decompose"),
    ("fusion", "frobenius_check"),
    ("dimensions", "growth_inequality_check"),
    ("kac_degree", "bounded_degree_identity_check"),
    ("kac_degree", "main_theorem_sequence"),
    ("kac_degree", "corollary_6_5_probe"),
    ("cli", "main"),
)
# the model's ``cg`` callable: the built-in providers and the document supplement
PROVIDER_CLASSES = ("SuQ2CGProvider", "AbelianDualCGProvider", "UnitPairCGProvider", "GroupAverageCGProvider")
PROVIDER = "intertwiners.provider"


class Tracer:
    """Spans and counters of the operations run while the wrappers are installed.

    A span is (name, start, end, parent span index or -1, operation index).
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = -1
        self.pairs: set[tuple] = set()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.pairs.clear()
        self.counts.clear()

    def _wrap(self, fn, name: str, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every listed function at each cqg module attribute that refers to it."""
        import cqg.intertwiners as intertwiners

        modules = [m for n, m in sorted(sys.modules.items()) if n == "cqg" or n.startswith("cqg.")]
        bind_cg_set = inspect.signature(intertwiners.cg_set).bind

        def count_pair(args, kwargs):  # before the call: a pair that fails its check counts too
            m, beta, gamma = args[:3] if len(args) >= 3 else bind_cg_set(*args, **kwargs).args[:3]
            self.pairs.add((self.op, id(m), beta, gamma))

        def count_points(args, kwargs, result):
            self.counts["spectral.spectral_grid.points"] += len(result)

        def count_triples(args, kwargs, result):
            self.counts["intertwiners.verify_coassociativity.triples"] += len(result["triples"])
            self.counts["intertwiners.verify_coassociativity.skipped"] += len(result["skipped"])

        before = {"intertwiners.cg_set": count_pair}
        after = {"spectral.spectral_grid": count_points,
                 "intertwiners.verify_coassociativity": count_triples}
        replacements = {}
        for module_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"cqg.{module_name}"], fn_name)
            name = f"{module_name}.{fn_name}"
            replacements[id(original)] = self._wrap(original, name, before.get(name), after.get(name))

        supplement = intertwiners.supplement_cg_provider

        def supplement_cg_provider(raw):
            return self._wrap(supplement(raw), PROVIDER)

        replacements[id(supplement)] = supplement_cg_provider
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
        for cls_name in PROVIDER_CLASSES:
            cls = getattr(intertwiners, cls_name)
            self._patch(cls, "__call__", self._wrap(vars(cls)["__call__"], PROVIDER))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded since the last reset.

        A span or counter that never occurred has no entry; it reads as 0.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, start, end, _, _), covered in zip(spans, child):
            calls[name] += 1
            self_s[name] += end - start - covered
        metrics = {f"{name}.calls": float(count) for name, count in calls.items()}
        metrics.update({f"{name}.self_s": seconds for name, seconds in self_s.items()})
        pairs, cg_calls = len(self.pairs), calls["intertwiners.cg_set"]
        metrics["intertwiners.cg_set.pairs"] = float(pairs)
        metrics["intertwiners.cg_set.repeat_ratio"] = 1.0 - pairs / cg_calls if cg_calls else 0.0
        metrics.update({name: float(count) for name, count in self.counts.items()})
        return metrics

    def write(self, path: Path) -> None:
        """Write the spans of the last traced pass as JSON lines, times in seconds from its first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "op": op}) + "\n")
