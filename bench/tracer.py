"""Layer spans recorded from outside the program.

``Tracer.install`` wraps every public function (and every public method of
a public class) defined in a layer module of ``specbounds`` and rebinds the
wrapper in every ``specbounds.*`` namespace that holds the original, since
modules such as ``cli``, ``cheeger`` and ``potential`` import spectral
functions by name.  Spans live in memory and are written out at the end.

The tracer's own work (hashing each eigensolver input) runs as soon as the
eigensolver returns, so the tracer keeps no input alive longer than the
program does: held inputs change how the allocator reuses memory and made
traced n=800 reports about 0.2 s faster than untraced ones.  Span times
come from a clock that stops while the tracer hashes, so that work
inflates no span; it still counts in the op's wall time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("graph", "metric", "voronoi", "spectral", "cheeger", "potential", "report", "cli")
EIGENSOLVERS = {"eigenvalues_of": "eigvalsh", "eigdecompose": "eigh"}
# Dense symmetric eigensolver flop models (Golub & Van Loan, table 8.3.1).
EIG_FLOPS = {"eigvalsh": 4.0 / 3.0, "eigh": 9.0}
RENDER = {"render", "render_json", "render_csv", "dumps_value"}
# Called once per number written (n^2 times by `metric`); a span there would
# cost more than the work it times.  Its time stays in the caller's span.
UNTRACED = {"format_float"}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    layer: str
    name: str
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def dur(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._own_ns = 0  # time spent hashing, kept out of every span
        self._errors_seen: set[int] = set()
        self._op = -1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"specbounds.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "specbounds" or name.startswith("specbounds.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in UNTRACED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        qual = f"{name}.{mname}"
                        if inspect.isfunction(member):
                            self._patch(obj, mname, self._wrap(layer, qual, member))
                        elif isinstance(member, classmethod):
                            self._patch(obj, mname, classmethod(self._wrap(layer, qual, member.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def clock() -> int:
            return time.perf_counter_ns() - tracer._own_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), stack[-1].id if stack else None,
                        tracer._op, layer, name, 0)
            tracer.spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                if id(exc) not in tracer._errors_seen:
                    tracer._errors_seen.add(id(exc))
                    span.error = type(exc).__name__
                raise
            span.end = clock()
            stack.pop()
            tracer._annotate(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _annotate(self, span: Span, args, kwargs, result) -> None:
        """Sizes from array shapes and input digests, taken after the span has closed."""
        if span.name in EIGENSOLVERS:
            op = args[0] if args else kwargs["op"]
            span.attrs["n"] = int(op.sym.shape[0])
            span.attrs["method"] = EIGENSOLVERS[span.name]
            t0 = time.perf_counter_ns()
            # sha256 runs at about twice blake2b's speed on CPUs with SHA extensions.
            data = np.ascontiguousarray(op.sym).data
            span.attrs["digest"] = hashlib.sha256(data).hexdigest()
            self._own_ns += time.perf_counter_ns() - t0
        elif span.name == "assemble":
            span.attrs["n"] = int(result.sym.shape[0])
            span.attrs["bytes"] = int(result.sym.nbytes + result.entries.nbytes)
        elif span.name == "compute_metric":
            span.attrs["n"] = int(result.dist.shape[0])
            span.attrs["bytes"] = int(result.dist.nbytes + result.pred.nbytes)
        elif span.name == "beta_exhaustive":
            omega = args[1] if len(args) > 1 else kwargs["omega"]
            span.attrs["k"] = len(set(omega))

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        self._errors_seen.clear()

    def end_op(self) -> None:
        self._op = -1

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "op": s.op, "id": s.id, "parent": s.parent, "layer": s.layer,
                    "name": s.name, "start_s": (s.start - t0) * 1e-9, "dur_s": s.dur,
                    "self_s": own, "attrs": s.attrs, "error": s.error,
                }) + "\n")

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op means of the per-layer metrics named in BENCHMARK.json.

        ``<layer>.<function>_s`` is inclusive time of that function's
        outermost spans; ``<layer>.self_s`` is time in the layer's own
        code, with time in any child span removed.
        """
        own = self.self_times()
        by_name: dict[str, list[Span]] = defaultdict(list)
        layer_self: dict[str, float] = defaultdict(float)
        errors: dict[str, int] = defaultdict(int)
        for s, t in zip(self.spans, own):
            layer_self[s.layer] += t
            if s.error:
                errors[s.layer] += 1
            if not self._inside(s, {s.name}):
                by_name[s.name].append(s)

        def total(*names) -> float:
            return sum(s.dur for n in names for s in by_name[n])

        def calls(*names) -> int:
            return sum(len(by_name[n]) for n in names)

        def attr_sum(name, key) -> float:
            return float(sum(s.attrs.get(key, 0) for s in by_name[name]))

        ballvol = [n for n in by_name if n.startswith("BallVolumeTable.vol")]
        eig_spans = by_name["eigenvalues_of"] + by_name["eigdecompose"]
        distinct = len({(s.op, s.attrs.get("digest")) for s in eig_spans})
        flops = sum(EIG_FLOPS[s.attrs["method"]] * s.attrs["n"] ** 3 for s in eig_spans)
        render = sum(s.dur for s in self.spans
                     if s.name in RENDER and not self._inside(s, RENDER))
        masks = sum(2.0 ** s.attrs["k"] for s in by_name["beta_exhaustive"] if "k" in s.attrs)

        per_op = {
            "graph.load_s": (total("load_graph"), "s"),
            "graph.validate_s": (total("validate"), "s"),
            "graph.validate_calls": (calls("validate"), "count"),
            "metric.apsp_s": (total("compute_metric"), "s"),
            "metric.apsp_calls": (calls("compute_metric"), "count"),
            "metric.dist_bytes_computed": (attr_sum("compute_metric", "bytes"), "bytes"),
            "metric.ballvol_s": (total(*ballvol), "s"),
            "metric.ballvol_calls": (calls(*ballvol), "count"),
            "metric.homogeneity_s": (total("check_homogeneity"), "s"),
            "voronoi.build_s": (total("build_voronoi"), "s"),
            "voronoi.verify_s": (total("verify_voronoi"), "s"),
            "spectral.eig_s": (total(*EIGENSOLVERS), "s"),
            "spectral.eig_calls": (calls(*EIGENSOLVERS), "count"),
            "spectral.eig_flops_computed": (flops, "flop"),
            "spectral.assemble_s": (total("assemble"), "s"),
            "spectral.assemble_calls": (calls("assemble"), "count"),
            "spectral.assemble_bytes_computed": (attr_sum("assemble", "bytes"), "bytes"),
            "spectral.resolvent_s": (total("resolvent_gap"), "s"),
            "spectral.coupling_s": (total("coupling_rate"), "s"),
            "spectral.uncertainty_s": (total("uncertainty_constant"), "s"),
            "spectral.energy_s": (total("dirichlet_energy"), "s"),
            "spectral.energy_calls": (calls("dirichlet_energy"), "count"),
            "cheeger.beta_s": (total("beta_exhaustive"), "s"),
            "cheeger.beta_masks": (masks, "count"),
            "cheeger.chain_s": (total("cheeger_chain"), "s"),
            "potential.ground_state_s": (total("ground_state"), "s"),
            "potential.transform_check_s": (total("ground_state_transform_check"), "s"),
            "report.render_s": (render, "s"),
        }
        for layer in LAYERS:
            per_op[f"{layer}.self_s"] = (layer_self[layer], "s")
            per_op[f"{layer}.errors"] = (errors[layer], "count")
        out = {k: (v / n_ops, unit) for k, (v, unit) in per_op.items()}
        out["spectral.eig_distinct_frac"] = (distinct / len(eig_spans) if eig_spans else 1.0, "ratio")
        return out

    def _inside(self, span: Span, names: set[str]) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False
