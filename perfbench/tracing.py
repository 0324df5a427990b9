"""Out-of-library tracing: wrap each layer's public functions, keep spans.

The wrappers are installed on every planeforge module that binds a target
function (``generic.icl`` as well as ``predim.icl``), plus
``FlowNetwork.max_flow`` on the class, and removed again afterwards, so the
library itself carries no instrumentation.  Each call is one span: name,
start, end, parent span and operation id, held in flat arrays and written
out when the traced pass ends.  A generator function (``embeddings``) is
traced one resumption at a time, so the caller's work between two yields
is never charged to it.

Self time is a span's duration minus the time of its direct child spans.
No layer has a queue or retries, so there is no wait-time metric.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from functools import wraps
from time import perf_counter

# (module, function) pairs: the public entry points of each layer.
TARGETS = (
    ("flow", "max_flow"),
    ("predim", "icl"),
    ("predim", "is_strong"),
    ("predim", "in_K0"),
    ("predim", "d_value"),
    ("predim", "alpha"),
    ("plane", "flats"),
    ("plane", "validate"),
    ("plane", "restrict"),
    ("plane", "is_wedge_subgeometry"),
    ("amalgam", "canonical_amalgam"),
    ("amalgam", "decompose"),
    ("census", "canonical_labeling"),
    ("census", "enumerate_strong_extensions"),
    ("census", "enumerate_planes"),
    ("embedding", "embeddings"),
    ("embedding", "find_embedding"),
    ("embedding", "are_isomorphic"),
    ("generic", "build_generic"),
    ("generic", "check_genericity"),
    ("planefile", "parse_plane"),
    ("planefile", "serialize_plane"),
    ("cli", "main"),
)

# Extra per-layer measures: name -> (unit, better).
EXTRAS = {
    "flow.max_flow.edges": ("count", "lower"),
    "predim.icl.fixed_ratio": ("ratio", "higher"),
    "census.enumerate_strong_extensions.templates": ("count", "higher"),
    "embedding.embeddings.yielded": ("count", "higher"),
    "embedding.are_isomorphic.true_ratio": ("ratio", "higher"),
}

# Traced run_s must be covered by span self time up to this share.
UNATTRIBUTED_TOLERANCE = 0.05


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for mod, fn in TARGETS:
        out.append((f"{mod}.{fn}.calls", "count", "lower"))
        out.append((f"{mod}.{fn}.self_s", "s", "lower"))
        out.append((f"{mod}.{fn}.errors", "count", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in EXTRAS.items())
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    out.append(("trace.unattributed_ratio", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [f"{m}.{f}" for m, f in TARGETS]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self._stack: list[int] = []  # open span indices
        self._child: list[float] = []  # child time of each open span
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.inclusive_s = [0.0] * n  # outermost spans only, so no double count
        self._depth = [0] * n
        self.extra = {name: 0 for name in EXTRAS}
        self.icl_fixed = 0
        self.iso_true = 0
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self._stack.append(idx)
        self._child.append(0.0)
        self._depth[nid] += 1
        return idx

    def _close(self, nid: int, idx: int, failed: bool) -> None:
        end = perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        duration = end - self.span_start[idx]
        self.self_s[nid] += duration - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.inclusive_s[nid] += duration
        if self._child:
            self._child[-1] += duration
        if failed:
            self.errors[nid] += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, nid: int, fn, after=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(nid, idx, True)
                raise
            tracer._close(nid, idx, False)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, nid: int, fn, name: str):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(nid, idx, False)
                        return
                    except BaseException:
                        tracer._close(nid, idx, True)
                        raise
                    tracer._close(nid, idx, False)
                    tracer.extra[f"{name}.yielded"] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def _after_hook(self, name: str):
        if name == "flow.max_flow":
            def after(args, kwargs, result):
                # edges of the solved network, stored as residual pairs
                self.extra["flow.max_flow.edges"] += len(getattr(args[0], "_to", ())) // 2
            return after
        if name == "predim.icl":
            def after(args, kwargs, result):
                subset = args[1] if len(args) > 1 else kwargs["subset"]
                if result == frozenset(subset):
                    self.icl_fixed += 1
            return after
        if name == "census.enumerate_strong_extensions":
            def after(args, kwargs, result):
                self.extra["census.enumerate_strong_extensions.templates"] += len(result)
            return after
        if name == "embedding.are_isomorphic":
            def after(args, kwargs, result):
                if result:
                    self.iso_true += 1
            return after
        return None

    def install(self) -> None:
        """Replace every binding of each target in the loaded planeforge modules."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "planeforge" or key.startswith("planeforge."))
        ]
        for nid, (mod, fn) in enumerate(TARGETS):
            name = self.names[nid]
            try:
                home = importlib.import_module(f"planeforge.{mod}")
            except ImportError:
                self.missing.append(name)
                continue
            if mod == "flow":
                owner = getattr(home, "FlowNetwork", None)
                orig = owner.__dict__.get(fn) if owner is not None else None
                if orig is None:
                    self.missing.append(name)
                    continue
                self._set(owner, fn, self._wrap(nid, orig, self._after_hook(name)))
                continue
            orig = getattr(home, fn, None)
            if orig is None:
                self.missing.append(name)
                continue
            if inspect.isgeneratorfunction(orig):
                wrapper = self._wrap_generator(nid, orig, name)
            else:
                wrapper = self._wrap(nid, orig, self._after_hook(name))
            for module in modules:
                if module.__dict__.get(fn) is orig:
                    self._set(module, fn, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.errors"] = self.errors[nid]
        out.update(self.extra)
        icl_calls = self.calls[self.names.index("predim.icl")]
        iso_calls = self.calls[self.names.index("embedding.are_isomorphic")]
        # A ratio whose denominator is 0 reads 0: the layer was not called.
        out["predim.icl.fixed_ratio"] = self.icl_fixed / icl_calls if icl_calls else 0.0
        out["embedding.are_isomorphic.true_ratio"] = (
            self.iso_true / iso_calls if iso_calls else 0.0
        )
        return out

    def inclusive(self) -> dict[str, float]:
        """Time inside each function, children included (not a reported metric)."""
        return {name: self.inclusive_s[nid] for nid, name in enumerate(self.names)}

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def write_spans(self, path) -> int:
        """Write spans as TSV: id, name, start, end, parent, op.  Returns count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\t"
                    f"{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
        return len(self.span_name)
