"""Span tracing of pinvkit from outside, by wrapping public functions.

install() replaces each traced function at every pinvkit module attribute
that binds it, so calls made through names imported elsewhere (core, cli,
sumdecomp and graphdist import svd by name) and recursive calls (svd on the
adjoint, svd inside hermitian_eigenvalues) all pass through the wrapper. A
span is [layer, function, start, end, parent index, op id, info]; spans
stay in memory until the run ends. Nothing in the program changes.
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np

# function name -> layer; every function lives in the module named by the
# layer's prefix
LAYERS = {
    "svd": "linalg.svd",
    "lu_solve": "linalg.lu",
    "inverse": "linalg.lu",
    "cholesky_factor": "linalg.cholesky",
    "cholesky_solve": "linalg.cholesky",
    "hermitian_eigenvalues": "linalg.eig",
    "pinv": "core.pinv",
    "penrose_residuals": "core.penrose",
    "characterization_residuals": "core.characterization",
    "pinv_normal_equations": "core.normal",
    "projectors": "core.projectors",
    "rank_completion_pinv": "sumdecomp.completion",
    "completion_pinv_pair": "sumdecomp.completion",
    "auto_completion": "sumdecomp.completion",
    "fill_fishkind_pinv": "sumdecomp.fill_fishkind",
    "circ_spectrum": "circulant.spectrum",
    "generator_from_spectrum": "circulant.spectrum",
    "circ_pinv_spectral": "circulant.route",
    "two_term_pinv": "circulant.route",
    "zero_sum_shift_pinv": "circulant.route",
    "block_pattern_pinv": "circulant.route",
    "circ_materialize": "circulant.materialize",
    "tree_build": "graphdist.tree",
    "tree_pinv": "graphdist.tree",
    "tree_u_and_reconstruction": "graphdist.tree",
    "wheel_build": "graphdist.wheel",
    "wheel_pinv": "graphdist.wheel",
    "wheel_z_identities": "graphdist.wheel",
    "loads_matrix_json": "matrix.parse",
    "loads_matrix_csv": "matrix.parse",
    "loads_generator_json": "matrix.parse",
    "loads_tree_csv": "matrix.parse",
    "parse_generator": "matrix.parse",
    "dumps_matrix_json": "matrix.serialize",
    "dumps_matrix_csv": "matrix.serialize",
    "dumps_generator_json": "matrix.serialize",
    "dumps_tree_csv": "matrix.serialize",
    "main": "cli",
}
MODULES = ("matrix", "linalg", "core", "sumdecomp", "circulant", "graphdist", "cli")

LAYER, FUNC, START, END, PARENT, OP, INFO = range(7)


def _svd_info(args, kwargs):
    """(rows, cols, digest of the complex128 input bytes)."""
    a = np.ascontiguousarray(args[0] if args else kwargs["a"], dtype=np.complex128)
    return a.shape[0], a.shape[1], hashlib.sha1(a.tobytes() + repr(a.shape).encode()).digest()


def _text_len(args, kwargs):
    return len(args[0] if args else next(iter(kwargs.values())))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.replaced: list[tuple] = []

    def wrap(self, func, name: str):
        layer = LAYERS[name]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = _svd_info if name == "svd" else _text_len if layer == "matrix.parse" else None
        measure_result = layer == "matrix.serialize"

        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.op, info]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure_result:
                span[INFO] = len(result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def install(self) -> None:
        """Wrap every traced function at each attribute that binds it."""
        modules = [sys.modules[f"pinvkit.{name}"] for name in MODULES]
        modules.append(sys.modules["pinvkit"])
        for name in LAYERS:
            home = sys.modules[f"pinvkit.{LAYERS[name].split('.')[0]}"]
            original = getattr(home, name)
            wrapper = self.wrap(original, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.replaced.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self.replaced:
            setattr(module, attr, original)
        self.replaced = []


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, self time and counters from a list of spans.

    Self time is span time minus the time of its direct child spans. A call
    counts when its parent span belongs to another layer (another function,
    for per-function counts), so an svd that recurses on the adjoint or an
    inverse that calls lu_solve counts once.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    func_calls: dict[str, int] = {}
    svd_calls = svd_repeats = 0
    svd_work = 0.0
    seen_inputs: set = set()
    parse_bytes = serialize_bytes = 0
    for index, span in enumerate(spans):
        layer, name = span[LAYER], span[FUNC]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        self_s[layer] = self_s.get(layer, 0.0) + (span[END] - span[START]) - child_time[index]
        if parent is None or parent[LAYER] != layer:
            calls[layer] = calls.get(layer, 0) + 1
        if parent is None or parent[FUNC] != name:
            func_calls[name] = func_calls.get(name, 0) + 1
            if name == "svd":
                m, n, digest = span[INFO]
                svd_calls += 1
                svd_work += max(m, n) * min(m, n) ** 2
                key = (span[OP], digest)
                svd_repeats += key in seen_inputs
                seen_inputs.add(key)
        if layer == "matrix.parse":
            parse_bytes += span[INFO]
        elif layer == "matrix.serialize":
            serialize_bytes += span[INFO]

    out = {}
    for layer in ("linalg.svd", "linalg.lu", "linalg.cholesky", "core.pinv", "core.penrose",
                  "circulant.spectrum"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in ("linalg.svd", "linalg.lu", "linalg.cholesky", "core.pinv", "core.penrose",
                  "core.characterization", "core.normal", "sumdecomp.completion",
                  "sumdecomp.fill_fishkind", "circulant.spectrum", "circulant.route",
                  "circulant.materialize", "graphdist.tree", "graphdist.wheel", "matrix.parse",
                  "matrix.serialize", "cli"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["linalg.svd.repeat_frac"] = svd_repeats / svd_calls if svd_calls else 0.0
    out["linalg.svd.ns_per_mn2"] = 1e9 * self_s.get("linalg.svd", 0.0) / svd_work if svd_work else 0.0
    out["graphdist.wheel_build.calls"] = func_calls.get("wheel_build", 0)
    out["matrix.parse.bytes"] = parse_bytes
    out["matrix.serialize.bytes"] = serialize_bytes
    return out
