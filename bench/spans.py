"""Per-layer spans, timed from outside the program.

The tracer wraps the public functions of each mifht layer, and the numpy and
scipy factorizations they call, by replacing the attribute in every module
namespace that bound it (``gamma`` imports ``assemble_K`` from ``solver``,
``problems`` imports most public names, the package re-exports them).
Nothing under ``src/`` is edited; ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, op]``: perf_counter seconds, the index
of the enclosing span (-1 at the top) and the op id.  Spans stay in memory
until the run ends.  Alongside the spans the wrappers accumulate computed
counts (unknowns, bytes, flops, points, products) from argument shapes; these
are labelled "computed" because they come from sizes, not from hardware
counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _cplx(a):
    return 4.0 if np.iscomplexobj(a) else 1.0


def _count_svd(tracer, ba, result):
    a = np.asarray(ba.arguments["a"])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    batch = a.size // (m * n)
    if ba.arguments.get("compute_uv", True):
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3  # Golub-Van Loan
    else:
        flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    tracer.counts["linalg.svd.flops"] += flops * batch * _cplx(a)


def _count_lu_factor(tracer, ba, result):
    a = np.asarray(ba.arguments["a"])
    m, n = max(a.shape), min(a.shape)
    tracer.counts["linalg.lu_factor.flops"] += (m * n * n - n ** 3 / 3.0) * _cplx(a)


def _count_assemble(tracer, ba, ns):
    tracer.counts["nystrom.unknowns"] += ns.size
    tracer.counts["nystrom.matrix_bytes"] += ns.matrix.nbytes + ns.kernel.nbytes
    key = (ns.sys.endpoints.tobytes(), ns.theta.entries.tobytes(),
           tuple(ns.grid.sizes), complex(ns.lam))
    tracer.nystrom_keys.add(key)


def _count_eval(tracer, ba, result):
    tracer.counts["gamma.eval.points"] += np.size(ba.arguments["points"])


def _count_inverse_map(tracer, ba, result):
    tracer.counts["uniform.inverse_map.points"] += np.size(ba.arguments["t"])


def _count_inverse_ft_at(tracer, ba, result):
    spec = np.asarray(ba.arguments["spec"])
    spectra = spec.size // spec.shape[-1]
    tracer.counts["uniform.inverse_ft_at.products"] += (
        ba.arguments["grid"].npoints * np.size(ba.arguments["tstars"]) * spectra)


def _count_j_many(tracer, ba, result):
    fs = list(ba.arguments["fs"])
    tracer.counts["solver.bilinear_form_J_many.products"] += (
        fs[0].sys.n * ba.arguments["order"] * ba.arguments["n_xi"] * len(fs))


# (span name, module, attribute or Class.method, computed-count hook)
TARGETS = (
    ("problems.parse_problem", "mifht.problems", "parse_problem", None),
    ("problems.build_rhs", "mifht.problems", "build_rhs", None),
    ("problems.run_command", "mifht.problems", "run_command", None),
    ("problems.to_json", "mifht.problems", "ResultBundle.to_json", None),
    ("solver.forward_map", "mifht.solver", "forward_map", None),
    ("solver.compute_c", "mifht.solver", "compute_c", None),
    ("solver.compute_nu", "mifht.solver", "compute_nu", None),
    ("solver.assemble_K", "mifht.solver", "assemble_K", _count_assemble),
    ("solver.solve_phi", "mifht.solver", "solve_phi", None),
    ("solver.residual_range2", "mifht.solver", "residual_range2", None),
    ("solver.injectivity_report", "mifht.solver", "injectivity_report", None),
    ("solver.bilinear_form_J_many", "mifht.solver", "bilinear_form_J_many",
     _count_j_many),
    ("linalg.svd", "numpy.linalg", "svd", _count_svd),
    ("linalg.lu_factor", "scipy.linalg", "lu_factor", _count_lu_factor),
    ("linalg.lu_solve", "scipy.linalg", "lu_solve", None),
    ("linalg.inv", "numpy.linalg", "inv", None),
    ("gamma.build_gamma", "mifht.gamma", "build_gamma", None),
    ("gamma.compute_F", "mifht.gamma", "compute_F", None),
    ("gamma.GammaSolution.init", "mifht.gamma", "GammaSolution.__init__", None),
    ("gamma.eval", "mifht.gamma", "GammaSolution.eval", _count_eval),
    ("gamma.gtinv", "mifht.gamma", "GammaSolution.gtinv", None),
    ("gamma.apply_resolvent", "mifht.gamma", "GammaSolution.apply_resolvent", None),
    ("gamma.jump_residual", "mifht.gamma", "GammaSolution.jump_residual", None),
    ("gamma.range_condition_N2", "mifht.gamma", "range_condition_N2", None),
    ("gamma.range_condition_J12", "mifht.gamma", "range_condition_J12", None),
    ("gamma.range_check_L1_variant", "mifht.gamma", "range_check_L1_variant", None),
    ("gamma.invert_via_resolvent", "mifht.gamma", "invert_via_resolvent", None),
    ("uniform.build_spectral_data", "mifht.uniform", "build_spectral_data", None),
    ("uniform.tables", "mifht.uniform", "SpectralData.tables", None),
    ("uniform.inverse_map", "mifht.uniform", "SpectralData.inverse_map",
     _count_inverse_map),
    ("uniform.apply_T", "mifht.uniform", "apply_T", None),
    ("uniform.forward_ft", "mifht.uniform", "forward_ft", None),
    ("uniform.inverse_ft_at", "mifht.uniform", "inverse_ft_at", _count_inverse_ft_at),
    ("uniform.build_M", "mifht.uniform", "build_M", None),
    ("uniform.uniform_range_check", "mifht.uniform", "uniform_range_check", None),
    ("uniform.uniform_invert", "mifht.uniform", "uniform_invert", None),
    ("uniform.uniform_forward", "mifht.uniform", "uniform_forward", None),
    ("chebyshev.chebU_coeffs", "mifht.chebyshev", "chebU_coeffs", None),
    ("chebyshev.chebT_coeffs", "mifht.chebyshev", "chebT_coeffs", None),
    ("single.fht_forward", "mifht.single", "fht_forward", None),
    ("single.range_scan", "mifht.single", "range_scan", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)

# computed count -> (metric name, unit); normalised per op unless noted
COUNT_METRICS = (
    ("nystrom.unknowns", "nystrom.unknowns_per_op", "unknowns/op"),
    ("nystrom.matrix_bytes", "nystrom.matrix_bytes_per_op", "bytes/op"),
    ("linalg.lu_factor.flops", "linalg.lu_factor.flops_per_op", "flop/op"),
    ("linalg.svd.flops", "linalg.svd.flops_per_op", "flop/op"),
    ("uniform.inverse_map.points", "uniform.inverse_map.points_per_op", "points/op"),
    ("uniform.inverse_ft_at.products", "uniform.inverse_ft_at.products_per_op",
     "products/op"),
    ("solver.bilinear_form_J_many.products",
     "solver.bilinear_form_J_many.products_per_op", "products/op"),
)

# metrics derived from sizes rather than timed
COMPUTED = frozenset([metric for _, metric, _ in COUNT_METRICS]
                     + ["gamma.eval.points_per_call", "nystrom.reuse_ratio"])


class Tracer:
    """Installs span wrappers around the TARGETS and collects spans and counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.nystrom_keys = set()  # distinct (system, theta, M, lambda)
        self.missing = []  # targets absent from this version of the program
        self.hook_errors = Counter()
        self._stack = []
        self._op = -1
        self._patches = []  # (owner, attribute, original, wrapper)
        for name, module, attr, hook in TARGETS:
            self._prepare(name, module, attr, hook)

    def _prepare(self, name, module, attr, hook):
        mod = importlib.import_module(module)
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            owner = getattr(mod, cls_name, None)
            original = None if owner is None else owner.__dict__.get(meth)
            if original is None:
                self.missing.append(name)
                return
            wrapper = self._wrap(name, original, hook)
            self._patches.append((owner, meth, original, wrapper))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = self._wrap(name, original, hook)
        owners = [mod] + [m for key, m in list(sys.modules.items())
                          if (key == "mifht" or key.startswith("mifht.")) and m is not mod]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original, wrapper))

    def _wrap(self, name, fn, hook):
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer._op]
            spans.append(span)
            tracer._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    ba = signature.bind(*args, **kwargs)
                    ba.apply_defaults()
                    hook(tracer, ba, result)
                except (TypeError, KeyError, AttributeError, IndexError, ValueError):
                    tracer.hook_errors[name] += 1
            return result

        return traced

    def install(self, op):
        self._op = op
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def layer_metrics(self, traced_ops):
        """Per-span calls and self time per op, plus the computed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        per_op = 1.0 / max(traced_ops, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls_per_op"] = (calls[name] * per_op, "calls/op")
            out[f"{name}.self_ms_per_op"] = (self_s[name] * 1e3 * per_op, "ms/op")
        for key, metric, unit in COUNT_METRICS:
            out[metric] = (self.counts[key] * per_op, unit)
        evals = calls["gamma.eval"]
        out["gamma.eval.points_per_call"] = (
            self.counts["gamma.eval.points"] / evals if evals else 0.0, "points/call")
        assembles = calls["solver.assemble_K"]
        out["nystrom.reuse_ratio"] = (
            len(self.nystrom_keys) / assembles if assembles else 0.0, "1")
        return out
