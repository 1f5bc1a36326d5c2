"""Span tracing for the traced benchmark run, from outside the program.

``Tracer.installed()`` swaps public orthofem functions and methods for
wrappers that record a span (name, start, end, parent span, raised) per
call.  Each name is wrapped where its caller looks it up: ``cli.solve``
rather than ``solver.solve``, ``solver.cg_solve`` rather than
``linalg.cg_solve``, methods on their class.  Spans stay in memory and are
written out when the run ends; self times are computed from them.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute or Class.method, span name)
TARGETS = (
    ("orthofem.cli", "run_study", "cli.run_study"),
    ("orthofem.cli", "build_quad", "mesh.build"),
    ("orthofem.cli", "build_tri", "mesh.build"),
    ("orthofem.cli", "solve", "solver.solve"),
    ("orthofem.cli", "error_norms", "analysis.error_norms"),
    ("orthofem.mesh", "element_patch", "mesh.element_patch"),
    ("orthofem.fespace", "FeSpace.__init__", "fespace.space"),
    ("orthofem.fespace", "abs_partial_integral", "fespace.abs_partial_integral"),
    ("orthofem.solver", "assemble_weighted_stiffness", "solver.weighted_assembly"),
    ("orthofem.solver", "flow_step", "solver.flow_step"),
    ("orthofem.solver", "energy", "solver.energy"),
    ("orthofem.solver", "galerkin_residual", "solver.residual"),
    ("orthofem.solver", "cg_solve", "linalg.cg"),
    ("orthofem.linalg", "CsrPattern.__init__", "linalg.pattern"),
    ("orthofem.linalg", "CsrPattern.assemble", "linalg.assemble"),
    ("orthofem.linalg", "CsrMatrix.matvec", "linalg.matvec"),
    ("orthofem.nfunc", "GrowthLaw.weight", "nfunc.weight"),
    ("orthofem.nfunc", "GrowthLaw.flux", "nfunc.flux"),
    ("orthofem.interp", "AveragedInterpolant.__init__", "interp.averaged_build"),
    ("orthofem.interp", "AveragedInterpolant.apply", "interp.averaged_apply"),
    ("orthofem.interp", "DualBasisProjector.__init__", "interp.dual_build"),
    ("orthofem.interp", "DualBasisProjector.apply", "interp.dual_apply"),
    ("orthofem.interp", "transfer", "interp.transfer"),
)

# bytes a CSR matvec must touch at least, per the arrays of this CsrMatrix:
# values, column indices and row ids (8 bytes each per nonzero), x and y
MATVEC_BYTES_PER_NNZ = 24
MATVEC_BYTES_PER_ROW = 16


def _matvec_count(counts, args, result):
    matrix = args[0]
    counts["linalg.matvec_bytes_computed"] += (
        MATVEC_BYTES_PER_NNZ * matrix.nnz + MATVEC_BYTES_PER_ROW * matrix.dim)


def _cg_count(counts, args, result):
    counts["linalg.cg_iters"] += result[1]


COUNTERS = {"linalg.matvec": _matvec_count, "linalg.cg": _cg_count}


class Tracer:
    """In-memory spans of one traced repetition."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, raised]
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def layer_times(self):
        """Per span name: inclusive seconds (outermost spans of that name
        only), self seconds, calls and calls that raised."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "raised": 0})
        for i, (name, start, end, parent, raised) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["raised"] += raised
            entry["self_s"] += end - start - child_time[i]
            if not self._has_ancestor(parent, name):
                entry["s"] += end - start
        return out

    def _has_ancestor(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False


def layer_metrics(tracer):
    """The per-layer metrics a traced repetition yields from its spans."""
    times = tracer.layer_times()
    metrics = {}
    for name in {target[2] for target in TARGETS}:
        metrics[f"{name}_s"] = times[name]["s"]
        metrics[f"{name}_calls"] = times[name]["calls"]
    matvec_s = metrics["linalg.matvec_s"]
    matvec_calls = metrics["linalg.matvec_calls"]
    matvec_bytes = tracer.counts["linalg.matvec_bytes_computed"]
    metrics.update({
        "linalg.matvec_us": 1e6 * matvec_s / matvec_calls if matvec_calls else 0.0,
        "linalg.matvec_bytes_computed": matvec_bytes,
        "linalg.matvec_gbps_computed": matvec_bytes / matvec_s / 1e9 if matvec_s else 0.0,
        "linalg.cg_self_s": times["linalg.cg"]["self_s"],
        "linalg.cg_iters": tracer.counts["linalg.cg_iters"],
        "linalg.cg_failures": times["linalg.cg"]["raised"],
        "solver.system_build_s": times["solver.flow_step"]["self_s"],
        "solver.self_s": times["solver.solve"]["self_s"],
        "cli.self_s": times["cli.run_study"]["self_s"],
    })
    return metrics


def spans_record(tracer):
    """JSON-ready spans with times relative to the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    return [[name, round(start - origin, 9), round(end - origin, 9), parent, raised]
            for name, start, end, parent, raised in tracer.spans]
