"""Span tracing of ramat's layers, applied from outside the package.

``Tracer.install`` rebinds the public functions of the traced ramat modules
wherever a ramat module holds them, plus the ``IntMatrix`` constructor and
``IntMatrix.mul_vector``.  Each call then records one span
``(name, start, end, parent)`` in memory; a generator function records one
span per ``next()``.  Self time is a span's duration minus the time its
child spans cover.  A few counters (rows, ranks, bit lengths, predictions,
closure sizes) are read off call results; ``_echelon_basis`` is hooked as a
counter only, because it is the one place every echelon build passes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "graphs", "products", "intlin", "ra_core",
    "theorems", "group_oracle", "verify", "cli",
)

STRUCTURE = {
    "girth", "is_bipartite", "connected_components", "is_connected",
    "distance", "is_neighborhood_distinguishable",
}
FAMILIES = {
    "path", "cycle", "complete", "complete_bipartite", "cube", "folded_cube",
    "crown", "kneser", "kneser_vertices", "complement", "binary_graph",
}
GROUP_CONSTRUCTORS = {"heisenberg", "dihedral"}

# metric name -> span names whose self time it sums (module totals are added
# in ``layer_metrics``)
SELF_GROUPS = {
    "graphs.graph6_decode.self_s": {"graphs.graph6_decode"},
    "graphs.graph6_encode.self_s": {"graphs.graph6_encode"},
    "graphs.structure.self_s": {f"graphs.{f}" for f in STRUCTURE},
    "graphs.families.self_s": {f"graphs.{f}" for f in FAMILIES},
    "ra_core.ra_matrix.self_s": {"ra_core.ra_matrix"},
    "ra_core.classify.self_s": {"ra_core.classify"},
    "ra_core.classification_record.self_s": {"ra_core.classification_record"},
    "intlin.IntMatrix.self_s": {"intlin.IntMatrix"},
    "intlin.hermite_normal_form.self_s": {"intlin.hermite_normal_form"},
    "intlin.smith_normal_form.self_s": {"intlin.smith_normal_form"},
    "intlin.minimal_axis_multiple.self_s": {"intlin.minimal_axis_multiple"},
    "intlin.lattice_contains.self_s": {"intlin.lattice_contains"},
    "intlin.kernel_basis_mod_p.self_s": {"intlin.kernel_basis_mod_p"},
    "intlin.IntMatrix.mul_vector.self_s": {"intlin.IntMatrix.mul_vector"},
    "group_oracle.groups_built.self_s": {f"group_oracle.{f}" for f in GROUP_CONSTRUCTORS},
    "cli.batch_category.self_s": {"cli.batch_category"},
}

# metric name -> span names whose call count it sums
CALL_GROUPS = {
    "graphs.graph6_decode.calls": {"graphs.graph6_decode"},
    "ra_core.ra_matrix.calls": {"ra_core.ra_matrix"},
    "ra_core.elementary_divisors.calls": {"ra_core.elementary_divisors"},
    "ra_core.ra_lattice.calls": {"ra_core.ra_lattice"},
    # every sign query, through pair_sign or directly, ends here
    "ra_core.pair_sign.calls": {"ra_core.pair_sign_from_lattice"},
    "intlin.IntMatrix.calls": {"intlin.IntMatrix"},
    "intlin.hermite_normal_form.calls": {"intlin.hermite_normal_form"},
    "intlin.smith_normal_form.calls": {"intlin.smith_normal_form"},
    "intlin.minimal_axis_multiple.calls": {"intlin.minimal_axis_multiple"},
    "intlin.lattice_contains.calls": {"intlin.lattice_contains"},
}

COUNTERS = (
    "ra_core.ra_rows",
    "intlin.echelon_builds",
    "intlin.rows_in",
    "intlin.rank_out",
    "intlin.hnf_max_bits",
    "intlin.hnf_det_bits",
    "theorems.predictions",
    "theorems.applicable",
    "group_oracle.closure_elements",
)


def is_counter(name: str) -> bool:
    """Per-layer metrics that count work and must repeat exactly, as
    opposed to times, rates and the tracing overhead."""
    return not name.endswith(("self_s", "per_s", "_frac"))


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.counts: dict = defaultdict(int)
        self.hermite_forms: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(name)  # open spans hold their bare name
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1])
            if post is not None:
                post(result, stack[-1])
            return result
        return wrapper

    def _iterate(self, name, gen):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        while True:
            idx = len(spans)
            spans.append(name)
            stack.append(idx)
            t0 = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1])
            yield item

    # -- counters read off results ----------------------------------------

    def _post_ra_matrix(self, result, parent):
        self.counts["ra_core.ra_rows"] += result.matrix.rows

    def _post_hermite(self, result, parent):
        # bit lengths are taken after the pass, outside every span
        self.hermite_forms.append(result)

    def _post_prediction(self, result, parent):
        if parent >= 0 and self.spans[parent].startswith("theorems."):
            return  # counted once, where it leaves the theorems layer
        preds = result if isinstance(result, tuple) else (result,)
        for p in preds:
            if hasattr(p, "applicable"):
                self.counts["theorems.predictions"] += 1
                self.counts["theorems.applicable"] += bool(p.applicable)

    def _post_closure(self, result, parent):
        if isinstance(result, frozenset):
            self.counts["group_oracle.closure_elements"] += len(result)

    def _count_echelon(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(rows, n):
            basis = fn(rows, n)
            counts["intlin.echelon_builds"] += 1
            counts["intlin.rows_in"] += len(rows)
            counts["intlin.rank_out"] += len(basis)
            return basis
        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind the traced functions in every loaded ramat module."""
        mods = {short: importlib.import_module(f"ramat.{short}")
                for short in TRACED_MODULES}
        holders = [m for n, m in list(sys.modules.items())
                   if n == "ramat" or n.startswith("ramat.")]
        posts = {
            "ra_core.ra_matrix": self._post_ra_matrix,
            "intlin.hermite_normal_form": self._post_hermite,
        }
        for short, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{fname}"
                post = posts.get(name)
                if short == "theorems":
                    post = self._post_prediction
                elif short == "group_oracle":
                    post = self._post_closure
                wrapped = self._wrap(name, fn, post)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapped)
        intlin = mods["intlin"]
        cls = intlin.IntMatrix
        cls.__init__ = self._wrap("intlin.IntMatrix", cls.__init__)
        cls.mul_vector = self._wrap("intlin.IntMatrix.mul_vector", cls.mul_vector)
        if hasattr(intlin, "_echelon_basis"):
            intlin._echelon_basis = self._count_echelon(intlin._echelon_basis)

    # -- results ------------------------------------------------------------

    def aggregate(self):
        """Per span name: (calls, self seconds)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - covered[i]
        return calls, self_s

    def hermite_bits(self):
        max_bits = det_bits = 0
        for h in self.hermite_forms:
            for row in h.matrix.data:
                for x in row:
                    max_bits = max(max_bits, abs(x).bit_length())
            det = 1
            for row, j in zip(h.matrix.data, h.pivot_columns):
                det *= row[j - 1]
            if h.pivot_columns:
                det_bits = max(det_bits, abs(det).bit_length())
        return max_bits, det_bits

    def layer_metrics(self, graphs_in: int, suites) -> dict:
        calls, self_s = self.aggregate()
        out = {}
        for short in TRACED_MODULES:
            out[f"{short}.self_s"] = sum(
                s for n, s in self_s.items() if n.startswith(short + "."))
        out["products.calls"] = sum(
            c for n, c in calls.items() if n.startswith("products."))
        for metric, names in SELF_GROUPS.items():
            out[metric] = sum(self_s.get(n, 0.0) for n in names)
        for metric, names in CALL_GROUPS.items():
            out[metric] = sum(calls.get(n, 0) for n in names)
        for suite in suites:
            fname = "verify.suite_" + suite.replace("-", "_")
            out[f"verify.suite.{suite}.self_s"] = self_s.get(fname, 0.0)
        counts = dict(self.counts)
        counts["intlin.hnf_max_bits"], counts["intlin.hnf_det_bits"] = self.hermite_bits()
        for name in COUNTERS:
            out[name] = counts.get(name, 0)
        out["intlin.echelon_builds_per_graph"] = (
            out["intlin.echelon_builds"] / graphs_in if graphs_in else 0.0)
        out["intlin.rank_per_row"] = (
            out["intlin.rank_out"] / out["intlin.rows_in"] if out["intlin.rows_in"] else 0.0)
        out["theorems.applicable_ratio"] = (
            out["theorems.applicable"] / out["theorems.predictions"]
            if out["theorems.predictions"] else 0.0)
        del out["theorems.applicable"]
        return out

    def write(self, path) -> None:
        """Write every span as ``name, start, end, parent`` TSV lines, gzipped."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
