"""Span tracing of the program's layers from outside the program.

``Tracer.install()`` wraps public functions of ``dissipate`` and puts
each wrapper in place of the original under every name that refers to
it in any ``dissipate`` module: ``dissipate.cli.lambda_of`` and
``dissipate.pointwise.lambda_of`` are two names for one function, and
a wrapper placed on one of them would miss the calls made through the
other.  Methods are wrapped on their class.  ``uninstall()`` puts the
originals back.

A span is (name, start, end, parent, request); spans stay in memory
until ``write()``.  Besides spans, wrappers record counts where the work
happens: points sampled, matrix nonzeros, LU fill, rendered bytes, and
the ``min_eigenvalue`` tests made inside ``lambda_of``.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, count extractor or None)
_SPANS = (
    ("coeffspec", "spec_from_dict", "coeffspec.spec_from_dict", None),
    ("coeffspec", "sample_operator", "coeffspec.sample_operator",
     lambda res: ("points", res.points.shape[0])),
    ("coeffspec", "bump", "coeffspec.bump", None),
    ("pointwise", "jacobi_eigh", "pointwise.jacobi_eigh", None),
    ("pointwise", "lambda_of", "pointwise.lambda_of", None),
    ("pointwise", "check_p_condition", "pointwise.check_p_condition", None),
    ("pointwise", "q_sufficiency", "pointwise.q_sufficiency", None),
    ("pointwise", "constant_coeff_verdict", "pointwise.constant_coeff_verdict", None),
    ("grids", "GridFunction.gradient", "grids.gradient", None),
    ("formcheck", "FormEvaluator.__init__", "formcheck.FormEvaluator.init", None),
    ("formcheck", "FormEvaluator.value", "formcheck.value", None),
    ("formcheck", "gradient_split", "formcheck.gradient_split", None),
    ("formcheck", "falsify", "formcheck.falsify", None),
    ("semigroup", "discretize", "semigroup.discretize",
     lambda res: ("nnz", res.matrix.nnz)),
    ("semigroup", "splu", "semigroup.splu",
     lambda res: ("fill_nnz", res.L.nnz + res.U.nnz)),
    ("semigroup", "lp_norm", "semigroup.lp_norm", None),
    ("semigroup", "evolve", "semigroup.evolve", None),
    ("report", "render_report", "report.render_report",
     lambda res: ("bytes", len(res))),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in _SPANS]
        self.spans = []  # (name index, start, end, parent index, request)
        self.counts = defaultdict(int)
        self.request = -1
        self._stack = []
        self._lambda_depth = 0
        self._restore = []

    # -- wrappers ------------------------------------------------------

    def _span(self, fn, idx, extract):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        name = self.names[idx]

        def wrapper(*args, **kwargs):
            pos = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(pos)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[pos] = (idx, t0, t1, parent, self.request)
            if extract is not None:
                key, val = extract(res)
                counts[f"{name}.{key}"] += val
            return res

        return wrapper

    def _lambda_scope(self, fn):
        def wrapper(*args, **kwargs):
            self._lambda_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._lambda_depth -= 1

        return wrapper

    def _count_tests(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._lambda_depth:
                counts["pointwise.lambda_of.tests"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, original, wrapper):
        """Put wrapper in place of every dissipate module name bound to original."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dissipate" or modname.startswith("dissipate.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        """Wrap the layers; the dissipate modules must be imported already."""
        for idx, (modname, attr, _, extract) in enumerate(_SPANS):
            mod = sys.modules[f"dissipate.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self._span(original, idx, extract))
                self._restore.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                wrapper = self._span(original, idx, extract)
                if attr == "lambda_of":
                    wrapper = self._lambda_scope(wrapper)
                self._replace(original, wrapper)
        pointwise = sys.modules["dissipate.pointwise"]
        self._replace(pointwise.min_eigenvalue, self._count_tests(pointwise.min_eigenvalue))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------

    def layer_table(self, factors):
        """Per-span-name calls, total and self milliseconds, each span
        scaled by its request's host-speed factor."""
        child = [0.0] * len(self.spans)
        for idx, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        for pos, (idx, t0, t1, _, req) in enumerate(self.spans):
            f = factors[req]
            row = table[self.names[idx]]
            row["calls"] += 1
            row["ms"] += (t1 - t0) * f * 1e3
            row["self_ms"] += (t1 - t0 - child[pos]) * f * 1e3
        return table

    def write(self, path_prefix, table):
        """Spans as CSV and the per-layer table as JSON."""
        with open(f"{path_prefix}-spans.csv", "w", encoding="ascii") as fh:
            fh.write("span,name,start_us,end_us,parent,request\n")
            base = self.spans[0][1] if self.spans else 0.0
            for pos, (idx, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(f"{pos},{self.names[idx]},{(t0 - base) * 1e6:.1f},"
                         f"{(t1 - base) * 1e6:.1f},{parent},{req}\n")
        with open(f"{path_prefix}-layers.json", "w", encoding="ascii") as fh:
            json.dump({"layers": table, "counts": dict(self.counts)}, fh, indent=1)
