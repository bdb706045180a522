"""Spans and counters recorded at the module boundaries of qlattice.

The tracer wraps public functions from outside the package: every module
attribute that is the original function is replaced by the wrapper, so the
names that ``cli``, ``search``, ``families`` and ``certificates`` import from
lower layers are traced too. Spans (name, start, end, parent, op id) stay in
memory and are written out once, when the process ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Groups such as "families.check" add up the
# outermost spans of several functions.
WRAPPED = (
    ("qcombin", "zsigmondy_prime", "qcombin.zsigmondy_prime"),
    ("gfspace", "lattice", "gfspace.lattice"),
    ("gfspace", "intersect", "gfspace.intersect"),
    ("gfspace", "contains", "gfspace.contains"),
    ("gfspace", "containment_vector", "gfspace.containment_vector"),
    ("moebius", "zeta_transform", "moebius.transform"),
    ("moebius", "moebius_transform", "moebius.transform"),
    ("moebius", "generalized_inversion_check", "moebius.inversion_check"),
    ("moebius", "vanishing_check", "moebius.vanishing_check"),
    ("families", "check_modular", "families.check"),
    ("families", "check_fractional", "families.check"),
    ("families", "gram_analysis", "families.gram_analysis"),
    ("families", "bound_theorem1", "families.bound"),
    ("families", "bound_frankl_graham", "families.bound"),
    ("families", "bound_frac_general", "families.bound"),
    ("families", "bound_singleton", "families.bound"),
    ("certificates", "certificate_context", "certificates.certificate_context"),
    ("certificates", "independence_certificate", "certificates.independence_certificate"),
    ("certificates", "rank_mod_p", "certificates.rank_mod_p"),
    ("certificates", "span_check", "certificates.span_check"),
    ("search", "build_graph", "search.build_graph"),
    ("search", "max_family", "search.max_family"),
    ("cli", "render", "cli.render"),
)
CONTAINS_MASK = "gfspace.contains_mask"
MODULES = ("qcombin", "gfspace", "moebius", "families", "certificates", "search", "cli")


def _check_pairs(args, result) -> int:
    """Pairs a family check tested: all of them on pass, up to the witness on failure."""
    m = len(args[0])
    if result.witness is None:
        return m * (m - 1) // 2
    if len(result.witness) == 1:
        return 0
    i, j = result.witness
    return i * (m - 1) - i * (i - 1) // 2 + (j - i)


class Tracer:
    """In-memory span store with per-name counters derived from results."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_graphs: set = set()

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(span, args, result)
            return result

        return traced

    # counters read from results, at the same boundaries as the spans

    def _observe_search_build_graph(self, span, args, graph):
        self.counts["search.vertices"] += graph.size
        self.counts["search.edges"] += graph.edge_count()
        self.counts["search.vertex_pairs"] += graph.size * (graph.size - 1) // 2
        ambient = (graph.ctx, graph.n)
        if ambient not in self.seen_graphs:
            self.seen_graphs.add(ambient)
            self.counts["search.build_graph.first_s"] += span[2] - span[1]

    def _observe_search_max_family(self, span, args, result):
        self.counts["search.nodes"] += result.nodes

    def _observe_certificates_independence_certificate(self, span, args, cert):
        self.counts["certificates.matrix_cells"] += len(cert.rows) * len(cert.points)

    def _observe_families_check(self, span, args, result):
        self.counts["families.check.pairs"] += _check_pairs(args, result)

    def install(self):
        """Replace every module attribute of qlattice bound to a wrapped function."""
        modules = [sys.modules["qlattice"]] + [
            __import__(f"qlattice.{m}", fromlist=["_"]) for m in MODULES
        ]
        for module_name, attr, name in WRAPPED:
            original = getattr(sys.modules[f"qlattice.{module_name}"], attr)
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        lattice_cls = sys.modules["qlattice.gfspace"].Lattice
        getter = lattice_cls.contains_mask.fget
        lattice_cls.contains_mask = property(self.wrap(CONTAINS_MASK, getter))

    def dump(self, path: str, extra: dict | None = None):
        """Write spans and counters as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
            "extra": extra or {},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def summarize(doc: dict) -> dict:
    """calls, busy_s and self_s per span name from one dumped trace.

    busy_s counts only spans whose parent is not a span of the same name, so
    a group such as families.bound is not counted twice when one bound calls
    another. Self time is a span minus the time its child spans cover.
    """
    names = doc["names"]
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for k, s in enumerate(spans):
        name = names[s[0]]
        entry = out[name]
        entry["calls"] += 1
        duration = s[2] - s[1]
        entry["self_s"] += duration - child_time[k]
        if s[3] < 0 or spans[s[3]][0] != s[0]:
            entry["busy_s"] += duration
    return dict(out)
