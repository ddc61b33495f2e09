"""Spans around the named public functions of each latticehk layer.

``Tracer.install`` replaces every named function or method with a wrapper,
in every latticehk module that holds a reference to it (``cauchy_development``
is imported into ``sites``, ``checks``, ``descent`` and the package itself,
for example); ``Tracer.remove`` puts the originals back.  Each call records a
span (id, parent id, name, start, end, self time) in memory; the parent is the
innermost traced call that was running, and self time is the span's duration
minus the time its child spans cover.  ``pass_metrics`` folds the spans of one
pass into the per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import importlib
import sys
import time

FD, SL, KG, DM = "field-descent", "site-localization", "kg-net", "demo-mix"

# (metric prefix, module, attribute path, metrics reported, workloads whose
# run_s the layer should move; a pass of each of those calls the function).
# "calls"/"builds" count calls and "self_s" sums self time; cells, mults,
# objects and distinct_ratio come from _size and _argument_key.
TRACED = [
    ("rational.rref", "latticehk.rational", "Mat.rref",
     ("calls", "self_s", "cells"), (FD,)),
    ("rational.matmul", "latticehk.rational", "Mat.__matmul__",
     ("calls", "self_s", "mults"), (KG, DM)),
    ("rational.is_exact_coequalizer", "latticehk.rational",
     "is_exact_coequalizer", ("calls", "self_s"), (FD,)),
    ("kleingordon.KgSpace", "latticehk.kleingordon", "KgSpace.__init__",
     ("builds", "self_s"), (KG, FD)),
    ("kleingordon.sigma_reduced", "latticehk.kleingordon",
     "KgSpace.sigma_reduced", ("calls", "self_s", "distinct_ratio"),
     (KG, FD)),
    ("kleingordon.transition", "latticehk.kleingordon",
     "KgContext.transition", ("calls", "self_s"), (KG,)),
    ("kleingordon.propagator", "latticehk.kleingordon", "propagator",
     ("calls", "self_s"), (KG, FD)),
    ("descent.relation_counit_check", "latticehk.descent",
     "relation_counit_check", ("calls", "self_s"), (FD,)),
    ("descent.generator_counit_check", "latticehk.descent",
     "generator_counit_check", ("calls", "self_s"), (FD,)),
    ("descent.build_adapted_cover", "latticehk.descent",
     "build_adapted_cover", ("calls", "self_s"), (FD,)),
    ("sites.SiteCategory", "latticehk.sites", "SiteCategory.__init__",
     ("builds", "self_s", "objects", "distinct_ratio"), (SL,)),
    ("sites.CoverCategory", "latticehk.sites", "CoverCategory.__init__",
     ("builds", "self_s"), (SL,)),
    ("sites.enumerate_universe", "latticehk.sites", "enumerate_universe",
     ("calls", "self_s"), (SL,)),
    ("geometry.cauchy_development", "latticehk.geometry",
     "cauchy_development", ("calls", "self_s", "distinct_ratio"), (SL, DM)),
    ("geometry.hull", "latticehk.geometry", "hull", ("calls", "self_s"),
     (SL, DM)),
    ("geometry.double_complement", "latticehk.geometry", "double_complement",
     ("calls", "self_s"), (DM,)),
    ("algebra.enumerate_homs", "latticehk.algebra", "enumerate_homs",
     ("calls", "self_s"), (DM,)),
    ("algebra.WedgeSpace.graph_of", "latticehk.algebra",
     "WedgeSpace.graph_of", ("self_s",), (FD,)),
    ("nets.count_nat_transforms", "latticehk.nets", "count_nat_transforms",
     ("calls", "self_s"), (DM,)),
    ("nets.build_indicator", "latticehk.nets", "build_indicator",
     ("calls", "self_s"), (DM,)),
    ("nets.build_kg_aqft", "latticehk.nets", "build_kg_aqft", ("self_s",),
     (KG,)),
    ("nets.check_kg_axioms", "latticehk.nets", "check_kg_axioms",
     ("self_s",), (KG,)),
    ("checks.run_check", "latticehk.checks", "run_check", (), (FD, SL, DM)),
]

# share of relation counit checks settled by the adapted band cover
ADAPTED_RATIO = "descent.adapted_ratio"
# median pass times, traced and untraced, both speed-corrected, and their
# difference; the raw wall medians of the untraced passes and of set-up, so
# that a change read in corrected time can be checked against wall time
TRACE_METRICS = ("trace.run_s", "trace.untraced_run_s", "trace.overhead_s",
                 "trace.wall_run_s", "trace.wall_setup_s")


def layer_metric_names(check_ids) -> list[str]:
    names = []
    for prefix, _, _, metrics, _ in TRACED:
        names += [f"{prefix}.{m}" for m in metrics]
        if prefix == "descent.build_adapted_cover":
            names.append(ADAPTED_RATIO)
    names += [f"checks.{cid}.wall_s" for cid in check_ids]
    return names + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _argument_key(prefix, args):
    """What makes two calls the same work, for a distinct_ratio.  Read after
    the call, so that a SiteCategory is keyed by the objects it kept."""
    if prefix == "kleingordon.sigma_reduced":
        space = args[0]
        return space.cfg, space.pts
    if prefix == "sites.SiteCategory":
        site = args[0]
        return site.M, site.objects, site.compactness, site.localized
    M, U = args[0], args[1]   # geometry.cauchy_development
    return M, U


def _size(prefix, args):
    """Work done by one call, for cells, mults and objects."""
    if prefix == "rational.rref":
        m = args[0]
        return m.nrows * m.ncols
    if prefix == "rational.matmul":
        a, b = args[0], args[1]
        return a.nrows * a.ncols * b.ncols
    return len(args[0].objects)   # sites.SiteCategory, after the build


class Tracer:
    """In-memory spans around the TRACED functions."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, self)
        self._stack: list[list] = []   # [id, child time]
        self._next_id = 0
        self._restore: list[tuple] = []
        self.sizes: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.adapted = [0, 0]   # adapted, relation checks with a strategy
        self.check_wall: dict[str, float] = {}

    def _wrap(self, prefix, fn):
        tracer = self
        clock = time.perf_counter
        track_key = prefix in ("kleingordon.sigma_reduced",
                               "sites.SiteCategory",
                               "geometry.cauchy_development")
        track_size = prefix in ("rational.rref", "rational.matmul",
                                "sites.SiteCategory")

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, parent, prefix, start, end,
                                     duration - frame[1]))
            if track_key:
                tracer.keys.setdefault(prefix, set()).add(
                    _argument_key(prefix, args))
            if track_size:
                tracer.sizes[prefix] = tracer.sizes.get(prefix, 0) + \
                    _size(prefix, args)
            if prefix == "descent.relation_counit_check":
                strategy = result[1].get("strategy")
                if strategy is not None:
                    tracer.adapted[1] += 1
                    tracer.adapted[0] += strategy == "adapted"
            elif prefix == "checks.run_check":
                cid = args[0]
                tracer.check_wall[cid] = tracer.check_wall.get(cid, 0.0) + \
                    duration
            return result

        traced.__wrapped__ = fn
        traced.span_name = prefix
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "latticehk" or n.startswith("latticehk."))
                   and m is not None]
        for prefix, modname, path, _, _ in TRACED:
            owner = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(prefix, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(prefix, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self):
        while self._restore:
            target, name, original = self._restore.pop()
            setattr(target, name, original)

    def reset(self):
        """Start a new pass; spans of earlier passes are dropped."""
        self.spans = []
        self.sizes = {}
        self.keys = {}
        self.adapted = [0, 0]
        self.check_wall = {}

    def pass_metrics(self, check_ids) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (_, _, prefix, _, _, own) in self.spans:
            calls[prefix] = calls.get(prefix, 0) + 1
            self_s[prefix] = self_s.get(prefix, 0.0) + own
        out = {}
        for prefix, _, _, metrics, _ in TRACED:
            n = calls.get(prefix, 0)
            for m in metrics:
                if m in ("calls", "builds"):
                    value = n
                elif m == "self_s":
                    value = self_s.get(prefix, 0.0)
                elif m == "distinct_ratio":
                    value = len(self.keys.get(prefix, ())) / n if n else 0.0
                else:
                    value = self.sizes.get(prefix, 0)
                out[f"{prefix}.{m}"] = value
            if prefix == "descent.build_adapted_cover":
                adapted, settled = self.adapted
                out[ADAPTED_RATIO] = adapted / settled if settled else 0.0
        for cid in check_ids:
            out[f"checks.{cid}.wall_s"] = self.check_wall.get(cid, 0.0)
        return out
