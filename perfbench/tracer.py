"""Outside-in tracing of the wpcurv layers.

``Tracer.install()`` replaces each traced function of the package with a
wrapper, both at its defining attribute and wherever another module of
the package imported it by name (``cli.enumerate_words``,
``surrogate.pairing_table``, ...).  Each call appends one span
``(name, start, end, parent)`` to an in-memory list and may bump a work
counter; ``uninstall()`` puts the originals back.  The self time of a span
is its duration minus the durations of its direct children; nothing runs
in parallel, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from wpcurv import cli, curvature, fuchsian, qdiff, rankone, surface, surrogate, wedge

MODULES = {m.__name__.rsplit(".", 1)[-1]: m
           for m in (fuchsian, qdiff, surface, curvature, wedge, surrogate, rankone, cli)}

#: every public ``export_*`` writer, plus the group's own exporter
EXPORTS = sorted(["fuchsian.FuchsianGroup.export_json"]
                 + ["%s.%s" % (mod, attr) for mod, m in MODULES.items()
                    for attr, val in vars(m).items()
                    if attr.startswith("export_") and callable(val)
                    and getattr(val, "__module__", None) == m.__name__])

#: per-layer metric stem -> traced functions whose self times it sums
LAYERS = {
    "fuchsian.enumerate_words": ["fuchsian.enumerate_words"],
    "qdiff.build_basis": ["qdiff.build_qdiff_basis"],
    "qdiff.beltrami": ["qdiff.beltrami_from_qdiff"],
    "qdiff.gram": ["qdiff.gram_matrix", "qdiff.orthonormalize"],
    "surface.build_mesh": ["surface.build_mesh"],
    "surface.factor": ["surface.DiscreteSurface.factorization"],
    "surface.eigs": ["surface.laplacian_eigenvalues"],
    "surface.apply_D": ["surface.apply_D"],
    "surface.euler": ["surface.DiscreteSurface.euler_characteristic"],
    "surface.green": ["surface.green_kernel"],
    "wedge.weighted_green": ["wedge.weighted_green"],
    "wedge.integral": ["wedge.integral_form_Q"],
    "curvature.pairing": ["curvature.pairing_table"],
    "curvature.tensor": ["curvature.curvature_tensor"],
    "wedge.assemble_Q": ["wedge.assemble_Q"],
    "wedge.spectrum": ["wedge.spectrum", "wedge.kernel_check"],
    "surrogate.model": ["surrogate.random_surrogate"],
    "surrogate.suite": ["surrogate.run_property_suite"],
    "rankone.lemma": ["rankone.lemma51_check"],
    "cli.export": EXPORTS,
    "cli.self": ["cli.run", "cli.run_surface_stage"],
}

#: stems that also report their call count as ``<stem>_calls``
CALL_COUNTS = ("fuchsian.enumerate_words", "surface.apply_D", "wedge.integral",
               "curvature.pairing", "wedge.assemble_Q")


def _add(key, value_of):
    def observe(counts, result):
        counts[key] += value_of(result)
    return observe


def _lu_nnz(counts, result):
    # factorization() is cached, so keep the largest factor seen
    counts["surface.lu_nnz"] = max(counts["surface.lu_nnz"],
                                   result.L.nnz + result.U.nnz)


def _mesh(counts, result):
    counts["surface.nodes"] += result.num_nodes
    counts["surface.triangles"] += len(result.triangles)


#: traced function -> work counter update from its result
OBSERVERS = {
    "fuchsian.enumerate_words": _add("fuchsian.words", len),
    "surface.build_mesh": _mesh,
    "surface.DiscreteSurface.factorization": _lu_nnz,
    "surface.green_kernel": _add("surface.green_bytes", lambda g: g.matrix.nbytes),
}

COUNTERS = ("fuchsian.words", "surface.nodes", "surface.triangles",
            "surface.lu_nnz", "surface.green_bytes")


def _resolve(dotted: str):
    """'surface.DiscreteSurface.factorization' -> (owner, attribute name)."""
    mod, *path = dotted.split(".")
    owner = MODULES[mod]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._open, OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result
        return traced

    def install(self):
        wrappers = {}
        for names in LAYERS.values():
            for name in names:
                owner, attr = _resolve(name)
                original = getattr(owner, attr)
                wrappers[id(original)] = self._wrap(name, original)
                self._patch(owner, attr, wrappers[id(original)])
        # names imported from another module of the package
        for module in MODULES.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Total self time per span name (duration minus direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        totals[name] += end - start - inner
    return totals


def layer_metrics(spans, counts, wall: float) -> dict:
    """Per-layer self times, call counts, work counters and the remainder
    of `wall` that no top-level span covers."""
    own = self_times(spans)
    calls = Counter(name for name, *_ in spans)
    metrics = {}
    for stem, names in LAYERS.items():
        metrics[stem + "_s"] = sum(own.get(n, 0.0) for n in names)
        if stem in CALL_COUNTS:
            metrics[stem + "_calls"] = sum(calls[n] for n in names)
    for key in COUNTERS:
        metrics[key] = counts.get(key, 0)
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    metrics["trace.uncovered_s"] = wall - covered
    metrics["trace.spans"] = len(spans)
    return metrics
