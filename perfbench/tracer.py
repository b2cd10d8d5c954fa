"""Per-layer spans and counts for one traced run, recorded from outside the package.

``install`` replaces public functions and methods of the reachgeom modules by
timing wrappers, at every name through which the package looks them up (for
example ``curvature.reach_along`` as well as ``projection.reach_along``).
Each call becomes a span (layer, start, end, parent) kept in memory; counts
are taken at the same boundaries.  Nothing inside ``src/`` is edited, and the
wrappers return exactly what they wrap, so reports keep their bytes.

A layer's self time is its spans' durations minus the time their direct
child spans cover.  Summed over the spans inside the ``cli.run`` span, the
self times of all layers add up to that span's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict

NORM_KERNELS = (
    "value", "grad", "hessian", "conjugate", "conjugate_grad", "conjugate_hessian",
    "gauss_map", "gauss_inverse",
)
SHAPE_METHODS = {
    "boundary_strata": "shapes.boundary_strata",
    "boundary_cloud": "shapes.boundary_cloud",
    "exact_projection": "shapes.exact_projection",
}
VERDICTS = (
    "minkowski_check", "heintze_karcher_check", "mean_convexity_ledger",
    "alexandrov_classify", "lower_bound_rigidity",
)

# layers whose self time is reported, in report order
LAYERS = (
    "norms.tangent_basis", "norms.kernel",
    "shapes.boundary_strata", "shapes.boundary_cloud", "shapes.exact_projection",
    "projection.nearest_points", "projection.distance_field", "projection.reach_along",
    "projection.global_reach",
    "curvature.bundle_nodes", "curvature.bundle_sample",
    "measures.fan_bundle", "measures.voxel_tube_volume", "measures.curvature_measure",
    "measures.steiner_predict",
    "theorems.verdict",
    "cli.run",
)
COUNTS = (
    "norms.tangent_basis.rows", "norms.kernel.rows", "shapes.fibers",
    "shapes.exact_projection.points", "projection.route.closed.points",
    "projection.route.chart.points", "projection.route.cloud.points",
    "projection.reach_along.rays", "projection.reach_along.delta_evals",
    "curvature.bundle_nodes.nodes", "curvature.bundle_sample.rows",
    "curvature.bundle_sample.ambiguous", "measures.fan_bundle.calls",
    "measures.voxel_tube_volume.voxels", "measures.mc_fallbacks", "theorems.verdicts",
)


def _rows(x) -> int:
    """Vectors in a batch: every axis but the last (coordinates) counts."""
    return math.prod(getattr(x, "shape", (1,))[:-1])


class Tracer:
    """Spans in memory plus counters, for one process and one thread."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []  # indices of open spans
        self._flags = []  # per open span: dict of facts set by its children

    def parent_layer(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, layer: str, fn, after=None):
        """Wrap fn so that each call records a span; ``after`` sees the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([layer, 0.0, 0.0, parent])
            self._stack.append(idx)
            self._flags.append({})
            self.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                flags = self._flags.pop()
            if after is not None:
                after(self, args, kwargs, result, flags)
            return result

        return wrapper

    def self_times(self, root_layer: str) -> dict:
        """Self time per layer, over the spans under top-level ``root_layer`` spans."""
        covered = defaultdict(float)
        root = []  # a parent is recorded before its children
        for i, (_, start, end, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            if self.spans[root[i]][0] == root_layer:
                out[layer] += (end - start) - covered[i]
        return dict(out)

    def total(self, layer: str) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name == layer)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["layer", "start", "end", "parent"], "spans": self.spans}, f)


# ----------------------------------------------------------------------
# what each wrapper counts once its call has returned
# ----------------------------------------------------------------------


def _outermost(layer):
    """Count only calls not nested in a call of the same layer."""

    def decorate(count):
        def after(tr, args, kwargs, result, flags):
            if tr.parent_layer() != layer:
                count(tr, args, kwargs, result, flags)

        return after

    return decorate


@_outermost("norms.tangent_basis")
def _after_tangent_basis(tr, args, kwargs, result, flags):
    tr.counts["norms.tangent_basis.rows"] += _rows(args[0])


@_outermost("norms.kernel")
def _after_kernel(tr, args, kwargs, result, flags):
    tr.counts["norms.kernel.rows"] += _rows(args[1]) if len(args) > 1 else 1


@_outermost("shapes.boundary_strata")
def _after_strata(tr, args, kwargs, result, flags):
    tr.counts["shapes.fibers"] += sum(len(s.fibers) for s in result)


def _after_exact_projection(tr, args, kwargs, result, flags):
    if tr.parent_layer() == "shapes.exact_projection":
        return
    tr.counts["shapes.exact_projection.points"] += _rows(args[2])
    if tr._flags:
        tr._flags[-1]["exact"] = result is not None


def _after_nearest_points(tr, args, kwargs, result, flags):
    route = "closed" if flags.get("exact") else "chart"
    tr.counts[f"projection.route.{route}.points"] += len(result[1])


def _after_distance_field(tr, args, kwargs, result, flags):
    route = "closed" if flags.get("exact") else "cloud"
    tr.counts[f"projection.route.{route}.points"] += len(result)
    if tr.parent_layer() == "measures.voxel_tube_volume":
        tr.counts["measures.voxel_tube_volume.voxels"] += len(result)


def _after_reach_along(tr, args, kwargs, result, flags):
    tr.counts["projection.reach_along.rays"] += len(result)


def _after_bundle_nodes(tr, args, kwargs, result, flags):
    tr.counts["curvature.bundle_nodes.nodes"] += len(result[0])


def _after_bundle_sample(tr, args, kwargs, result, flags):
    tr.counts["curvature.bundle_sample.rows"] += len(result.points)
    ambiguous = result.ambiguous.reshape(len(result.points), -1).any(axis=1)
    tr.counts["curvature.bundle_sample.ambiguous"] += int(ambiguous.sum())


def _after_fan_bundle(tr, args, kwargs, result, flags):
    tr.counts["measures.fan_bundle.calls"] += 1


def _after_verdict(tr, args, kwargs, result, flags):
    tr.counts["theorems.verdicts"] += 1


def _counting_set_distance(tr, fn):
    """set_distance inside reach_along: count distance evaluations, no span."""

    @functools.wraps(fn)
    def wrapper(shape, norm, x):
        result = fn(shape, norm, x)
        if tr.parent_layer() == "projection.reach_along":
            tr.counts["projection.reach_along.delta_evals"] += len(result)
        return result

    return wrapper


def _counting_mc(tr, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts["measures.mc_fallbacks"] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries, at every name they are looked up by."""
    from reachgeom import cli, curvature, measures, norms, projection, shapes, theorems

    def patch(layer, modules, attr, after=None):
        wrapped = tracer.span(layer, getattr(modules[0], attr), after)
        for mod in modules:
            setattr(mod, attr, wrapped)

    patch("norms.tangent_basis", (norms, curvature, measures), "tangent_basis",
          _after_tangent_basis)
    patch("projection.nearest_points", (projection, curvature), "nearest_points",
          _after_nearest_points)
    patch("projection.distance_field", (projection, measures), "distance_field",
          _after_distance_field)
    patch("projection.reach_along", (projection, curvature), "reach_along", _after_reach_along)
    patch("projection.global_reach", (projection, cli, theorems), "global_reach")
    patch("curvature.bundle_nodes", (curvature, measures), "bundle_nodes", _after_bundle_nodes)
    patch("curvature.bundle_sample", (curvature, measures), "bundle_sample",
          _after_bundle_sample)
    patch("measures.fan_bundle", (measures,), "fan_bundle", _after_fan_bundle)
    patch("measures.voxel_tube_volume", (measures,), "voxel_tube_volume")
    patch("measures.curvature_measure", (measures, cli), "curvature_measure")
    patch("measures.steiner_predict", (measures,), "steiner_predict")
    for name in VERDICTS:
        patch("theorems.verdict", (theorems, cli), name, _after_verdict)
    patch("cli.load_config", (cli,), "load_config")
    patch("cli.run", (cli,), "run")
    # reach_along looks set_distance up in its own module
    projection.set_distance = _counting_set_distance(tracer, projection.set_distance)
    # the one private hook: the voxel budget's Monte-Carlo fallback
    measures._mc_tube_volume = _counting_mc(tracer, measures._mc_tube_volume)

    after_shape = {
        "shapes.boundary_strata": _after_strata,
        "shapes.exact_projection": _after_exact_projection,
    }
    for cls in vars(shapes).values():
        if inspect.isclass(cls) and issubclass(cls, shapes.Shape):
            for meth, layer in SHAPE_METHODS.items():
                if meth in vars(cls):
                    setattr(cls, meth, tracer.span(layer, vars(cls)[meth], after_shape.get(layer)))
    for cls in vars(norms).values():
        if inspect.isclass(cls) and issubclass(cls, norms.Norm):
            for meth in NORM_KERNELS:
                if meth in vars(cls):
                    setattr(cls, meth, tracer.span("norms.kernel", vars(cls)[meth], _after_kernel))
