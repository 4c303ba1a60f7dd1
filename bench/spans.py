"""Span recorder for the traced benchmark run, installed from outside the package.

``SpanRecorder.install`` replaces every public function of the spherelab
modules with a recording wrapper, in every module namespace that binds it
(``normalized_legendre_table`` is bound in ``legendre``, ``harmonics``,
``experiments`` and the package itself, and all of them get the same
wrapper).  A few methods and one private helper that the per-layer metrics
need are wrapped as well (``EXTRA_TARGETS``).  The package source is not
edited; callers that look a function up by module attribute at call time,
which is every call inside spherelab, go through the wrapper.

Spans are kept in memory as lists ``[name, start, end, parent, run_id,
info]`` and written out once at the end.  Self time is a span's duration
minus the durations of its direct children.
"""

import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict

MODULES = (
    "legendre",
    "sphere",
    "quadrature",
    "harmonics",
    "random_bases",
    "beams",
    "experiments",
    "cli",
)

# (module, class or None, attribute) wrapped in addition to the public functions.
EXTRA_TARGETS = (
    ("random_bases", "CoefficientBasis", "__init__"),
    ("quadrature", "QuadratureGrid", "integrate"),
    ("quadrature", "QuadratureGrid", "integrate_profile"),
    ("cli", None, "_emit"),
)

# Named layers: span names (defining module + qualified name) per layer.
GROUPS = {
    "legendre.table": ("legendre.normalized_legendre_table",),
    "legendre.row": ("legendre.normalized_assoc_legendre_row",),
    "legendre.column": ("legendre.normalized_assoc_legendre",),
    "legendre.legendre_p": ("legendre.legendre_p",),
    "quadrature.build_grid": ("quadrature.build_grid",),
    "quadrature.reduce": (
        "quadrature.lp_norm",
        "quadrature.superlevel_measure",
        "quadrature.QuadratureGrid.integrate",
        "quadrature.QuadratureGrid.integrate_profile",
    ),
    "quadrature.tube": (
        "quadrature.tube_mask",
        "quadrature.tube_mass",
        "quadrature.arc_tube_masses",
    ),
    "harmonics.synth": ("harmonics.coefficient_field",),
    "harmonics.signed_order_table": ("harmonics.signed_order_table",),
    "harmonics.beam_field": ("harmonics.beam_field",),
    "harmonics.pointwise": (
        "harmonics.ell_p_sum",
        "harmonics.ell_p_profile",
        "harmonics.ell4_sum_field",
        "harmonics.pointwise_envelope",
        "harmonics.pointwise_bound_ratio",
        "harmonics.kernel_bound_ratio",
        "harmonics.eval_basis_row",
        "harmonics.theta_integral",
        "harmonics.projection_kernel",
    ),
    "random_bases.lambda4": ("random_bases.lambda4",),
    "random_bases.haar": ("random_bases.sample_haar_unitary",),
    "random_bases.basis_check": ("random_bases.CoefficientBasis.__init__",),
    "random_bases.moments": (
        "random_bases.trial_rng",
        "random_bases.monte_carlo_lambda4",
        "random_bases.entry_moment",
        "random_bases.gaussian_limit_check",
    ),
    "beams.beam_coefficients": ("beams.beam_coefficients",),
    "beams.orthonormalize": ("beams.orthonormalize",),
    "beams.place_axes": ("beams.place_separated_axes",),
    "sphere.circle_angle": ("sphere.circle_angle",),
    "experiments.average_l4": ("experiments.average_l4_experiment",),
    "experiments.identity_suite": ("experiments.exact_identity_suite",),
    "experiments.superlevel": ("experiments.superlevel_experiment",),
    "experiments.envelope": ("experiments.pointwise_envelope_experiment",),
    "experiments.scaling": (
        "experiments.scaling_experiment",
        "experiments.family_norm_table",
        "experiments.fit_power_law",
    ),
    "experiments.tube_ratio": ("experiments.tube_ratio_experiment",),
    "cli.main": ("cli.main",),
    "cli.emit": ("cli._emit", "experiments.write_json", "experiments.write_csv"),
}


GROUP_OF = {member: group for group, members in GROUPS.items() for member in members}


def _degree(args):
    """The degree k of a call: an int first argument, or the ``k`` of a basis."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, bool):
        return None
    if isinstance(first, int) or type(first).__name__.startswith("int"):
        return int(first)
    return getattr(first, "k", None)


def _info_table(args, kwargs, result):
    k = int(args[0])
    t = args[1] if len(args) > 1 else kwargs["t"]
    data = t.tobytes() if hasattr(t, "tobytes") else repr(t).encode()
    return [k, int(result.shape[0]), hash((k, data))]


def _info_grid(args, kwargs, result):
    k = int(args[0])
    key = hash((k, result.oversample, args[2] if len(args) > 2 else kwargs.get("max_points")))
    return [k, int(result.n_points), key]


def _info_synth(args, kwargs, result):
    return [int(args[0]), int(result.grid.n_points), None]


def _info_basis(args, kwargs, result):
    return [int(args[1]), None, None]


INFO = {
    "legendre.normalized_legendre_table": _info_table,
    "quadrature.build_grid": _info_grid,
    "harmonics.coefficient_field": _info_synth,
    "random_bases.CoefficientBasis.__init__": _info_basis,
}


class SpanRecorder:
    """In-memory spans for one process; a no-op pass-through while ``on`` is False."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = ""
        self.on = False

    def _wrap(self, fn, name):
        rec = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            spans = rec.spans
            sid = len(spans)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.run_id, None]
            spans.append(span)
            rec.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            span[5] = info(args, kwargs, result) if info else [_degree(args), None, None]
            return result

        return traced

    def install(self):
        """Wrap every public spherelab function in every namespace that binds it."""
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "spherelab" or key.startswith("spherelab.")]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"spherelab.{short}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None) == module.__name__):
                    wrappers[id(value)] = self._wrap(value, f"{short}.{value.__qualname__}")
        for short, owner, attr in EXTRA_TARGETS:
            module = sys.modules[f"spherelab.{short}"]
            target = getattr(module, owner) if owner else module
            fn = vars(target)[attr]
            wrapped = self._wrap(fn, f"{short}.{fn.__qualname__}")
            setattr(target, attr, wrapped)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id", "info"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def _k_slope(durations_by_k):
    """log2(per-call time at 2k / per-call time at k) at the top doubling pair, else 0."""
    ks = sorted(durations_by_k)
    for k in reversed(ks):
        if k % 2 == 0 and k // 2 in durations_by_k:
            hi = statistics.median(durations_by_k[k])
            lo = statistics.median(durations_by_k[k // 2])
            if hi > 0.0 and lo > 0.0:
                return math.log2(hi / lo)
    return 0.0


def layer_metrics(spans, names):
    """Evaluate the per-layer metric ``names`` (``<layer>.<stat>``) from spans.

    ``<layer>`` is a key of GROUPS or a module name (then every span of that
    module); ``<stat>`` is calls, self_s, k_slope, distinct_ratio, entries or
    points.  Other names are left for the caller.
    """
    selfs = self_times(spans)
    by_group = defaultdict(list)
    for idx, span in enumerate(spans):
        by_group[span[0].split(".", 1)[0]].append(idx)
        if span[0] in GROUP_OF:
            by_group[GROUP_OF[span[0]]].append(idx)
    out = {}
    for metric in names:
        layer, _, stat = metric.rpartition(".")
        if layer not in GROUPS and layer not in MODULES:
            continue
        idxs = by_group.get(layer, [])
        infos = [spans[i][5] or [None, None, None] for i in idxs]
        if stat == "calls":
            value = len(idxs)
        elif stat == "self_s":
            value = sum(selfs[i] for i in idxs)
        elif stat == "entries":
            value = sum(n * (k + 1) for k, n, _ in infos)
        elif stat == "points":
            value = sum(n for _, n, _ in infos)
        elif stat == "distinct_ratio":
            value = len({key for _, _, key in infos}) / len(idxs) if idxs else 0.0
        elif stat == "k_slope":
            # Compare like with like: at each degree keep only the calls with the most points.
            by_k = defaultdict(list)
            for i, (k, n, _) in zip(idxs, infos):
                if k is not None:
                    by_k[k].append((n or 0, spans[i][2] - spans[i][1]))
            value = _k_slope({k: [d for n, d in calls if n == max(calls)[0]]
                              for k, calls in by_k.items()})
        else:
            continue
        out[metric] = value
    out["trace.self_sum_s"] = sum(selfs)
    return out
