"""Where the traced run records spans, and the per-layer metrics taken from them.

Each probe wraps a public function at the module attribute through which
the layer above calls it, so the span measures the call across that layer
boundary.  Spans are named ``<layer>.<function>`` after the callee.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

import numpy as np

from tracing import Span, Tracer


def _matrix(a, *_args, **_kwargs) -> dict:
    rows, cols = np.shape(a)
    return {"entries": int(rows) * int(cols), "dim": int(cols)}


def _dp_cells(group, points, t) -> dict:
    return {"cells": len(points) * t * group.order}


def _mc_decisions(scheme, t, samples, *_args, **_kwargs) -> dict:
    return {"decisions": samples}


def install(tracer: Tracer) -> None:
    """Wrap every probed function; ``tracer.restore()`` undoes it."""

    def curve_q(q, genus=1):
        tracer.context["q"] = q
        return {"genus": genus}

    def scheme_q(curve, delta):
        tracer.context["q"] = curve.field.p
        return {}

    probes = [
        ("agss.cli", "main", "cli.main", None),
        ("agss.cli", "sweep_csv", "experiments.sweep_csv", None),
        ("agss.experiments", "sweep_rows", "experiments.sweep_rows", None),
        ("agss.experiments", "find_elliptic_curve", "experiments.find_curve", curve_q),
        ("agss.experiments", "find_hyperelliptic_curve", "experiments.find_curve", curve_q),
        ("agss.experiments", "hyperelliptic_curve", "curves.hyperelliptic_curve", None),
        ("agss.experiments", "standard_scheme", "experiments.standard_scheme", scheme_q),
        ("agss.experiments", "enumerate_points", "curves.enumerate_points", None),
        ("agss.curves", "enumerate_points", "curves.enumerate_points", None),
        ("agss.experiments", "group_structure", "curves.group_structure", None),
        ("agss.experiments", "scheme_build", "scheme.scheme_build", None),
        ("agss.experiments", "amplitude", "groups.amplitude", None),
        ("agss.experiments", "subset_sum_table", "groups.subset_sum_table", _dp_cells),
        ("agss.experiments", "mc_proportion", "experiments.mc_proportion", _mc_decisions),
        ("agss.scheme", "eval_basis", "curves.eval_basis", None),
        ("agss.scheme", "in_row_space", "field.in_row_space", _matrix),
        ("agss.scheme", "rank_array", "field.rank_array", _matrix),
        ("agss.scheme", "kernel_array", "field.kernel_array", _matrix),
        ("agss.scheme", "solve_array", "field.solve_array", _matrix),
        ("agss.scheme", "solvable_array", "field.solvable_array", _matrix),
        ("agss.scheme", "matvec_array", "field.matvec_array", _matrix),
        ("agss.field", "rref_array", "field.rref_array", _matrix),
        ("agss.scheme", "share", "scheme.share", None),
        ("agss.scheme", "is_qualified_dual", "scheme.is_qualified_dual", None),
        ("agss.scheme", "reconstruct", "scheme.reconstruct", None),
        ("agss.scheme", "privacy_check", "scheme.privacy_check", None),
    ]
    for module_name, attr, name, attrs_of in probes:
        tracer.wrap(importlib.import_module(module_name), attr, name, attrs_of)


def layer_metrics(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    A metric of a function the workload never calls reads 0.
    """
    import agss.curves

    by_name: dict[str, list[tuple[Span, float]]] = defaultdict(list)
    for s, st in zip(spans, selfs):
        by_name[s.name].append((s, st))

    def calls(name):
        return len(by_name[name])

    def self_s(name, **where):
        return sum(st for s, st in by_name[name] if all(s.attrs.get(k) == v for k, v in where.items()))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s, _ in by_name[name])

    def ms_p50(name, **where):
        ds = [s.duration for s, _ in by_name[name] if all(s.attrs.get(k) == v for k, v in where.items())]
        return 1000 * statistics.median(ds) if ds else 0.0

    cells = total("groups.subset_sum_table", "cells")
    dp_s = self_s("groups.subset_sum_table")
    finds = by_name["experiments.find_curve"]
    # find_elliptic_curve builds exactly one curve; find_hyperelliptic_curve
    # calls hyperelliptic_curve once per candidate, failures included
    attempts = calls("curves.hyperelliptic_curve") + sum(1 for s, _ in finds if s.attrs["genus"] == 1)
    m = {
        "field.in_row_space.calls": calls("field.in_row_space"),
        "field.in_row_space.self_s": self_s("field.in_row_space"),
        "field.in_row_space.d50.ms_p50": ms_p50("field.in_row_space", dim=50),
        "field.in_row_space.d96.ms_p50": ms_p50("field.in_row_space", dim=96),
        "field.in_row_space.entries": total("field.in_row_space", "entries"),
        "field.rref_array.self_s": self_s("field.rref_array"),
        "field.rref_array.entries": total("field.rref_array", "entries"),
        "field.rank_array.self_s": self_s("field.rank_array"),
        "field.rank_array.entries": total("field.rank_array", "entries"),
        "field.kernel_array.self_s": self_s("field.kernel_array"),
        "curves.enumerate_points.self_s": self_s("curves.enumerate_points"),
        "curves.enumerate_points.cache_hits": agss.curves.enumerate_points.cache_info().hits,
        "curves.group_structure.self_s": self_s("curves.group_structure"),
        "curves.group_structure.cache_hits": agss.curves.group_structure.cache_info().hits,
        "curves.eval_basis.calls": calls("curves.eval_basis"),
        "curves.eval_basis.self_s": self_s("curves.eval_basis"),
        "groups.subset_sum_table.q101.self_s": self_s("groups.subset_sum_table", q=101),
        "groups.subset_sum_table.q211.self_s": self_s("groups.subset_sum_table", q=211),
        "groups.subset_sum_table.q401.self_s": self_s("groups.subset_sum_table", q=401),
        "groups.subset_sum_table.cells": cells,
        "groups.dp_cells_per_s": cells / dp_s if dp_s else 0.0,
        "groups.amplitude.self_s": self_s("groups.amplitude"),
        "scheme.scheme_build.self_s": self_s("scheme.scheme_build"),
        "scheme.share.ms_p50": ms_p50("scheme.share"),
        "scheme.is_qualified_dual.ms_p50": ms_p50("scheme.is_qualified_dual"),
        "scheme.reconstruct.ms_p50": ms_p50("scheme.reconstruct"),
        "scheme.privacy_check.ms_p50": ms_p50("scheme.privacy_check"),
        "experiments.mc_proportion.self_s": self_s("experiments.mc_proportion"),
        "experiments.mc.decisions": total("experiments.mc_proportion", "decisions"),
        "experiments.standard_scheme.self_s": self_s("experiments.standard_scheme"),
        "experiments.find_curve.attempts_per_success": attempts / len(finds) if finds else 0.0,
        "experiments.sweep_rows.self_s": self_s("experiments.sweep_rows"),
        "experiments.sweep_csv.self_s": self_s("experiments.sweep_csv"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.spans": len(spans),
    }
    return {k: float(v) for k, v in m.items()}
