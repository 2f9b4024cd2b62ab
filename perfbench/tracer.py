"""Span and counter tracer wrapped around rmcf's public functions.

The benchmark never edits ``src/``: ``Tracer.install`` replaces each traced
function in every ``rmcf`` module namespace that holds it (``from .x import f``
makes a second reference that patching ``rmcf.x.f`` alone would miss), and
``uninstall`` puts the originals back. Spans (id, parent, op, name, start,
end) and counters live in memory until ``write``.

``install`` raises ``LookupError`` naming every traced function that rmcf no
longer has, before it patches anything: a renamed function would otherwise
read as a layer that costs nothing.
"""

import collections
import dataclasses
import functools
import json
import os
import sys
import time
import weakref

import numpy as np


def _madds_sigma_table(m, n):
    # the row recurrence adds column i into i + 1 columns
    return m * n * (n + 1) // 2


def _madds_complement_sigma(m, n, r):
    # one (n - 1)-column sigma table per removed entry; r = 0 and r > n - 1 are constants
    if r == 0 or r > n - 1:
        return 0
    return n * _madds_sigma_table(m, n - 1)


class Tracer:
    """Records spans and counts of the wrapped calls; ``op`` tags each span with its op."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self._stack = []
        self._undo = []
        self._surface_charts = weakref.WeakValueDictionary()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), self._stack[-1] if self._stack else None,
                   self.op, name, time.perf_counter(), None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if after is not None:
                replaced = after(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def _counted(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-call bookkeeping -------------------------------------------------

    def _after_solve(self, args, kwargs, profile):
        meta = profile.meta
        for key in ("nfev", "njev", "steps"):
            self.counts["translators." + key] += int(meta.get(key, 0))
        probe = float(meta.get("fd_residual_probe", 0.0))
        self.counts["translators.fd_residual_probe_max"] = max(
            self.counts["translators.fd_residual_probe_max"], abs(probe))

    def _after_export(self, args, kwargs, result):
        paths = list(args[1:3]) + [kwargs[k] for k in ("csv_path", "json_path") if k in kwargs]
        self.counts["translators.export_bytes"] += sum(os.path.getsize(p) for p in paths)

    def _after_build_chart(self, args, kwargs, chart):
        jet = self._counted("charts.jet", chart.jet)
        counted = dataclasses.replace(chart, jet=jet)
        self._surface_charts[id(counted)] = counted
        return counted

    def _after_mesh_grid(self, args, kwargs, mesh):
        if self._surface_charts.get(id(mesh.chart)) is mesh.chart:
            self.counts["charts.surface_mesh_points"] += len(mesh)

    def _after_kernel(self, args, kwargs, result):
        m, n = np.shape(args[0])
        self.counts["kernels.rows"] += m
        r = args[1] if len(args) > 1 else kwargs.get("r")
        if r is not None:
            self.counts["kernels.madds_computed"] += _madds_complement_sigma(m, n, int(r))
        else:
            self.counts["kernels.madds_computed"] += _madds_sigma_table(m, n)

    def _after_in_pocket(self, args, kwargs, inside):
        self.counts["regions.pocket_hits"] += int(bool(inside))

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every traced rmcf function; call ``uninstall`` to undo.

        Raises ``LookupError`` when a traced function or method is missing.
        """
        import rmcf.charts as charts
        import rmcf.cli as cli
        import rmcf.identities as identities
        import rmcf.kernels as kernels
        import rmcf.maxprinciple as maxprinciple
        import rmcf.registry as registry
        import rmcf.regions as regions
        import rmcf.symfun as symfun
        import rmcf.translators as translators

        functions = [
            (cli, "main", "cli.main", None, True),
            (registry, "build_chart", "registry.build_chart", self._after_build_chart, True),
            (translators, "solve_rotational_translator", "translators.solve",
             self._after_solve, True),
            (translators, "export_profile", "translators.export", self._after_export, True),
            (translators, "load_profile", "translators.load", None, True),
            (charts, "point_geometry", "charts.geometry", None, True),
            (charts, "L_operator", "charts.L_operator", None, True),
            (symfun, "newton_transform", "symfun.newton_transform", None, False),
            (kernels, "sigma_table", "kernels", self._after_kernel, True),
            (kernels, "complement_sigma", "kernels", self._after_kernel, True),
            (regions, "first_exit", "regions.first_exit", None, True),
            (regions, "growth_report", "regions.growth_report", None, True),
            (regions, "min_eigen_over_mesh", "regions.min_eigen_over_mesh", None, True),
            (regions, "bihalfspace_drive", "regions.bihalfspace_drive", None, True),
            (regions, "in_pocket", "regions.in_pocket", self._after_in_pocket, False),
            (maxprinciple, "hypothesis_gate", "maxprinciple.hypothesis_gate", None, True),
            (maxprinciple, "cone_drive", "maxprinciple.drive", None, True),
            (maxprinciple, "halfspace_drive", "maxprinciple.drive", None, True),
            (maxprinciple, "oy_sequence", "maxprinciple.oy_sequence", None, True),
            (identities, "run_identity_suite", "identities.suite", None, True),
        ]
        methods = [
            (charts, "Mesh", "positions", "charts.positions", True),
            (symfun, "SymMatrix", "__init__", "symfun.symmatrix", False),
            (maxprinciple, "GFunction", "p_bound", "maxprinciple.p_bound", False),
        ]
        missing = [f"{m.__name__}.{attr}" for m, attr, *_ in functions if not hasattr(m, attr)]
        missing += [f"{m.__name__}.{cls}.{attr}" for m, cls, attr, *_ in methods + [
            (charts, "Mesh", "grid")] if attr not in vars(getattr(m, cls, object))]
        if missing:
            raise LookupError("traced rmcf functions not found: " + ", ".join(missing))

        replacements = {}
        for module, attr, name, after, timed in functions:
            fn = getattr(module, attr)
            wrap = self._timed if timed else self._counted
            replacements[id(fn)] = (fn, wrap(name, fn, after))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rmcf" and not mod_name.startswith("rmcf."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._patch(module, attr, replacements[id(value)][1])

        for module, cls_name, attr, name, timed in methods:
            cls = getattr(module, cls_name)
            wrap = self._timed if timed else self._counted
            self._patch(cls, attr, wrap(name, vars(cls)[attr]))
        grid = vars(charts.Mesh)["grid"].__func__
        self._patch(charts.Mesh, "grid",
                    classmethod(self._counted("charts.mesh_grid", grid, self._after_mesh_grid)))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def span_totals(self):
        """{name: [calls, inclusive seconds, self seconds]} over all finished spans."""
        child = collections.defaultdict(float)
        for sid, parent, _op, _name, start, end in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, _op, name, start, end in self.spans:
            if end is None:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[sid]
        return dict(totals)

    def write(self, directory):
        """Spans as JSON lines plus a counter and self-time summary."""
        with open(os.path.join(directory, "trace_spans.jsonl"), "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        summary = {
            "counts": dict(self.counts),
            "spans": {name: {"calls": c, "inclusive_s": inc, "self_s": own}
                      for name, (c, inc, own) in sorted(self.span_totals().items())},
        }
        with open(os.path.join(directory, "trace_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
