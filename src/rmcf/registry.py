"""Declarative builders: chart, region, and field objects from config dictionaries."""

import numpy as np

from . import charts, regions, translators
from .errors import InvalidInputError
from .maxprinciple import GFunction


def build_chart(spec):
    """Chart from a declarative surface description (kind + parameters)."""
    kind = spec.get("kind")
    if kind == "grim_reaper":
        return translators.grim_reaper_chart(
            int(spec.get("n", 2)),
            eta=float(spec.get("eta", 1e-3)),
            t_halfwidth=float(spec.get("t_halfwidth", 50.0)),
        )
    if kind == "bowl":
        profile = translators.solve_rotational_translator(
            int(spec.get("n", 2)),
            int(spec.get("r", 1)),
            R_max=float(spec.get("R_max", 100.0)),
            tol=float(spec.get("tol", 1e-10)),
        )
        return translators.rot_chart(profile)
    if kind == "sphere":
        return charts.sphere_chart(
            int(spec.get("n", 2)),
            radius=float(spec.get("radius", 1.0)),
            center=np.asarray(spec["center"], dtype=float) if "center" in spec else None,
            cap=spec.get("cap", "upper"),
        )
    if kind == "paraboloid":
        return charts.paraboloid_chart(
            int(spec.get("n", 2)),
            curvature=float(spec.get("curvature", 1.0)),
            halfwidth=float(spec.get("halfwidth", 1.0)),
            derivative_bias=float(spec.get("derivative_bias", 0.0)),
        )
    if kind == "flat":
        return charts.flat_chart(
            int(spec.get("n", 2)), halfwidth=float(spec.get("halfwidth", 1.0))
        )
    if kind == "oscillating":
        return charts.oscillating_graph_chart(
            int(spec.get("n", 2)),
            x_lo=float(spec.get("x_lo", 2.0)),
            x_hi=float(spec.get("x_hi", 12.0)),
        )
    raise InvalidInputError(f"unknown surface kind {kind!r}")


def _halfspace(spec):
    """Half-space from ``{B?, W}``; B defaults to the origin."""
    return regions.Halfspace(
        B=np.asarray(spec.get("B", np.zeros(len(spec["W"]))), dtype=float),
        W=np.asarray(spec["W"], dtype=float),
    )


def build_region(spec):
    """Region from its JSON form, mirroring the region type fields."""
    kind = spec.get("kind")
    if kind == "cone":
        return regions.Cone(V=np.asarray(spec["V"], dtype=float), a=float(spec["a"]))
    if kind == "halfspace":
        return _halfspace(spec)
    if kind == "bihalfspace":
        h1, h2 = spec["halfspaces"]
        vert = spec.get("vertical_to")
        return regions.BiHalfspace(
            _halfspace(h1),
            _halfspace(h2),
            vertical_to=None if vert is None else np.asarray(vert, dtype=float),
        )
    raise InvalidInputError(f"unknown region kind {kind!r}")


def build_scalar_field(spec, ambient_dim):
    """Field for maximizer runs: height, cone excess, or squared distance."""
    kind = spec.get("kind")
    if kind == "height":
        return charts.linear_height(np.asarray(spec["W"], dtype=float))
    if kind == "cone_excess":
        return charts.cone_excess(
            np.asarray(spec["V"], dtype=float),
            float(spec["a"]),
            origin=np.asarray(spec.get("origin", np.zeros(ambient_dim)), dtype=float),
        )
    if kind == "dist_sq":
        return charts.distance_sq_to(
            np.asarray(spec.get("origin", np.zeros(ambient_dim)), dtype=float)
        )
    raise InvalidInputError(f"unknown field kind {kind!r}")


def build_G(spec):
    kind = spec.get("kind", "iterated_log")
    if kind == "iterated_log":
        return GFunction.iterated_log(int(spec.get("levels", 1)))
    if kind == "constant":
        return GFunction.constant_fn(float(spec.get("value", 1.0)))
    raise InvalidInputError(f"unknown G kind {kind!r}")

