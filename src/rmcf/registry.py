"""Declarative builders: chart, region, and field objects from config dictionaries."""

import numpy as np

from . import charts, regions, translators
from .errors import InvalidInputError
from .maxprinciple import GFunction


def _spec_keys(spec, entry, kind, **defaults):
    """The values of the keys a config entry's kind reads, in the order of ``defaults``.

    ``defaults`` names every key the kind reads, with the value a spec
    without it gets. Any other key of the spec is an InvalidInputError
    that names it as ``entry.key``, raised before anything is built.
    """
    unread = sorted(set(spec) - {"kind"} - set(defaults))
    if unread:
        raise InvalidInputError(f"a {kind} {entry} does not read "
                                + ", ".join(f"'{entry}.{key}'" for key in unread))
    return [spec.get(key, default) for key, default in defaults.items()]


def build_chart(spec):
    """Chart from a declarative surface description (kind + parameters)."""
    kind = spec.get("kind")
    if kind == "grim_reaper":
        n, eta, t_halfwidth = _spec_keys(spec, "surface", kind, n=2, eta=1e-3, t_halfwidth=50.0)
        return translators.grim_reaper_chart(int(n), eta=float(eta),
                                             t_halfwidth=float(t_halfwidth))
    if kind == "bowl":
        n, r, R_max, tol = _spec_keys(spec, "surface", kind, n=2, r=1, R_max=100.0, tol=1e-10)
        profile = translators.solve_rotational_translator(int(n), int(r), R_max=float(R_max),
                                                          tol=float(tol))
        return translators.rot_chart(profile)
    if kind == "sphere":
        n, radius, center, cap = _spec_keys(spec, "surface", kind, n=2, radius=1.0, center=None,
                                            cap="upper")
        return charts.sphere_chart(
            int(n), radius=float(radius),
            center=None if center is None else np.asarray(center, dtype=float), cap=cap,
        )
    if kind == "paraboloid":
        n, curvature, halfwidth = _spec_keys(spec, "surface", kind, n=2, curvature=1.0,
                                             halfwidth=1.0)
        return charts.paraboloid_chart(int(n), curvature=float(curvature),
                                       halfwidth=float(halfwidth))
    if kind == "flat":
        n, halfwidth = _spec_keys(spec, "surface", kind, n=2, halfwidth=1.0)
        return charts.flat_chart(int(n), halfwidth=float(halfwidth))
    if kind == "oscillating":
        n, x_lo, x_hi, halfwidth = _spec_keys(spec, "surface", kind, n=2, x_lo=2.0, x_hi=12.0,
                                              halfwidth=1.0)
        return charts.oscillating_graph_chart(int(n), x_lo=float(x_lo), x_hi=float(x_hi),
                                              halfwidth=float(halfwidth))
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


# the keys each field kind reads; every one but origin (default 0) is required
_FIELD_KEYS = {"height": ("W",), "cone_excess": ("V", "a", "origin"), "dist_sq": ("origin",)}


def build_scalar_field(spec, ambient_dim, name):
    """Field for maximizer runs: height, cone excess, or squared distance.

    A key the kind does not read (see ``_FIELD_KEYS``), a key it needs
    that is missing, or a vector (W, V, origin) without ambient_dim
    coordinates, is an InvalidInputError that names the key in the config
    entry ``name``. origin defaults to 0.
    """
    kind = spec.get("kind")
    if kind not in _FIELD_KEYS:
        raise InvalidInputError(f"unknown field kind {kind!r}")
    _spec_keys(spec, name, kind, **dict.fromkeys(_FIELD_KEYS[kind]))
    for key in _FIELD_KEYS[kind]:
        if key != "origin" and key not in spec:
            raise InvalidInputError(f"a {kind} field needs '{name}.{key}'")

    def vector(key):
        vec = np.asarray(spec.get(key, np.zeros(ambient_dim)), dtype=float)
        if vec.shape != (ambient_dim,):
            raise InvalidInputError(f"'{name}.{key}' needs n + 1 = {ambient_dim} coordinates "
                                    f"for this surface (got {vec.size})")
        return vec

    if kind == "height":
        return charts.linear_height(vector("W"))
    if kind == "cone_excess":
        return charts.cone_excess(vector("V"), float(spec["a"]), origin=vector("origin"))
    return charts.distance_sq_to(vector("origin"))


def build_G(spec):
    """Growth control from ``{kind?, levels?}`` (iterated_log) or ``{kind, value?}`` (constant)."""
    kind = spec.get("kind", "iterated_log")
    if kind == "iterated_log":
        (levels,) = _spec_keys(spec, "G", kind, levels=1)
        return GFunction.iterated_log(int(levels))
    if kind == "constant":
        (value,) = _spec_keys(spec, "G", kind, value=1.0)
        return GFunction.constant_fn(float(value))
    raise InvalidInputError(f"unknown G kind {kind!r}")

