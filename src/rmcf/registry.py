"""Declarative builders: chart, region, and field objects from config dictionaries."""

import numpy as np

from . import charts, regions, translators
from .errors import InvalidInputError
from .maxprinciple import GFunction


# the default of a key a config object cannot do without
NEEDED = object()


def _spec_keys(spec, entry, kind, *, kinded=True, **defaults):
    """The values of the keys a config object reads, by key, in the order of ``defaults``.

    The one rule for the keys of every config object; the schema types their
    values. ``defaults`` names each key the object reads beside the ``kind``
    it dispatches on (if ``kinded``), with its default or NEEDED. A missing
    needed key, then any other key, is an InvalidInputError naming it as
    ``'entry.key'`` (``'key'`` when ``entry`` is "", the top level).
    """
    missing = [key for key, default in defaults.items() if default is NEEDED and key not in spec]
    unread = sorted(set(spec) - set(defaults) - ({"kind"} if kinded else set()))
    for keys, verb in ((missing, "needs"), (unread, "does not read")):
        if keys:
            raise InvalidInputError(f"a {kind} {entry or 'config'} {verb} " + ", ".join(
                repr(f"{entry}.{key}" if entry else key) for key in keys))
    return {key: spec.get(key, default) for key, default in defaults.items()}


def build_chart(spec):
    """Chart from a declarative surface description (kind + parameters)."""
    kind = spec.get("kind")

    def keys(**defaults):
        return _spec_keys(spec, "surface", kind, **defaults).values()

    if kind == "grim_reaper":
        n, eta, t_halfwidth = keys(n=2, eta=1e-3, t_halfwidth=50.0)
        return translators.grim_reaper_chart(int(n), eta=float(eta),
                                             t_halfwidth=float(t_halfwidth))
    if kind == "bowl":
        n, r, R_max, tol = keys(n=2, r=1, R_max=100.0, tol=1e-10)
        profile = translators.solve_rotational_translator(int(n), int(r), R_max=float(R_max),
                                                          tol=float(tol))
        return translators.rot_chart(profile)
    if kind == "sphere":
        n, radius, center, cap = keys(n=2, radius=1.0, center=None, cap="upper")
        return charts.sphere_chart(
            int(n), radius=float(radius),
            center=None if center is None else np.asarray(center, dtype=float), cap=cap,
        )
    if kind == "paraboloid":
        n, curvature, halfwidth = keys(n=2, curvature=1.0, halfwidth=1.0)
        return charts.paraboloid_chart(int(n), curvature=float(curvature),
                                       halfwidth=float(halfwidth))
    if kind == "flat":
        n, halfwidth = keys(n=2, halfwidth=1.0)
        return charts.flat_chart(int(n), halfwidth=float(halfwidth))
    if kind == "oscillating":
        n, x_lo, x_hi, halfwidth = keys(n=2, x_lo=2.0, x_hi=12.0, halfwidth=1.0)
        return charts.oscillating_graph_chart(int(n), x_lo=float(x_lo), x_hi=float(x_hi),
                                              halfwidth=float(halfwidth))
    raise InvalidInputError(f"unknown surface kind {kind!r}")


# the keys each region kind reads; a bi-half-space's entries read a half-space's
_REGION_KEYS = {"cone": dict(V=NEEDED, a=NEEDED), "halfspace": dict(W=NEEDED, B=None),
                "bihalfspace": dict(halfspaces=NEEDED, vertical_to=None)}


def region_keys(spec):
    """The region's keys with their defaults (``_REGION_KEYS``), its half-space entries' too."""
    kind = spec.get("kind")
    if kind not in _REGION_KEYS:
        raise InvalidInputError(f"unknown region kind {kind!r}")
    keys = dict(_spec_keys(spec, "region", kind, **_REGION_KEYS[kind]), kind=kind)
    if kind == "bihalfspace":
        keys["halfspaces"] = [
            _spec_keys(half, f"region.halfspaces[{i}]", "halfspace", kinded=False,
                       **_REGION_KEYS["halfspace"])
            for i, half in enumerate(keys["halfspaces"])
        ]
    return keys


def _halfspace(spec):
    """Half-space from ``{B, W}``; a B of None is the origin."""
    W = np.asarray(spec["W"], dtype=float)
    return regions.Halfspace(B=np.zeros(len(W)) if spec["B"] is None
                             else np.asarray(spec["B"], dtype=float), W=W)


def build_region(spec):
    """Region from its JSON form, mirroring the region type fields, read by ``region_keys``."""
    spec = region_keys(spec)
    if spec["kind"] == "cone":
        return regions.Cone(V=np.asarray(spec["V"], dtype=float), a=float(spec["a"]))
    if spec["kind"] == "halfspace":
        return _halfspace(spec)
    vert = spec["vertical_to"]
    return regions.BiHalfspace(*map(_halfspace, spec["halfspaces"]),
                               vertical_to=None if vert is None else np.asarray(vert, dtype=float))


# the keys each field kind reads
_FIELD_KEYS = {"height": dict(W=NEEDED), "cone_excess": dict(V=NEEDED, a=NEEDED, origin=None),
               "dist_sq": dict(origin=None)}


def build_scalar_field(spec, ambient_dim, name):
    """Field for maximizer runs: height, cone excess, or squared distance.

    Its keys are those of ``_FIELD_KEYS``, and a vector (W, V, origin)
    without ambient_dim coordinates is an InvalidInputError that names the
    key in the config entry ``name``. origin defaults to 0.
    """
    kind = spec.get("kind")
    if kind not in _FIELD_KEYS:
        raise InvalidInputError(f"unknown field kind {kind!r}")
    keys = _spec_keys(spec, name, kind, **_FIELD_KEYS[kind])

    def vector(key):
        vec = np.zeros(ambient_dim) if keys[key] is None else np.asarray(keys[key], dtype=float)
        if vec.shape != (ambient_dim,):
            raise InvalidInputError(f"'{name}.{key}' needs n + 1 = {ambient_dim} coordinates "
                                    f"for this surface (got {vec.size})")
        return vec

    if kind == "height":
        return charts.linear_height(vector("W"))
    if kind == "cone_excess":
        return charts.cone_excess(vector("V"), float(keys["a"]), origin=vector("origin"))
    return charts.distance_sq_to(vector("origin"))


def build_G(spec):
    """Growth control from ``{kind?, levels?}`` (iterated_log) or ``{kind, value?}`` (constant)."""
    kind = spec.get("kind", "iterated_log")
    if kind == "iterated_log":
        (levels,) = _spec_keys(spec, "G", kind, levels=1).values()
        return GFunction.iterated_log(int(levels))
    if kind == "constant":
        (value,) = _spec_keys(spec, "G", kind, value=1.0).values()
        return GFunction.constant_fn(float(value))
    raise InvalidInputError(f"unknown G kind {kind!r}")
