"""Declarative builders: chart, region, and field objects from config dictionaries.

Every config object has one key table, ``key=(type, default)``; a kinded
object (surface, region, field or gamma, G) has one per ``kind``. A
``KeyType`` checks a value and its range, and an object-valued key's type
reads that object by its table, so reading a config checks all of it.
"""

import numpy as np

from . import charts, regions, translators
from .errors import InvalidInputError
from .maxprinciple import GFunction


# the default of a key a config object cannot do without
NEEDED = object()


class Keys(dict):
    """A config object's values by key, as its table read them; its type returns it as is."""


class KeyType:
    """A key's JSON type and range, ``what`` and ``test``; ``read`` reads a config object's keys."""

    def __init__(self, what, test, read=None):
        self.what, self.test, self.read = what, test, read

    def __call__(self, value, path):
        """``value`` as read, or an InvalidInputError naming the key at ``path``."""
        if isinstance(value, Keys):
            return value
        if not self.test(value):
            raise InvalidInputError(f"{path!r} must be {self.what} (got {value!r})")
        return value if self.read is None else self.read(value, path)


def _number(value):
    # a bool is not a JSON number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value):
    # an integral float such as 3.0 is an integer, and gives its integer's report
    return _number(value) and (isinstance(value, int) or value.is_integer())


def integers(lo, hi=None):
    """The integers from lo, up to hi when given."""
    return KeyType(f"an integer in {lo}..{hi}" if hi is not None else f"an integer >= {lo}",
                   lambda v: _integer(v) and lo <= v and (hi is None or v <= hi))


def one_of(*names):
    return KeyType("one of " + ", ".join(map(repr, names)), lambda v: v in names)


NUMBER = KeyType("a number", _number)
INTEGER = KeyType("an integer", _integer)
ORDER = integers(1, 16)  # a dimension n or an order r
VECTOR = KeyType("an array of at least 2 numbers",
                 lambda v: isinstance(v, list) and len(v) >= 2 and all(map(_number, v)))
UNIT = KeyType("a unit vector",
               lambda v: VECTOR.test(v) and abs(np.linalg.norm(v) - 1.0) <= 1e-10)


def _spec_keys(spec, entry, kind, table):
    """The values of the keys the config object ``spec`` reads, by key, in the order of ``table``.

    The one rule for the keys of every config object: a missing needed key,
    then a key ``table`` does not hold, then a value its type does not take,
    is an InvalidInputError naming it as ``'entry.key'`` (``'key'`` at the
    top level, where ``entry`` is ""); ``kind`` names the object.
    """
    prefix = f"{entry}." if entry else ""
    missing = [key for key, (_, default) in table.items() if default is NEEDED and key not in spec]
    unread = sorted(set(spec) - set(table))
    for keys, verb in ((missing, "needs"), (unread, "does not read")):
        if keys:
            raise InvalidInputError(f"a {kind} {entry or 'config'} {verb} " + ", ".join(
                repr(prefix + key) for key in keys))
    return Keys((key, type_(spec[key], prefix + key) if key in spec else default)
                for key, (type_, default) in table.items())


def _kinded(tables, default=None):
    """The type of a config object whose ``kind`` (``default`` if left out) picks its table."""
    kinds = one_of(*tables)

    def read(spec, entry):
        kind = kinds(spec.get("kind", default), f"{entry}.kind")
        return _spec_keys(spec, entry, kind, dict(tables[kind], kind=(kinds, default)))

    return KeyType("an object", lambda v: isinstance(v, dict), read)


_SURFACE_KEYS = {
    "grim_reaper": dict(n=(ORDER, 2), eta=(NUMBER, 1e-3), t_halfwidth=(NUMBER, 50.0)),
    "bowl": dict(n=(ORDER, 2), r=(ORDER, 1), R_max=(NUMBER, 100.0), tol=(NUMBER, 1e-10)),
    "sphere": dict(n=(ORDER, 2), radius=(NUMBER, 1.0), center=(VECTOR, None),
                   cap=(one_of("upper", "lower"), "upper")),
    "paraboloid": dict(n=(ORDER, 2), curvature=(NUMBER, 1.0), halfwidth=(NUMBER, 1.0)),
    "flat": dict(n=(ORDER, 2), halfwidth=(NUMBER, 1.0)),
    "oscillating": dict(n=(ORDER, 2), x_lo=(NUMBER, 2.0), x_hi=(NUMBER, 12.0),
                        halfwidth=(NUMBER, 1.0)),
}
SURFACE = _kinded(_SURFACE_KEYS)


# the chart of each surface kind whose keys beside n are numbers, which it takes by name
_NUMBER_CHARTS = dict(grim_reaper=translators.grim_reaper_chart, paraboloid=charts.paraboloid_chart,
                      flat=charts.flat_chart, oscillating=charts.oscillating_graph_chart)


def build_chart(spec):
    """Chart from a declarative surface description (a kind and its keys, ``_SURFACE_KEYS``)."""
    s = SURFACE(spec, "surface")
    kind, n = s["kind"], int(s["n"])
    if kind == "bowl":
        profile = translators.solve_rotational_translator(n, int(s["r"]), R_max=float(s["R_max"]),
                                                          tol=float(s["tol"]))
        return translators.rot_chart(profile)
    if kind == "sphere":
        center = None if s["center"] is None else np.asarray(s["center"], dtype=float)
        return charts.sphere_chart(n, radius=float(s["radius"]), center=center, cap=s["cap"])
    return _NUMBER_CHARTS[kind](n, **{k: float(v) for k, v in s.items() if k not in ("kind", "n")})


# a half-space region's keys, which each entry of a bi-half-space's pair reads too
_HALFSPACE_KEYS = dict(W=(UNIT, NEEDED), B=(VECTOR, None))
_PAIR = KeyType("an array of 2 objects",
                lambda v: isinstance(v, list) and len(v) == 2 and all(isinstance(h, dict) for h in v),
                lambda v, path: [_spec_keys(half, f"{path}[{i}]", "halfspace", _HALFSPACE_KEYS)
                                 for i, half in enumerate(v)])
_REGION_KEYS = {"cone": dict(V=(VECTOR, NEEDED), a=(NUMBER, NEEDED)), "halfspace": _HALFSPACE_KEYS,
                "bihalfspace": dict(halfspaces=(_PAIR, NEEDED), vertical_to=(VECTOR, None))}
REGION = _kinded(_REGION_KEYS)


def build_region(spec, ambient_dim):
    """Region from its JSON form, read by ``REGION``; a B of None is the origin.

    First every vector, ``vertical_to`` too, in the order of its keys: one without
    ambient_dim coordinates is an InvalidInputError naming it (``'region.halfspaces[1].W'``).
    """
    spec = REGION(spec, "region")
    entries = {"region": spec, **{f"region.halfspaces[{i}]": half
                                  for i, half in enumerate(spec.get("halfspaces", ()))}}
    vec = {f"{entry}.{key}": regions.coordinates(v, ambient_dim, f"{entry}.{key}")
           for entry, obj in entries.items()
           for key, v in obj.items() if key != "halfspaces" and isinstance(v, list)}
    # the half-space the region is, or the pair it holds
    halves = [regions.Halfspace(B=vec.get(f"{entry}.B", np.zeros(ambient_dim)),
                                W=vec[f"{entry}.W"]) for entry in entries if f"{entry}.W" in vec]
    if spec["kind"] == "cone":
        return regions.Cone(V=vec["region.V"], a=float(spec["a"]))
    return halves[0] if spec["kind"] == "halfspace" else regions.BiHalfspace(*halves)


_FIELD_KEYS = {"height": dict(W=(VECTOR, NEEDED)),
               "cone_excess": dict(V=(VECTOR, NEEDED), a=(NUMBER, NEEDED), origin=(VECTOR, None)),
               "dist_sq": dict(origin=(VECTOR, None))}
FIELD = _kinded(_FIELD_KEYS)


def build_scalar_field(spec, ambient_dim, name):
    """Field for maximizer runs: height, cone excess, or squared distance (``FIELD``'s tables).

    A vector (W, V, origin) without ambient_dim coordinates is an
    InvalidInputError naming the key in the config entry ``name``; origin defaults to 0.
    """
    keys = FIELD(spec, name)

    def vector(key):
        return regions.coordinates(np.zeros(ambient_dim) if keys[key] is None else keys[key],
                                   ambient_dim, f"{name}.{key}")

    if keys["kind"] == "height":
        return charts.linear_height(vector("W"))
    if keys["kind"] == "cone_excess":
        return charts.cone_excess(vector("V"), float(keys["a"]), origin=vector("origin"))
    return charts.distance_sq_to(vector("origin"))


# the growth control G
_G_KEYS = {"iterated_log": dict(levels=(INTEGER, 1)), "constant": dict(value=(NUMBER, 1.0))}
GROWTH = _kinded(_G_KEYS, default="iterated_log")


def build_G(spec):
    """Growth control from ``{kind?, levels?}`` (iterated_log) or ``{kind, value?}`` (constant)."""
    keys = GROWTH(spec, "G")
    if keys["kind"] == "iterated_log":
        return GFunction.iterated_log(int(keys["levels"]))
    return GFunction.constant_fn(float(keys["value"]))
