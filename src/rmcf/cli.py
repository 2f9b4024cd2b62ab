"""Command-line front end: declarative experiment configs and JSON reports.

Commands: verify-identities, theorem-check, profile, oy-run. Configs are
single JSON documents validated against a strict schema (unknown fields
rejected). ``_CONFIG_SCHEMA`` is the one statement of that schema, and a
small walker over it gives jsonschema's draft 2020-12 verdicts and its
``best_match`` messages without importing jsonschema, which only the tests
use, as the oracle. Every report embeds the config hash and the library
version, floats are formatted to 12 significant digits, and reductions are
index ordered, so a rerun of the same config produces byte-identical output.

Exit codes: 0 consistent/pass, 1 mathematical failure, 2 usage or config
error.
"""

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, identities, registry
from .charts import Mesh
from .errors import BoundaryDominatedWarning, InvalidInputError, RmcfError, StiffFailureError
from .maxprinciple import cone_drive, halfspace_drive, hypothesis_gate, oy_sequence
from .regions import bihalfspace_drive
from .translators import asymptotic_fit, bowl_drift, export_profile, solve_rotational_translator

_NUM_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 2}

_SURFACE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {
            "enum": ["grim_reaper", "bowl", "sphere", "paraboloid", "flat", "oscillating"]
        },
        "n": {"type": "integer", "minimum": 1, "maximum": 16},
        "r": {"type": "integer", "minimum": 1, "maximum": 16},
        "R_max": {"type": "number"},
        "tol": {"type": "number"},
        "eta": {"type": "number"},
        "t_halfwidth": {"type": "number"},
        "radius": {"type": "number"},
        "center": _NUM_ARRAY,
        "cap": {"enum": ["upper", "lower"]},
        "curvature": {"type": "number"},
        "halfwidth": {"type": "number"},
        "derivative_bias": {"type": "number"},
        "x_lo": {"type": "number"},
        "x_hi": {"type": "number"},
    },
}

_HALFSPACE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["W"],
    "properties": {"B": _NUM_ARRAY, "W": _NUM_ARRAY},
}

_REGION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["cone", "halfspace", "bihalfspace"]},
        "V": _NUM_ARRAY,
        "a": {"type": "number"},
        "B": _NUM_ARRAY,
        "W": _NUM_ARRAY,
        "halfspaces": {"type": "array", "items": _HALFSPACE_SCHEMA, "minItems": 2, "maxItems": 2},
        "vertical_to": _NUM_ARRAY,
    },
}

# an oy-run scalar field; registry.build_scalar_field checks the keys its kind
# needs and the vector lengths
_FIELD_SCHEMA = {
    "type": "object",
    "properties": {"W": _NUM_ARRAY, "V": _NUM_ARRAY, "a": {"type": "number"}, "origin": _NUM_ARRAY},
}

_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["surface"],
    "properties": {
        "surface": _SURFACE_SCHEMA,
        "region": _REGION_SCHEMA,
        "theorem": {"enum": ["cone", "halfspace", "bihalfspace"]},
        "r": {"type": "integer", "minimum": 1, "maximum": 16},
        "V": _NUM_ARRAY,
        "a": {"type": "number"},
        "eps": {"type": "number"},
        "R": {"type": "number"},
        "asserted": {"enum": ["proper", "bounded-sigma"]},
        "growth_bound": {"type": "number"},
        "residual_tol": {"type": "number"},
        "mesh": {
            "anyOf": [
                {"type": "integer", "minimum": 2},
                {"type": "array", "items": {"type": "integer", "minimum": 2}},
            ]
        },
        "seed": {"type": "integer", "minimum": 0},
        "field": _FIELD_SCHEMA,
        "gamma": _FIELD_SCHEMA,
        "G": {
            "type": "object",
            "properties": {"levels": {"type": "integer"}, "value": {"type": "number"}},
        },
        # oy_sequence scans the whole mesh once per index
        "k_max": {"type": "integer", "minimum": 1, "maximum": 1000},
    },
}


def _fmt(value):
    """Canonical float formatting (12 significant digits) applied recursively."""
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12e}")
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_fmt(v) for v in value.tolist()]
    return value


def _config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# the JSON types the schema names, as draft 2020-12 (jsonschema's default for
# a schema without "$schema") defines them on what json.load returns: a bool
# is neither an integer nor a number, an integral float such as 3.0 is an
# integer, and NaN and Infinity are numbers
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}


def _schema_errors(schema, value, path=()):
    """Each way ``value`` breaks ``schema``, in jsonschema's order and words.

    Knows only the keywords ``_CONFIG_SCHEMA`` uses, ``additionalProperties``
    only as ``false``, and ``minItems``/``maxItems`` only above 1 and 0
    (jsonschema words those messages differently). An error is
    ``(relevance, message, context)``, where ``context`` holds the errors of
    all branches of a failed ``anyOf``, with paths relative to its value.
    """
    # jsonschema's relevance key: minus the depth, the path, whether the keyword
    # is not anyOf, and whether the value misses the schema's type (a schema
    # without one counts as missed); its "strong keyword" slot is always empty
    mistyped = not ("type" in schema and _TYPES[schema["type"]](value))
    relevance = (-len(path), path, True, mistyped)
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _TYPES["number"](value)
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _TYPES[arg](value):
                yield relevance, f"{value!r} is not of type {arg!r}", ()
        elif keyword == "enum":
            if value not in arg:  # the schema's enums hold strings only
                yield relevance, f"{value!r} is not one of {arg!r}", ()
        elif keyword == "minimum":
            if is_number and value < arg:
                yield relevance, f"{value!r} is less than the minimum of {arg!r}", ()
        elif keyword == "maximum":
            if is_number and value > arg:
                yield relevance, f"{value!r} is greater than the maximum of {arg!r}", ()
        elif keyword == "required":
            if is_object:
                for name in arg:
                    if name not in value:
                        yield relevance, f"{name!r} is a required property", ()
        elif keyword == "additionalProperties":
            extras = sorted(set(value) - set(schema["properties"])) if is_object else ()
            if extras:
                names = ", ".join(repr(name) for name in extras)
                verb = "was" if len(extras) == 1 else "were"
                yield (relevance,
                       f"Additional properties are not allowed ({names} {verb} unexpected)", ())
        elif keyword == "properties":
            if is_object:
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(sub, value[name], path + (name,))
        elif keyword == "items":
            if is_array:
                for index, item in enumerate(value):
                    yield from _schema_errors(arg, item, path + (index,))
        elif keyword == "minItems":
            if is_array and len(value) < arg:
                yield relevance, f"{value!r} is too short", ()
        elif keyword == "maxItems":
            if is_array and len(value) > arg:
                yield relevance, f"{value!r} is too long", ()
        elif keyword == "anyOf":
            context = []
            for sub in arg:
                branch = list(_schema_errors(sub, value))
                if not branch:
                    break
                context += branch
            else:
                yield ((-len(path), path, False, mistyped),
                       f"{value!r} is not valid under any of the given schemas", context)


def _best_message(errors):
    """The message jsonschema's ``best_match`` picks from ``errors``, or None.

    The error with the largest relevance key (the first of ties); then, while
    it is an ``anyOf``, the error of its branches with the smallest key (the
    deepest), unless two share that key.
    """
    best = max(errors, key=lambda e: e[0], default=None)
    while best is not None and best[2]:
        least = sorted(best[2], key=lambda e: e[0])[:2]
        if len(least) == 2 and least[0][0] == least[1][0]:
            break
        best = least[0]
    return None if best is None else best[1]


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot parse config {path}: {exc}") from exc
    message = _best_message(_schema_errors(_CONFIG_SCHEMA, config))
    if message is not None:
        raise _UsageError(f"config rejected: {message}")
    return config


class _UsageError(Exception):
    pass


def _write_report(out_dir, name, payload):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w") as fh:
        json.dump(_fmt(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _header(command, config, seed):
    return {
        "command": command,
        "version": __version__,
        "config_hash": _config_hash(config),
        "seed": seed,
    }


# int() on the validated integer fields: draft 2020-12 lets an integral float
# such as 3.0 pass as an integer, and it must give the report of its int
def _seed(args, config):
    return int(args.seed if args.seed is not None else config.get("seed", 0))


def _mesh_counts(config, args, n):
    counts = args.mesh if args.mesh is not None else config.get("mesh")
    if counts is None:
        counts = max(4, int(round(2000 ** (1.0 / n))))
    if not isinstance(counts, list):
        return (int(counts),) * n
    if len(counts) != n:
        raise _UsageError(f"mesh spec needs {n} axis counts")
    return tuple(int(c) for c in counts)


def cmd_verify_identities(args):
    config = _load_config(args.config)
    seed = _seed(args, config)
    chart = registry.build_chart(config["surface"])
    rng = np.random.default_rng(seed)
    results = identities.run_identity_suite(chart, rng)
    failing = [r["id"] for r in results if not r["pass"]]
    payload = _header("verify-identities", config, seed)
    payload["results"] = {"surface": chart.name, "identities": results, "failing": failing}
    path = _write_report(args.out, "report.json", payload)
    for r in results:
        print(f"[{ 'pass' if r['pass'] else 'FAIL' }] {r['id']}: err={r['max_err']:.3e} tol={r['tol']:.1e}")
    print(f"report: {path}")
    if failing:
        print(f"failing identities: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _run_drive(mesh, gate, config):
    if gate.theorem == "cone":
        return cone_drive(mesh, gate).to_json_dict()
    if gate.theorem == "halfspace":
        return halfspace_drive(mesh, gate).to_json_dict()
    # bihalfspace: the pocket drive, in the wedge coordinates of the pair
    eps = float(config.get("eps", 0.0))
    if eps <= 0.0:
        eps = max(gate.min_eigen_P, 0.0)  # the gate's smallest P_{r-1} eigenvalue
    rep = bihalfspace_drive(mesh, gate.region, gate.V, float(config.get("R", 1.0)), gate.r, eps)
    return rep.to_json_dict()


_REGION_NEEDS = {"cone": ("V", "a"), "halfspace": ("W",), "bihalfspace": ("halfspaces",)}


def _check_theorem_config(config, n):
    """Reject what the schema cannot see, before any mesh work; return r.

    That is the region's kind and fields, vector lengths, a unit velocity
    V, a unit half-space normal W with <V, W> > 0, the cone parameter a in
    (0, 1), a cone axis along V, a ``vertical_to`` parallel to V, a
    positive cylinder radius R and r in 1..n.
    """
    region = config["region"]
    if region["kind"] != config["theorem"]:
        raise _UsageError(
            f"theorem {config['theorem']!r} needs a {config['theorem']} region "
            f"(got 'region.kind' {region['kind']!r})"
        )
    for key in _REGION_NEEDS[region["kind"]]:
        if key not in region:
            raise _UsageError(f"a {region['kind']} region needs 'region.{key}'")
    if config["theorem"] == "cone" and "a" not in config:
        raise _UsageError("theorem 'cone' needs the cone parameter 'a'")
    vectors = {"V": config["V"]}
    vectors.update((f"region.{k}", region[k]) for k in ("V", "W", "B", "vertical_to")
                   if k in region)
    for i, half in enumerate(region.get("halfspaces", ())):
        vectors.update((f"region.halfspaces[{i}].{k}", half[k]) for k in ("W", "B") if k in half)
    for name, vec in vectors.items():
        if len(vec) != n + 1:
            raise _UsageError(
                f"{name!r} needs n + 1 = {n + 1} coordinates for this surface (got {len(vec)})"
            )
    # hypothesis_gate checks r, V, <V, W> and the cone's axis again, and Cone
    # checks a, but their errors cannot name the config field; Halfspace
    # normalizes W, and the gate reads a from the region
    V = np.asarray(config["V"], dtype=float)
    if abs(np.linalg.norm(V) - 1.0) > 1e-10:
        raise _UsageError(f"the velocity 'V' must be a unit vector (|V| = {np.linalg.norm(V):g})")
    if config["theorem"] == "halfspace":
        W = np.asarray(region["W"], dtype=float)
        if abs(np.linalg.norm(W) - 1.0) > 1e-10:
            raise _UsageError(
                f"'region.W' must be a unit vector (|W| = {np.linalg.norm(W):g})")
        if not V @ W > 0.0:
            raise _UsageError(f"'region.W' needs <V, W> > 0 (got {V @ W:g})")
    if config["theorem"] == "cone":
        # the config states a twice, and the gate reads the region's
        if region["a"] != config["a"]:
            raise _UsageError(f"'region.a' = {region['a']} must equal the cone parameter "
                              f"'a' = {config['a']}")
        if not 0.0 < config["a"] < 1.0:
            raise _UsageError(f"the cone parameter 'a' must lie in (0, 1) (got {config['a']})")
        if not _points_along(region["V"], V):
            raise _UsageError("'region.V' must point along the velocity 'V'")
    if "vertical_to" in region and not (_points_along(region["vertical_to"], V)
                                        or _points_along(region["vertical_to"], -V)):
        raise _UsageError("'region.vertical_to' must be parallel to the velocity 'V'")
    if not config.get("R", 1.0) > 0.0:
        raise _UsageError(f"the cylinder radius 'R' must be positive (got {config['R']})")
    return _order(config, n)


def _points_along(vec, V):
    """Whether vec is a positive multiple of V, to 1e-10 of |vec| |V|."""
    vec = np.asarray(vec, dtype=float)
    nvec, nV = np.linalg.norm(vec), np.linalg.norm(V)
    return np.allclose(vec * nV, V * nvec, rtol=0.0, atol=1e-10 * nV * nvec)


def _order(config, n):
    """The config's r (1 when it has none); a usage error unless 1 <= r <= n."""
    r = config.get("r", 1)
    if not 1 <= r <= n:
        raise _UsageError(f"'r' must satisfy 1 <= r <= n = {n} (got r={r})")
    return int(r)


def cmd_theorem_check(args):
    config = _load_config(args.config)
    seed = _seed(args, config)
    for key in ("region", "theorem", "r", "V"):
        if key not in config:
            raise _UsageError(f"theorem-check config needs {key!r}")
    chart = registry.build_chart(config["surface"])
    params = {key: config[key] for key in ("V", "eps", "asserted", "growth_bound",
                                           "residual_tol") if key in config}
    params["r"] = _check_theorem_config(config, chart.n)
    region = registry.build_region(config["region"])
    mesh = Mesh.grid(chart, _mesh_counts(config, args, chart.n))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryDominatedWarning)
        gate = hypothesis_gate(mesh, region, params)
        drive = _run_drive(mesh, gate, config)
    exit_res = gate.exit

    payload = _header("theorem-check", config, seed)
    payload["results"] = {
        "surface": chart.name,
        "gate": gate.to_json_dict(),
        "drive": drive,
        "first_exit": {
            "found": exit_res.found,
            "margin": exit_res.margin,
            "witness": None if exit_res.witness is None else list(exit_res.witness),
        },
        "consistent": gate.consistent,
    }
    path = _write_report(args.out, "report.json", payload)
    for p in gate.premises:
        tag = "pass" if p["pass"] else "fail"
        label = " (empirical)" if p["empirical"] else ""
        print(f"[{tag}] premise {p['id']}{label}: value={p['value']:.3e}")
    print(f"containment: {gate.contained}; consistent: {gate.consistent}")
    print(f"report: {path}")
    return 0 if gate.consistent else 1


def cmd_profile(args):
    try:
        profile = solve_rotational_translator(
            args.n, args.r, R_max=args.rmax, tol=args.tol
        )
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StiffFailureError as exc:
        print(f"solver failed: {exc} (last good R {exc.last_good_R})", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "profile.csv"
    json_path = out / "profile.json"
    request = {"n": args.n, "r": args.r, "R_max": args.rmax, "tol": args.tol}
    export_profile(
        profile,
        csv_path,
        json_path,
        extra_header={"version": __version__, "config_hash": _config_hash(request)},
    )
    print(f"profile: n={args.n} r={args.r} steps={profile.meta['steps']} "
          f"method={profile.meta['method']}")
    if args.r == 1 and args.n >= 2 and args.rmax >= 100.0:
        fit = asymptotic_fit(profile, 0.5 * args.rmax, args.rmax)
        drift = bowl_drift(profile, 0.8 * args.rmax, args.rmax)
        print(f"fitted quadratic coefficient: {fit['leading']:.6f} "
              f"(target {1.0 / (2 * (args.n - 1)):.6f}); drift {drift:.3e}")
    theta = {R: float(profile.theta(R)) for R in (args.rmax / 10, args.rmax / 2, args.rmax)}
    print("angle function:", ", ".join(f"Theta({k:g})={v:.6f}" for k, v in theta.items()))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_oy_run(args):
    config = _load_config(args.config)
    seed = _seed(args, config)
    if "field" not in config:
        raise _UsageError("oy-run config needs a 'field' entry")
    chart = registry.build_chart(config["surface"])
    r = _order(config, chart.n)
    u_field = registry.build_scalar_field(config["field"], chart.n + 1, "field")
    gamma = registry.build_scalar_field(
        config.get("gamma", {"kind": "dist_sq"}), chart.n + 1, "gamma"
    )
    G = registry.build_G(config.get("G", {"kind": "iterated_log", "levels": 1}))
    mesh = Mesh.grid(chart, _mesh_counts(config, args, chart.n))
    geom = mesh.geometry()
    rows = geom.take(np.linalg.norm(geom.X, axis=1) > 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryDominatedWarning)
        run = oy_sequence(mesh, u_field, gamma, G, k_max=int(config.get("k_max", 8)), r=r,
                          rows=rows)
    payload = _header("oy-run", config, seed)
    payload["results"] = run.to_json_dict()
    path = _write_report(args.out, "oyrun.json", payload)
    status = "boundary-dominated (inconclusive)" if run.boundary_dominated else "interior"
    print(f"oy-run: {len(run.ks)} indices, {status}, mesh_tol={run.mesh_tol:.3e}")
    print(f"report: {path}")
    return 0


def _nonnegative_int(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer (got {text!r})")
    return int(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rmcf",
        description="Numerical checks for translating solitons of higher-order "
        "mean curvature flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory for reports")
        p.add_argument("--mesh", type=int, default=None, help="grid points per axis")
        p.add_argument("--seed", type=_nonnegative_int, default=None,
                       help="seed for randomized identity trials")

    p_vi = sub.add_parser("verify-identities", help="run the identity battery on a surface")
    add_common(p_vi)
    p_vi.set_defaults(fn=cmd_verify_identities)

    p_tc = sub.add_parser("theorem-check", help="gate + drive + exit scan for one region")
    add_common(p_tc)
    p_tc.set_defaults(fn=cmd_theorem_check)

    p_pr = sub.add_parser("profile", help="solve and export a rotational profile")
    p_pr.add_argument("--n", type=int, required=True)
    p_pr.add_argument("--r", type=int, required=True)
    p_pr.add_argument("--rmax", type=float, default=100.0)
    p_pr.add_argument("--tol", type=float, default=1e-10)
    p_pr.add_argument("--out", default=".")
    p_pr.set_defaults(fn=cmd_profile)

    p_oy = sub.add_parser("oy-run", help="maximizer-sequence run on a configured surface")
    add_common(p_oy)
    p_oy.set_defaults(fn=cmd_oy_run)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RmcfError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
