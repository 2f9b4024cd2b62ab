"""Command-line front end: declarative experiment configs and JSON reports.

Commands: verify-identities, theorem-check, profile, oy-run. Configs are
single JSON documents validated against a strict schema (unknown fields
rejected); every report embeds the config hash and the library version,
floats are formatted to 12 significant digits, and reductions are index
ordered, so a rerun of the same config produces byte-identical output.

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
from .regions import bihalfspace_drive, min_eigen_over_mesh, normalize_bihalfspace
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
        "seed": {"type": "integer"},
        "field": {"type": "object"},
        "gamma": {"type": "object"},
        "G": {"type": "object"},
        "k_max": {"type": "integer", "minimum": 1},
    },
}


def _fmt(value):
    """Canonical float formatting (12 significant digits) applied recursively."""
    if isinstance(value, float):
        return float(f"{value:.12e}")
    if isinstance(value, (np.floating,)):
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


def _load_config(path):
    # the schema is a constant, checked once by the test suite rather than
    # by jsonschema.validate on every load
    from jsonschema.exceptions import best_match
    from jsonschema.validators import validator_for

    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot parse config {path}: {exc}") from exc
    error = best_match(validator_for(_CONFIG_SCHEMA)(_CONFIG_SCHEMA).iter_errors(config))
    if error is not None:
        raise _UsageError(f"config rejected: {error.message}")
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


def _mesh_counts(config, args, n):
    counts = args.mesh if args.mesh is not None else config.get("mesh")
    if counts is None:
        counts = max(4, int(round(2000 ** (1.0 / n))))
    if isinstance(counts, int):
        return (counts,) * n
    if len(counts) != n:
        raise _UsageError(f"mesh spec needs {n} axis counts")
    return tuple(int(c) for c in counts)


def cmd_verify_identities(args):
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
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


def _run_drive(chart, mesh, region, theorem, params, config, gate):
    if theorem == "cone":
        return cone_drive(
            chart, mesh, np.asarray(params["V"], dtype=float), float(params["a"]),
            int(params["r"]), gate=gate,
        ).to_json_dict()
    if theorem == "halfspace":
        return halfspace_drive(
            chart, mesh, np.asarray(params["V"], dtype=float), region.W, int(params["r"]),
            gate=gate,
        ).to_json_dict()
    # bihalfspace: normalize the pair, move the chart, run the pocket drive
    V = np.asarray(params["V"], dtype=float)
    Q, shift, a, b = normalize_bihalfspace(region, V)
    mesh2 = mesh.moved(Q, shift=-Q @ shift)
    moved = mesh2.chart
    R = float(config.get("R", 1.0))
    eps = float(params.get("eps", 0.0))
    if eps <= 0.0:
        eps = max(min_eigen_over_mesh(mesh2, int(params["r"])), 0.0)
    rep = bihalfspace_drive(moved, a, b, R, int(params["r"]), eps, mesh2)
    return rep.to_json_dict()


_REGION_NEEDS = {"cone": ("V", "a"), "halfspace": ("W",), "bihalfspace": ("halfspaces",)}


def _check_theorem_config(config, n):
    """Reject what the schema cannot see: the region's kind and fields, vector lengths, a, r."""
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
    if config["theorem"] == "cone":
        # the drive reads the gate's first-exit scan: one cone for both
        if region["a"] != config["a"]:
            raise _UsageError(f"'region.a' = {region['a']} must equal the cone parameter "
                              f"'a' = {config['a']}")
        axis, V = np.asarray(region["V"], dtype=float), np.asarray(config["V"], dtype=float)
        if not np.allclose(axis * np.linalg.norm(V), V * np.linalg.norm(axis),
                           rtol=0.0, atol=1e-10 * np.linalg.norm(V) * np.linalg.norm(axis)):
            raise _UsageError("'region.V' must point along the velocity 'V'")
    if not 1 <= config["r"] <= n:
        raise _UsageError(f"'r' must satisfy 1 <= r <= n = {n} (got r={config['r']})")


def cmd_theorem_check(args):
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    for key in ("region", "theorem", "r", "V"):
        if key not in config:
            raise _UsageError(f"theorem-check config needs {key!r}")
    chart = registry.build_chart(config["surface"])
    _check_theorem_config(config, chart.n)
    region = registry.build_region(config["region"])
    theorem = config["theorem"]
    params = {
        "r": int(config["r"]),
        "V": config["V"],
        "residual_tol": float(config.get("residual_tol", 1e-6)),
    }
    for key in ("a", "eps", "asserted", "growth_bound"):
        if key in config:
            params[key] = config[key]
    mesh = Mesh.grid(chart, _mesh_counts(config, args, chart.n))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryDominatedWarning)
        gate = hypothesis_gate(chart, mesh, theorem, params, region=region)
        drive = _run_drive(chart, mesh, region, theorem, params, config, gate)
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
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if "field" not in config:
        raise _UsageError("oy-run config needs a 'field' entry")
    chart = registry.build_chart(config["surface"])
    mesh = Mesh.grid(chart, _mesh_counts(config, args, chart.n))
    u_field = registry.build_scalar_field(config["field"], chart.n + 1)
    gamma = registry.build_scalar_field(
        config.get("gamma", {"kind": "dist_sq"}), chart.n + 1
    )
    G = registry.build_G(config.get("G", {"kind": "iterated_log", "levels": 1}))
    xs = mesh.geometry().X
    mask = np.linalg.norm(xs, axis=1) > 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryDominatedWarning)
        run = oy_sequence(
            mesh, u_field, gamma, G,
            k_max=int(config.get("k_max", 8)),
            r=int(config.get("r", 1)),
            mask=mask if not mask.all() else None,
        )
    payload = _header("oy-run", config, seed)
    payload["results"] = run.to_json_dict()
    path = _write_report(args.out, "oyrun.json", payload)
    status = "boundary-dominated (inconclusive)" if run.boundary_dominated else "interior"
    print(f"oy-run: {len(run.ks)} indices, {status}, mesh_tol={run.mesh_tol:.3e}")
    print(f"report: {path}")
    return 0


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
        p.add_argument("--seed", type=int, default=None,
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
