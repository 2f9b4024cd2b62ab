"""Command-line front end: declarative experiment configs and JSON reports.

Commands: verify-identities, theorem-check, profile, oy-run. Configs are
single JSON documents, each object read by one key table of its keys'
types, ranges and defaults (``_COMMAND_KEYS`` and ``_THEOREM_KEYS`` at the
top level, the ``registry`` tables below); ``_read_config`` checks a whole
config before any chart is built. Every report embeds the config hash and
the library version, floats are formatted to 12 significant digits, and
reductions are index ordered, so a rerun of the same config produces
byte-identical output.

Exit codes: 0 consistent/pass, 1 mathematical failure, 2 usage or config
error.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, identities, registry
from .charts import Mesh
from .errors import InvalidInputError, RmcfError
from .maxprinciple import (check_statement, cone_drive, halfspace_drive, hypothesis_gate,
                           oy_sequence)
from .regions import bihalfspace_drive
from .registry import NEEDED, NUMBER, VECTOR, KeyType
from .translators import asymptotic_fit, bowl_drift, export_profile, solve_rotational_translator


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


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _finite(parse):
    """``parse`` for JSON number tokens, refusing one a double cannot hold, such as 1e400."""
    def parse_finite(token):
        if not np.isfinite(float(token)):
            raise ValueError(f"{token} is not a finite double")
        return parse(token)
    return parse_finite


def _load_config(path):
    """The config at ``path``: a JSON object in strict JSON (RFC 8259, finite numbers)."""
    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=_reject_constant, parse_float=_finite(float),
                               parse_int=_finite(int))
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidInputError(f"a config must be an object (got {config!r})")
    return config


# the top-level keys each command reads, and a theorem-check's for its theorem:
# key=(type, default), the registry's types reading the config objects below
_SEED = registry.integers(0)
_COUNT = registry.integers(2).test  # points on one mesh axis
_MESH = KeyType("an integer >= 2, or an array of them",
                lambda v: _COUNT(v) or isinstance(v, list) and all(map(_COUNT, v)))
_APERTURE = KeyType("a number in (0, 1)", lambda v: NUMBER.test(v) and 0.0 < v < 1.0)
_RADIUS = KeyType("a positive number", lambda v: NUMBER.test(v) and v > 0.0)
_THEOREM_KEYS = {"cone": dict(a=(_APERTURE, NEEDED),
                              asserted=(registry.one_of("proper", "bounded-sigma"), "proper")),
                 "halfspace": {}, "bihalfspace": dict(eps=(NUMBER, 0.0), R=(_RADIUS, 1.0))}
_THEOREM = registry.one_of(*_THEOREM_KEYS)
_COMMAND_KEYS = {
    "verify-identities": dict(surface=(registry.SURFACE, NEEDED), seed=(_SEED, 0)),
    "theorem-check": dict(surface=(registry.SURFACE, NEEDED), region=(registry.REGION, NEEDED),
                          theorem=(_THEOREM, NEEDED), r=(registry.ORDER, NEEDED),
                          V=(VECTOR, NEEDED), mesh=(_MESH, None), seed=(_SEED, 0)),
    "oy-run": dict(surface=(registry.SURFACE, NEEDED), field=(registry.FIELD, NEEDED),
                   gamma=(registry.FIELD, {"kind": "dist_sq"}),
                   G=(registry.GROWTH, {"kind": "iterated_log", "levels": 1}),
                   r=(registry.ORDER, 1),
                   # oy_sequence scans the whole mesh once per index
                   k_max=(registry.integers(1, 1000), 8), mesh=(_MESH, None), seed=(_SEED, 0)),
}


def _read_config(args):
    """The config at ``args.config``, and the values its command reads, by key, all checked.

    ``--seed`` and ``--mesh`` replace the config's, checked by its types; the seed is an int
    (3.0 gives 3's report).
    """
    config = _load_config(args.config)
    kind, table = args.command, _COMMAND_KEYS[args.command]
    if kind == "theorem-check" and "theorem" in config:
        theorem = _THEOREM(config["theorem"], "theorem")
        kind, table = f"{theorem} {kind}", dict(table, **_THEOREM_KEYS[theorem])
    keys = registry._spec_keys(config, "", kind, table)
    keys.update((k, table[k][0](v, k)) for k, v in vars(args).items()
                if k in ("seed", "mesh") and v is not None)
    keys["seed"] = int(keys["seed"])
    return config, keys


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


# the most second-derivative entries, points x n^2 (n + 1), a mesh may hold:
# 2^26 doubles (512 MiB) of d2X, 27 times the 41^3 (3,2) bowl mesh's and 1.8
# times the 4^8 default's (0.7 GB peak); a finer mesh is a config error before
# Mesh.grid allocates anything
_MESH_ENTRIES = 2 ** 26


def _mesh_counts(counts, n):
    """Points per axis of ``mesh`` on an n-dim chart (None: max(4, round(2000^(1/n))) each, or
    fewer where that would pass the bound)."""
    per_point, given = n * n * (n + 1), counts is not None
    if not given:
        counts = max(4, int(round(2000 ** (1.0 / n))))
        while counts > 2 and counts ** n * per_point > _MESH_ENTRIES:
            counts -= 1
    counts = tuple(int(c) for c in counts) if isinstance(counts, list) else (int(counts),) * n
    if len(counts) != n:
        raise InvalidInputError(f"mesh spec needs {n} axis counts")
    if math.prod(counts) * per_point > _MESH_ENTRIES:
        raise InvalidInputError((f"'mesh' {counts} is too fine" if given else
                                 f"no mesh fits an n = {n} chart") + ": a mesh here holds at most "
                                f"{_MESH_ENTRIES // per_point} points of {per_point} d2X entries")
    return counts


def cmd_verify_identities(args):
    config, keys = _read_config(args)
    chart = registry.build_chart(keys["surface"])
    rng = np.random.default_rng(keys["seed"])
    results = identities.run_identity_suite(chart, rng)
    failing = [r["id"] for r in results if not r["pass"]]
    payload = _header("verify-identities", config, keys["seed"])
    payload["results"] = {"surface": chart.name, "identities": results, "failing": failing}
    path = _write_report(args.out, "report.json", payload)
    for r in results:
        print(f"[{ 'pass' if r['pass'] else 'FAIL' }] {r['id']}: err={r['max_err']:.3e} tol={r['tol']:.1e}")
    print(f"report: {path}")
    if failing:
        print(f"failing identities: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _run_drive(mesh, gate, keys):
    if gate.theorem == "cone":
        return cone_drive(mesh, gate).to_json_dict()
    if gate.theorem == "halfspace":
        return halfspace_drive(mesh, gate).to_json_dict()
    # bihalfspace: the pocket drive, in the wedge coordinates of the pair
    eps = float(keys["eps"])
    if eps <= 0.0:
        eps = max(gate.min_eigen_P, 0.0)  # the gate's smallest P_{r-1} eigenvalue
    return bihalfspace_drive(mesh, gate.region, gate.V, float(keys["R"]), gate.r, eps).to_json_dict()


def _check_theorem_config(keys, n):
    """The region of a theorem-check config on an n-dim surface, checked before any mesh work.

    ``check_statement`` checks the statement; around it, this checks what the
    config states twice: the theorem and ``region.kind``, ``a`` and ``region.a``, and
    ``region.vertical_to`` parallel to ±V.
    """
    region = keys["region"]
    if region["kind"] != keys["theorem"]:
        raise InvalidInputError(f"theorem {keys['theorem']!r} needs a {keys['theorem']} region "
                                f"(got 'region.kind' {region['kind']!r})")
    if keys["theorem"] == "cone" and region["a"] != keys["a"]:
        raise InvalidInputError(f"'region.a' = {region['a']} must equal the cone parameter "
                                f"'a' = {keys['a']}")
    built = registry.build_region(region, n + 1)
    check_statement(n, built, keys)
    if region.get("vertical_to") is not None and not _parallel(region["vertical_to"], keys["V"]):
        raise InvalidInputError("'region.vertical_to' must be parallel to the velocity 'V'")
    return built


def _parallel(vec, V):
    """Whether vec is a nonzero multiple of V, of either sign, to 1e-10 of |vec| |V|."""
    vec, V = np.asarray(vec, dtype=float), np.asarray(V, dtype=float)
    nvec, nV = np.linalg.norm(vec), np.linalg.norm(V)
    return nvec > 0.0 and any(np.allclose(vec * nV, s * V * nvec, rtol=0.0,
                                          atol=1e-10 * nV * nvec) for s in (1.0, -1.0))


def _order(r, n):
    """r as an int; a config error unless 1 <= r <= n."""
    if not 1 <= r <= n:
        raise InvalidInputError(f"'r' must satisfy 1 <= r <= n = {n} (got r={r})")
    return int(r)


def cmd_theorem_check(args):
    config, keys = _read_config(args)
    chart = registry.build_chart(keys["surface"])
    region = _check_theorem_config(keys, chart.n)
    mesh = Mesh.grid(chart, _mesh_counts(keys["mesh"], chart.n))

    # the gate reads r, V and the theorem's eps or asserted
    gate = hypothesis_gate(mesh, region, keys)
    drive = _run_drive(mesh, gate, keys)

    payload = _header("theorem-check", config, keys["seed"])
    payload["results"] = {
        "surface": chart.name,
        "gate": gate.to_json_dict(),
        "drive": drive,
        "first_exit": gate.exit._asdict(),
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
    profile = solve_rotational_translator(args.n, args.r, R_max=args.rmax, tol=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "profile.csv"
    json_path = out / "profile.json"
    request = {"n": args.n, "r": args.r, "R_max": args.rmax, "tol": args.tol}
    export_profile(profile, csv_path, json_path,
                   extra_header={"version": __version__, "config_hash": _config_hash(request)})
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
    config, keys = _read_config(args)
    chart = registry.build_chart(keys["surface"])
    r = _order(keys["r"], chart.n)
    u_field = registry.build_scalar_field(keys["field"], chart.n + 1, "field")
    gamma = registry.build_scalar_field(keys["gamma"], chart.n + 1, "gamma")
    G = registry.build_G(keys["G"])
    mesh = Mesh.grid(chart, _mesh_counts(keys["mesh"], chart.n))
    geom = mesh.geometry()
    rows = geom.take(np.linalg.norm(geom.X, axis=1) > 1e-6)
    run = oy_sequence(mesh, u_field, gamma, G, k_max=int(keys["k_max"]), r=r, rows=rows)
    payload = _header("oy-run", config, keys["seed"])
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

    def add_config_command(name, fn, summary, mesh=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=".", help="output directory for reports")
        if mesh:
            p.add_argument("--mesh", type=int, default=None, help="grid points per axis")
        p.add_argument("--seed", type=_nonnegative_int, default=None,
                       help="seed for randomized identity trials")
        p.set_defaults(fn=fn)

    add_config_command("verify-identities", cmd_verify_identities,
                       "run the identity battery on a surface", mesh=False)
    add_config_command("theorem-check", cmd_theorem_check,
                       "gate + drive + exit scan for one region")

    p_pr = sub.add_parser("profile", help="solve and export a rotational profile")
    p_pr.add_argument("--n", type=int, required=True)
    p_pr.add_argument("--r", type=int, required=True)
    p_pr.add_argument("--rmax", type=float, default=100.0)
    p_pr.add_argument("--tol", type=float, default=1e-10)
    p_pr.add_argument("--out", default=".")
    p_pr.set_defaults(fn=cmd_profile)

    add_config_command("oy-run", cmd_oy_run, "maximizer-sequence run on a configured surface")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RmcfError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
