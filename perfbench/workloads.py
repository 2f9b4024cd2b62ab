"""The benchmark's three workloads: seeded inputs, their ops and the output checks.

Every op exposes ``run(fresh)`` (the timed part), ``observe()`` (the report
values compared against ``reference.json``) and ``check(reference)``, which
raises ``CheckFailed`` on a wrong output. The seed only picks among the
parameter values listed in the menus below, so every input the benchmark can
generate has a stored reference.
"""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np

# report floats must match reference.json within RTOL relative, with ATOL as
# the floor for roundoff-sized values (residuals near 1e-15)
RTOL = 1e-6
ATOL = 1e-9
# r = n bowls: |Theta - cos phi| on the exported grid (measured below 1e-12)
THETA_TOL = 1e-9
# r = 1 bowls: fitted R^2 coefficient against 1/(2(n-1)), and far-field drift
FIT_TOL = 1e-3
DRIFT_TOL = 1e-2

CLI_IDENTITY_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
CLI_CONE_A = (0.2, 0.3, 0.4, 0.5)
MESH_WEDGE_A = (0.5, 0.6, 0.7, 0.8)
MESH_CONE_A = (0.2, 0.3, 0.4, 0.5)
MESH_HALFSPACE_W = (
    (0.6, 0.0, 0.0, 0.8),
    (0.0, 0.6, 0.0, 0.8),
    (0.48, 0.36, 0.0, 0.8),
    (0.8, 0.0, 0.0, 0.6),
)
SWEEP = ((2, 1, 300.0), (3, 1, 300.0), (3, 2, 1e3), (4, 3, 1e3), (2, 2, 1.3), (3, 3, 1.3))
SWEEP_TOL = 1e-10

V4 = [0.0, 0.0, 0.0, 1.0]


class CheckFailed(Exception):
    """An op's output differs from what the oracle or the reference says."""


def child_env(root):
    """Environment for fresh interpreters: rmcf from the checkout, BLAS pinned."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def compare(got, want, path="report"):
    """Raise unless every value of ``want`` is matched in ``got``; extra keys in ``got`` pass."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            raise CheckFailed(f"{path}: expected an object")
        for key, value in want.items():
            if key not in got:
                raise CheckFailed(f"{path}.{key}: missing")
            compare(got[key], value, f"{path}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{path}: expected a list of {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            raise CheckFailed(f"{path}: expected a number, got {got!r}")
        if math.isnan(want):
            if not math.isnan(got):
                raise CheckFailed(f"{path}: expected NaN, got {got!r}")
        elif not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            raise CheckFailed(f"{path}: {got!r} differs from reference {want!r}")
    elif got != want or isinstance(got, bool) != isinstance(want, bool):
        raise CheckFailed(f"{path}: {got!r} differs from reference {want!r}")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _sin_power_integral(phi, k):
    # int_0^phi sin^k by the reduction formula
    if k == 0:
        return phi
    if k == 1:
        return 1.0 - np.cos(phi)
    return (-np.sin(phi) ** (k - 1) * np.cos(phi) + (k - 1) * _sin_power_integral(phi, k - 2)) / k


def rn_theta_oracle(R, n):
    """Exact Theta = cos phi of the r = n bowl, from int_0^phi sin^{n-1} = R^n / n."""
    target = np.asarray(R, dtype=float) ** n / n
    lo = np.zeros_like(target)
    hi = np.full_like(target, math.pi / 2)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _sin_power_integral(mid, n - 1) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.cos(0.5 * (lo + hi))


def check_rn_theta(R, theta, n):
    err = float(np.max(np.abs(theta - rn_theta_oracle(R, n))))
    if not err <= THETA_TOL:
        raise CheckFailed(f"r = n = {n} bowl: |Theta - cos phi| = {err:.3e} > {THETA_TOL:.0e}")


def check_r1_bowl(R, u, n, R_max):
    """Quadratic coefficient 1/(2(n-1)) over [R_max/2, R_max] and small drift."""
    sel = R >= 0.5 * R_max
    basis = np.stack([R[sel] ** 2, np.log(R[sel]), np.ones(int(sel.sum()))], axis=1)
    leading = float(np.linalg.lstsq(basis, u[sel], rcond=None)[0][0])
    target = 1.0 / (2 * (n - 1))
    if not abs(leading - target) <= FIT_TOL:
        raise CheckFailed(f"bowl n={n}: fitted coefficient {leading:.6f}, target {target:.6f}")

    def d(x):
        return float(np.interp(x, R, u)) - x * x / (2.0 * (n - 1)) + math.log(x)

    drift = d(R_max) - d(0.8 * R_max)
    if not abs(drift) < DRIFT_TOL:
        raise CheckFailed(f"bowl n={n}: drift {drift:.3e} >= {DRIFT_TOL:.0e}")


# ---------------------------------------------------------------------------
# ops


class CliOp:
    """One rmcf command, in a fresh interpreter (``fresh``) or through ``rmcf.cli.main``."""

    def __init__(self, key, argv, out_dir, root):
        self.key = key
        self.kind = key.split("-")[0]  # the key without its seeded parameter
        self.argv = argv
        self.out_dir = out_dir
        self.root = root

    @property
    def replay(self):
        return "PYTHONPATH=src python3 -m rmcf.cli " + shlex.join(self.argv)

    def run(self, fresh):
        """Run the command; returns the child's peak resident set in KiB when ``fresh``."""
        child_kb = None
        if fresh:
            with open(os.path.join(self.out_dir, "stderr.txt"), "w+") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "rmcf.cli", *self.argv],
                    cwd=self.root, env=child_env(self.root), stdout=subprocess.DEVNULL,
                    stderr=err,
                )
                # wait4 gives this child's own peak, which RUSAGE_CHILDREN mixes with others'
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = code = os.waitstatus_to_exitcode(status)
                child_kb = usage.ru_maxrss
                if code != 0:
                    err.seek(0)
                    sys.stderr.write(err.read())
        else:
            import rmcf.cli

            with contextlib.redirect_stdout(io.StringIO()):
                code = rmcf.cli.main(self.argv)
        if code != 0:
            raise CheckFailed(f"{self.key}: exit code {code}")
        return child_kb

    def report(self, name="report.json"):
        return _read_json(os.path.join(self.out_dir, name))


class VerifyIdentitiesOp(CliOp):
    def __init__(self, seed, config_path, out_dir, root):
        super().__init__("verify-identities", [
            "verify-identities", "--config", config_path, "--out", out_dir, "--seed", str(seed),
        ], out_dir, root)
        self.seed = seed

    def observe(self):
        results = self.report()["results"]
        return {"surface": results["surface"], "ids": [r["id"] for r in results["identities"]]}

    def check(self, reference):
        report = self.report()
        if report["seed"] != self.seed:
            raise CheckFailed(f"verify-identities: report seed {report['seed']} != {self.seed}")
        failing = [r["id"] for r in report["results"]["identities"] if not r["pass"]]
        if failing or report["results"]["failing"]:
            raise CheckFailed(f"verify-identities: failing {failing}")
        compare(self.observe(), reference[self.key])


class TheoremCheckOp(CliOp):
    def observe(self):
        return self.report()["results"]

    def check(self, reference):
        results = self.observe()
        if results["consistent"] is not True or results["first_exit"]["found"] is not True:
            raise CheckFailed(f"{self.key}: consistent={results['consistent']} "
                              f"first_exit.found={results['first_exit']['found']}")
        compare(results, reference[self.key])


class ProfileCommandOp(CliOp):
    N, R_MAX = 2, 100.0

    def __init__(self, out_dir, root):
        super().__init__("profile", [
            "profile", "--n", str(self.N), "--r", "1", "--rmax", repr(self.R_MAX),
            "--tol", "1e-10", "--out", out_dir,
        ], out_dir, root)

    def observe(self):
        header = self.report("profile.json")
        table = _read_csv(os.path.join(self.out_dir, "profile.csv"))
        keys = ("n", "r", "R_max", "R_start", "k0", "a4")
        return {"header": {k: header[k] for k in keys}, "last_row": table[-1].tolist()}

    def check(self, reference):
        table = _read_csv(os.path.join(self.out_dir, "profile.csv"))
        check_r1_bowl(table[1:, 0], table[1:, 1], self.N, self.R_MAX)
        compare(self.observe(), reference[self.key])


class OyRunOp(CliOp):
    def observe(self):
        return self.report("oyrun.json")["results"]

    def check(self, reference):
        compare(self.observe(), reference[self.key])


class ProfileSweepOp:
    """solve_rotational_translator -> export_profile -> load_profile, in-process."""

    def __init__(self, n, r, R_max, out_dir):
        self.n, self.r, self.R_max = n, r, R_max
        self.key = self.kind = f"n{n}-r{r}-R{R_max:g}"
        self.out_dir = out_dir
        self.csv = os.path.join(out_dir, "profile.csv")
        self.json = os.path.join(out_dir, "profile.json")
        self.solved = self.loaded = None

    @property
    def replay(self):
        return (f"PYTHONPATH=src python3 -m rmcf.cli profile --n {self.n} --r {self.r} "
                f"--rmax {self.R_max!r} --tol {SWEEP_TOL!r} --out {shlex.quote(self.out_dir)}")

    def run(self, fresh=False):
        import rmcf.translators as translators

        self.solved = translators.solve_rotational_translator(
            self.n, self.r, R_max=self.R_max, tol=SWEEP_TOL)
        translators.export_profile(self.solved, self.csv, self.json)
        self.loaded = translators.load_profile(self.csv, self.json)

    def observe(self):
        p = self.loaded
        return {"R_end": float(p.grid[-1]), "u_end": float(p.u[-1]), "up_end": float(p.up[-1])}

    def check(self, reference):
        try:
            for name in ("grid", "u", "up"):
                a, b = getattr(self.solved, name), getattr(self.loaded, name)
                if a.shape != b.shape or a.tobytes() != b.tobytes():
                    raise CheckFailed(f"{self.key}: loaded {name} is not bit-equal to the export")
            R, up = self.loaded.grid[1:], self.loaded.up[1:]
            if self.r == self.n:
                check_rn_theta(R, 1.0 / np.sqrt(1.0 + up * up), self.n)
            if self.r == 1:
                check_r1_bowl(R, self.loaded.u[1:], self.n, self.R_max)
            compare(self.observe(), reference[self.key])
        finally:
            self.solved = self.loaded = None  # free both profiles before the next op


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A closed loop of rounds; each round is a list of ops run one after another."""

    name = ""
    in_process = True

    def __init__(self, root, out_dir):
        self.root = root
        self.out_dir = out_dir

    def _dir(self, *parts):
        path = os.path.join(self.out_dir, *parts)
        os.makedirs(path, exist_ok=True)
        return path

    def generate(self, seed, rounds):
        """The ops of ``rounds`` rounds, drawn from ``seed``; configs are written to disk."""
        rng = np.random.default_rng(seed)
        return [self.make_round(rng, i) for i in range(rounds)]

    def variants(self):
        """One op per menu entry, for writing reference.json."""
        raise NotImplementedError

    def warmup(self):
        """Cheap unchecked in-process ops run once before timing, so lazy set-up is not timed."""
        raise NotImplementedError


class CliReadme(Workload):
    """The four README commands, each in a fresh interpreter."""

    name = "cli_readme"
    in_process = False

    BOWL = {"surface": {"kind": "bowl", "n": 2, "r": 1, "R_max": 60.0, "tol": 1e-10}, "seed": 3}
    OY = {
        "surface": {"kind": "sphere", "n": 2},
        "field": {"kind": "height", "W": [0.0, 0.0, 1.0]},
        "gamma": {"kind": "dist_sq", "origin": [0.0, 0.0, -2.0]},
        "G": {"kind": "iterated_log", "levels": 1}, "mesh": 21, "k_max": 6,
    }

    @staticmethod
    def cone(a):
        return {
            "surface": {"kind": "grim_reaper", "n": 2, "t_halfwidth": 12.0},
            "region": {"kind": "cone", "V": [0.0, 0.0, 1.0], "a": a},
            "theorem": "cone", "r": 1, "V": [0.0, 0.0, 1.0], "a": a, "mesh": [41, 9],
        }

    def _config(self, name, payload):
        path = os.path.join(self._dir("configs"), name)
        _write_json(path, payload)
        return path

    def _ops(self, tag, identity_seed, a):
        tc_out, oy_out = self._dir("ops", "theorem-check"), self._dir("ops", "oy-run")
        cone = self._config(f"{tag}-cone.json", self.cone(a))
        return [
            VerifyIdentitiesOp(identity_seed, self._config("bowl.json", self.BOWL),
                               self._dir("ops", "verify-identities"), self.root),
            TheoremCheckOp(f"cone-a{a}", ["theorem-check", "--config", cone, "--out", tc_out],
                           tc_out, self.root),
            ProfileCommandOp(self._dir("ops", "profile"), self.root),
            OyRunOp("oy-run", ["oy-run", "--config", self._config("oy.json", self.OY),
                               "--out", oy_out], oy_out, self.root),
        ]

    def make_round(self, rng, i):
        return self._ops(f"round{i}", int(rng.choice(CLI_IDENTITY_SEEDS)),
                         float(rng.choice(CLI_CONE_A)))

    def warmup(self):
        return self._ops("warmup", CLI_IDENTITY_SEEDS[0], CLI_CONE_A[0])

    def variants(self):
        ops = self._ops("ref", CLI_IDENTITY_SEEDS[0], CLI_CONE_A[0])
        ops += [self._ops(f"ref{i}", CLI_IDENTITY_SEEDS[0], a)[1]
                for i, a in enumerate(CLI_CONE_A[1:])]
        # every identity seed must pass; the reference ids do not depend on it
        return ops + [self._ops("ref", s, CLI_CONE_A[0])[0] for s in CLI_IDENTITY_SEEDS[1:]]


class MeshTheorems(Workload):
    """theorem-check through rmcf.cli.main on the (n, r) = (3, 2) bowl."""

    name = "mesh_theorems"

    @staticmethod
    def bihalfspace(a):
        b = math.sqrt(1.0 - a * a)
        return {
            "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 40.0, "tol": 1e-9},
            "region": {
                "kind": "bihalfspace",
                "halfspaces": [{"W": [a, b, 0.0, 0.0]}, {"W": [a, -b, 0.0, 0.0]}],
                "vertical_to": V4,
            },
            "theorem": "bihalfspace", "r": 2, "V": V4, "R": 2.0,
        }

    @staticmethod
    def cone(a):
        return {
            "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 1e3, "tol": 1e-9},
            "region": {"kind": "cone", "V": V4, "a": a},
            "theorem": "cone", "r": 2, "V": V4, "a": a,
        }

    @staticmethod
    def halfspace(W):
        return {
            "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 1e3, "tol": 1e-9},
            "region": {"kind": "halfspace", "W": list(W)},
            "theorem": "halfspace", "r": 2, "V": V4,
        }

    def _op(self, tag, key, config):
        path = os.path.join(self._dir("configs"), f"{tag}-{key}.json")
        _write_json(path, config)
        out = self._dir("ops", key.split("-")[0])
        return TheoremCheckOp(key, ["theorem-check", "--config", path, "--out", out], out,
                              self.root)

    def _round(self, tag, wedge_a, cone_a, w_index):
        return [
            self._op(tag, f"bihalfspace-a{wedge_a}", self.bihalfspace(wedge_a)),
            self._op(tag, f"cone-a{cone_a}", self.cone(cone_a)),
            self._op(tag, f"halfspace-W{w_index}", self.halfspace(MESH_HALFSPACE_W[w_index])),
        ]

    def make_round(self, rng, i):
        return self._round(f"round{i}", float(rng.choice(MESH_WEDGE_A)),
                           float(rng.choice(MESH_CONE_A)),
                           int(rng.integers(len(MESH_HALFSPACE_W))))

    def variants(self):
        return [op for i in range(4) for op in self._round(
            "ref", MESH_WEDGE_A[i], MESH_CONE_A[i], i)]

    def warmup(self):
        ops = self._round("warmup", MESH_WEDGE_A[0], MESH_CONE_A[0], 0)
        for op in ops:
            op.argv += ["--mesh", "4"]
        return ops


class ProfileSweep(Workload):
    """Rotational profiles solved, exported and loaded back, in a seeded order."""

    name = "profile_sweep"

    def _op(self, spec):
        n, r, R_max = spec
        return ProfileSweepOp(n, r, R_max, self._dir("ops", f"n{n}-r{r}"))

    def make_round(self, rng, i):
        return [self._op(SWEEP[j]) for j in rng.permutation(len(SWEEP))]

    def variants(self):
        return [self._op(spec) for spec in SWEEP]

    def warmup(self):
        return [ProfileSweepOp(2, 1, 30.0, self._dir("warmup")),
                ProfileSweepOp(2, 2, 1.3, self._dir("warmup"))]


WORKLOADS = {w.name: w for w in (CliReadme, MeshTheorems, ProfileSweep)}
