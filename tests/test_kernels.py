"""The numpy batch kernels against row-loop reference oracles, and the lazy imports."""

import itertools
import json
import os
import subprocess
import sys

import numpy as np

from rmcf import kernels


def _sigma_table_loops(k):
    # incremental recurrence, one curvature at a time, descending j
    m, n = k.shape
    e = np.zeros((m, n + 1))
    for p in range(m):
        e[p, 0] = 1.0
        for i in range(n):
            ki = k[p, i]
            for j in range(i + 1, 0, -1):
                e[p, j] += ki * e[p, j - 1]
    return e


def _complement_sigma_loops(k, r):
    m, n = k.shape
    out = np.empty((m, n))
    e = np.zeros(r + 1)
    for p in range(m):
        for i in range(n):
            for j in range(r + 1):
                e[j] = 0.0
            e[0] = 1.0
            for q in range(n):
                if q == i:
                    continue
                kq = k[p, q]
                top = r
                for j in range(top, 0, -1):
                    e[j] += kq * e[j - 1]
            out[p, i] = e[r]
    return out


def test_numpy_and_loop_paths_agree():
    rng = np.random.default_rng(3)
    k = rng.uniform(-2, 2, size=(64, 7))
    a = kernels.sigma_table(k)
    b = _sigma_table_loops(k)
    assert np.max(np.abs(a - b)) == 0.0


def test_complement_paths_agree():
    rng = np.random.default_rng(4)
    k = rng.uniform(-2, 2, size=(32, 6))
    for r in range(1, 6):
        a = kernels.complement_sigma(k, r)
        b = _complement_sigma_loops(k, r)
        assert np.max(np.abs(a - b)) < 1e-14


def test_sigma_table_oracle():
    k = np.array([[1.0, 2.0, 3.0], [0.5, -0.5, 2.0]])
    out = kernels.sigma_table(k)
    for row, kk in zip(out, k):
        for r in range(4):
            want = sum(np.prod(c) for c in itertools.combinations(kk, r)) if r else 1.0
            assert row[r] == np.float64(want) or abs(row[r] - want) < 1e-14


def test_complement_trivial_orders():
    k = np.array([[1.0, 2.0, 3.0]])
    assert np.all(kernels.complement_sigma(k, 0) == 1.0)
    assert np.all(kernels.complement_sigma(k, 3) == 0.0)
    assert np.allclose(kernels.complement_sigma(k, 2), [[6.0, 3.0, 2.0]])


_COMMAND_CONFIGS = {
    # the README identity battery on the (2, 1) bowl: a profile solve
    "bowl.json": {
        "surface": {"kind": "bowl", "n": 2, "r": 1, "R_max": 60.0, "tol": 1e-10}, "seed": 3,
    },
    # a Grim Reaper cone check (a README command)
    "grim-reaper.json": {
        "surface": {"kind": "grim_reaper", "n": 2, "t_halfwidth": 12.0},
        "region": {"kind": "cone", "V": [0.0, 0.0, 1.0], "a": 0.3},
        "theorem": "cone", "r": 1, "V": [0.0, 0.0, 1.0], "a": 0.3, "mesh": [41, 9],
    },
    # no intrinsic_distance: HS2-2 integrates segment arclengths by Simpson's rule
    "paraboloid.json": {
        "surface": {"kind": "paraboloid", "n": 2, "halfwidth": 10.0},
        "region": {"kind": "cone", "V": [0.0, 0.0, 1.0], "a": 0.3},
        "theorem": "cone", "r": 1, "V": [0.0, 0.0, 1.0], "a": 0.3,
        "asserted": "bounded-sigma", "mesh": 7,
    },
    # the README oy-run
    "sphere.json": {
        "surface": {"kind": "sphere", "n": 2},
        "field": {"kind": "height", "W": [0.0, 0.0, 1.0]},
        "gamma": {"kind": "dist_sq", "origin": [0.0, 0.0, -2.0]},
        "G": {"kind": "iterated_log", "levels": 1}, "mesh": 21, "k_max": 6,
    },
}


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path):
    # importing rmcf.cli loads none of them, and neither do the commands above
    # and the README profile: a profile solve loads only its compiled LSODA,
    # not the scipy.integrate package (about 0.7 s per process), configs
    # are read by rmcf's own key tables, not by jsonschema, and no
    # plain np.unique call makes numpy import numpy.ma (13-18 ms)
    heavy = ("numba", "scipy.integrate", "jsonschema", "numpy.ma")
    for name, config in _COMMAND_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    commands = [["theorem-check", "--config", "grim-reaper.json"],
                ["theorem-check", "--config", "paraboloid.json"],
                ["oy-run", "--config", "sphere.json"],
                ["verify-identities", "--config", "bowl.json"],
                ["profile", "--n", "2", "--r", "1", "--rmax", "100", "--tol", "1e-10"]]
    code = (
        "import sys, contextlib, io, rmcf.cli\n"
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))\n"
        f"for i, argv in enumerate({commands!r}):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rmcf.cli.main(argv + ['--out', f'out{i}']) == 0, argv\n"
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", ""]
