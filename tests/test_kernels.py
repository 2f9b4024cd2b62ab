"""The numpy batch kernels against row-loop reference oracles, and the lazy imports."""

import itertools
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


def test_cli_import_leaves_heavy_modules_unloaded():
    heavy = ("numba", "scipy.integrate", "jsonschema")
    code = (
        "import sys, rmcf.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
