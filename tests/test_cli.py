"""CLI contract tests: exit codes, report determinism, file formats."""

import collections
import contextlib
import copy
import dataclasses
import io
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmcf.cli
import rmcf.errors
import rmcf.maxprinciple
import rmcf.regions
import rmcf.registry
import rmcf.translators
from rmcf.charts import MeshGeometry, cone_excess
from rmcf.cli import main
from rmcf.registry import build_chart, build_region
from rmcf.translators import load_profile


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BOWL_SURFACE = {"kind": "bowl", "n": 2, "r": 1, "R_max": 60.0, "tol": 1e-10}
RBOWL_1E3 = {"kind": "bowl", "n": 3, "r": 2, "R_max": 1e3, "tol": 1e-9}
V4 = [0.0, 0.0, 0.0, 1.0]
CONE_1E3 = {"surface": RBOWL_1E3, "region": {"kind": "cone", "V": V4, "a": 0.3},
            "theorem": "cone", "r": 2, "V": V4, "a": 0.3}
HALFSPACE_1E3 = {"surface": RBOWL_1E3, "region": {"kind": "halfspace", "W": [0.6, 0.0, 0.0, 0.8]},
                 "theorem": "halfspace", "r": 2, "V": V4}
BIHALFSPACE_40 = {
    "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 40.0, "tol": 1e-9},
    "region": {"kind": "bihalfspace", "vertical_to": V4,
               "halfspaces": [{"W": [0.6, 0.8, 0.0, 0.0]}, {"W": [0.6, -0.8, 0.0, 0.0]}]},
    "theorem": "bihalfspace", "r": 2, "V": V4, "R": 2.0, "mesh": 9}
# the key tables of the kinded config objects, by config entry
OBJECT_TABLES = {"surface": rmcf.registry._SURFACE_KEYS, "region": rmcf.registry._REGION_KEYS,
                 "field": rmcf.registry._FIELD_KEYS, "gamma": rmcf.registry._FIELD_KEYS,
                 "G": rmcf.registry._G_KEYS}
PREMISE_FUNCTIONS = ("first_exit", "growth_report", "min_eigen_over_mesh",
                     "_translator_residual_sup")


def count_premise_calls(monkeypatch):
    """Counts of each premise computation, wrapped at every rmcf name that holds it."""
    counts = collections.Counter()
    for name in PREMISE_FUNCTIONS:
        fn = getattr(rmcf.regions, name, None) or getattr(rmcf.maxprinciple, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in (rmcf.cli, rmcf.maxprinciple, rmcf.regions):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return counts


def theorem_check(tmp_path, config, code=0):
    """The results of one theorem-check run, after checking its exit code."""
    cfg = write_config(tmp_path, config)
    assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == code
    return json.loads((tmp_path / "report.json").read_text())["results"]


class TestVerifyIdentities:
    def test_bowl_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"surface": BOWL_SURFACE, "seed": 1})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["version"]
        assert report["config_hash"]
        assert report["results"]["failing"] == []

    def test_corrupted_derivatives_fail_fd_consistency(self, tmp_path, monkeypatch):
        # the chart's first derivatives scaled by 1 + 1e-3, positions untouched
        def biased_chart(spec):
            chart = build_chart(spec)

            def jet(U):
                X, dX, d2X = chart.jet(U)
                return X, dX * (1.0 + 1e-3), d2X

            return dataclasses.replace(chart, jet=jet)

        monkeypatch.setattr(rmcf.registry, "build_chart", biased_chart)
        cfg = write_config(tmp_path, {"surface": {"kind": "paraboloid", "n": 2}})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert "fd-consistency" in report["results"]["failing"]

    @pytest.mark.parametrize("center", [[0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    def test_sphere_center_of_wrong_length(self, tmp_path, capsys, center):
        cfg = write_config(tmp_path, {"surface": {"kind": "sphere", "n": 2, "center": center}})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "sphere center must have n + 1 = 3 coordinates" in capsys.readouterr().err

    def test_bowl_dimension_defaults_to_two(self, tmp_path):
        # n is optional in the schema; like every other kind, the bowl defaults it to 2
        cfg = write_config(tmp_path, {"surface": {"kind": "bowl", "r": 1}})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["results"]["surface"] == "bowl-n2"

    @pytest.mark.parametrize("surface, key", [
        ({"kind": "sphere", "n": 2, "tol": 1e-9}, "'surface.tol'"),
        ({"kind": "sphere", "n": 2, "R_max": 5.0, "r": 1}, "'surface.R_max', 'surface.r'"),
        ({"kind": "bowl", "n": 2, "r": 1, "radius": 2.0}, "'surface.radius'"),
    ])
    def test_surface_key_its_kind_does_not_read(self, tmp_path, capsys, monkeypatch, surface, key):
        # the schema allows every surface key on every kind; the kind's builder
        # names the ones it does not read, before any profile solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a profile was solved for a rejected surface")

        monkeypatch.setattr(rmcf.translators, "solve_rotational_translator", no_solve)
        cfg = write_config(tmp_path, {"surface": surface})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err, err

    def test_oscillating_halfwidth_is_read(self):
        chart = build_chart({"kind": "oscillating", "halfwidth": 5.0})
        assert chart.param_domain.tolist() == [[2.0, 12.0], [-5.0, 5.0]]

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify-identities", "--config", str(bad)]) == 2

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"surface": BOWL_SURFACE, "bogus": 1})
        assert main(["verify-identities", "--config", cfg]) == 2

    def test_unknown_surface_field_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, {"surface": {"kind": "bowl", "n": 2, "r": 1, "shape": "x"}}
        )
        assert main(["verify-identities", "--config", cfg]) == 2

    def test_derivative_bias_is_not_a_surface_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"surface": {"kind": "paraboloid", "derivative_bias": 1e-3}})
        assert main(["verify-identities", "--config", cfg]) == 2
        assert "does not read 'surface.derivative_bias'" in capsys.readouterr().err

    def test_byte_deterministic_reports(self, tmp_path):
        cfg = write_config(tmp_path, {"surface": {"kind": "paraboloid", "n": 2}, "seed": 5})
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["verify-identities", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["verify-identities", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestTheoremCheck:
    def test_grim_reaper_vs_cone(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surface": {"kind": "grim_reaper", "n": 2, "t_halfwidth": 12.0},
                "region": {"kind": "cone", "V": [0.0, 0.0, 1.0], "a": 0.3},
                "theorem": "cone",
                "r": 1,
                "V": [0.0, 0.0, 1.0],
                "a": 0.3,
                "mesh": [41, 9],
            },
        )
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["consistent"] is True
        assert report["results"]["first_exit"]["found"] is True
        growth = [
            p for p in report["results"]["gate"]["premises"] if p["id"].startswith("growth")
        ]
        assert growth and all(p["empirical"] for p in growth)

    def test_bowl_vs_halfspace(self, tmp_path):
        w = [0.6, 0.0, 0.8]
        cfg = write_config(
            tmp_path,
            {
                "surface": BOWL_SURFACE,
                "region": {"kind": "halfspace", "W": w},
                "theorem": "halfspace",
                "r": 1,
                "V": [0.0, 0.0, 1.0],
                "mesh": [25, 13],
            },
        )
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_rbowl_vs_bihalfspace(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 40.0, "tol": 1e-9},
                "region": {
                    "kind": "bihalfspace",
                    "halfspaces": [
                        {"W": [0.6, 0.8, 0.0, 0.0]},
                        {"W": [0.6, -0.8, 0.0, 0.0]},
                    ],
                    "vertical_to": [0.0, 0.0, 0.0, 1.0],
                },
                "theorem": "bihalfspace",
                "r": 2,
                "V": [0.0, 0.0, 0.0, 1.0],
                "R": 2.0,
                "mesh": [13, 7, 9],
            },
        )
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["consistent"] is True

    @pytest.mark.parametrize("order", [1, -1])
    def test_bihalfspace_eps_is_the_gates(self, tmp_path, monkeypatch, order):
        # eps defaults to the gate's smallest P_{r-1} eigenvalue. The drive
        # runs on the mesh the gate read, in the wedge coordinates of the
        # pair, so whether the frame (e1, e2, V), completed by the third axis,
        # turns or reflects, the mesh's own eigenvalue is the same float and the
        # report bytes are those of the drive given that eps
        config = copy.deepcopy(BIHALFSPACE_40)
        config["region"]["halfspaces"] = config["region"]["halfspaces"][::order]
        Q = rmcf.regions.normalize_bihalfspace(build_region(config["region"], 4), np.array(V4))[0]
        assert np.linalg.det(np.insert(Q, 2, np.eye(4)[2], axis=0)) == pytest.approx(order)
        drive = rmcf.cli.bihalfspace_drive
        seen = []

        def spied(mesh, region, V, R, r, eps):
            seen.append((eps, max(rmcf.regions.min_eigen_over_mesh(mesh, r), 0.0)))
            return drive(mesh, region, V, R, r, eps)

        def mesh_eps(mesh, region, V, R, r, eps):
            own = max(rmcf.regions.min_eigen_over_mesh(mesh, r), 0.0)
            return drive(mesh, region, V, R, r, own)

        reports = []
        for name, wrapper in (("gate", spied), ("mesh", mesh_eps)):
            monkeypatch.setattr(rmcf.cli, "bihalfspace_drive", wrapper)
            (tmp_path / name).mkdir()
            theorem_check(tmp_path / name, config)
            reports.append((tmp_path / name / "report.json").read_bytes())
        [(eps, own)] = seen
        assert eps == own > 0.0
        assert reports[0] == reports[1]

    def test_cone_field_gradients_evaluated_on_stacks(self, tmp_path, monkeypatch):
        # the (3, 2) bowl at R_max 1e3 on the default 13^3 mesh: the drive's
        # identity check and maximizer run each evaluate psi's ambient
        # gradient on the whole masked mesh at once
        shapes = []

        def counted_cone_excess(*args, **kwargs):
            f = cone_excess(*args, **kwargs)
            grad = f.grad_at

            def grad_at(X):
                shapes.append(np.shape(X))
                return grad(X)

            f.grad_at = grad_at
            return f

        monkeypatch.setattr(rmcf.maxprinciple, "cone_excess", counted_cone_excess)
        V = [0.0, 0.0, 0.0, 1.0]
        cfg = write_config(tmp_path, {
            "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 1e3, "tol": 1e-9},
            "region": {"kind": "cone", "V": V, "a": 0.3},
            "theorem": "cone", "r": 2, "V": V, "a": 0.3,
        })
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        # one masked slice, whose frame gradient and Hessian of psi are cached
        assert len(shapes) == 2
        assert all(len(s) == 2 and s[0] > 13**3 // 2 and s[1] == 4 for s in shapes), shapes

    def test_cone_check_computes_each_hessian_once(self, tmp_path, monkeypatch):
        # the identity check and the maximizer run share one masked slice, and
        # that slice computes the Hessian of psi and of |X|^2 once each
        calls = []
        hessian = MeshGeometry._hessian

        def counted(mg, f):
            calls.append((mg, f))
            return hessian(mg, f)

        monkeypatch.setattr(MeshGeometry, "_hessian", counted)
        V = [0.0, 0.0, 0.0, 1.0]
        cfg = write_config(tmp_path, {
            "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 1e3, "tol": 1e-9},
            "region": {"kind": "cone", "V": V, "a": 0.3},
            "theorem": "cone", "r": 2, "V": V, "a": 0.3,
        })
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == 2, calls
        (mg, psi), (same_mg, gamma) = calls
        assert same_mg is mg and len(mg) > 13**3 // 2
        assert gamma is not psi

    @pytest.mark.parametrize("W", [(0.6, 0.0, 0.0, 0.8), (0.0, 0.6, 0.0, 0.8),
                                   (0.48, 0.36, 0.0, 0.8), (0.8, 0.0, 0.0, 0.6)])
    def test_halfspace_height_identity_at_round_off(self, tmp_path, W):
        # L_1 <X, W> = 2 sigma_2 <N, W> on the (3, 2) bowl at R_max 1e3: the
        # Gauss formula meets it at round-off (about 4e-16 scaled); a Hessian
        # through Christoffel symbols solved against g lost about two digits
        V = [0.0, 0.0, 0.0, 1.0]
        cfg = write_config(tmp_path, {
            "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 1e3, "tol": 1e-9},
            "region": {"kind": "halfspace", "W": list(W)},
            "theorem": "halfspace", "r": 2, "V": V,
        })
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        drive = json.loads((tmp_path / "report.json").read_text())["results"]["drive"]
        assert drive["L_identity_err"] < 2e-15, drive["L_identity_err"]

    @pytest.mark.parametrize("config, growth_reports", [
        (CONE_1E3, 1),
        (HALFSPACE_1E3, 1),
        # the bounded-sigma gate reads HS2-2; the cone drive still reads HS2-1
        (dict(CONE_1E3, asserted="bounded-sigma"), 2),
        # the bi-half-space drive's default eps is the gate's P_{r-1} eigenvalue
        (BIHALFSPACE_40, 1),
    ])
    def test_premises_computed_once(self, tmp_path, monkeypatch, config, growth_reports):
        # the drive and the first_exit entry read the gate's results
        counts = count_premise_calls(monkeypatch)
        theorem_check(tmp_path, config)
        want = dict.fromkeys(PREMISE_FUNCTIONS, 1)
        want["growth_report"] = growth_reports
        assert counts == want

    def test_halfspace_drive_reads_the_region_base_point(self, tmp_path):
        # every mesh point lies below the plane x_3 = 2000: contained, so the
        # gate finds every premise passing and the check is inconsistent
        config = {
            "surface": {"kind": "bowl", "n": 2, "r": 1, "R_max": 40.0},
            "region": {"kind": "halfspace", "B": [0.0, 0.0, 2000.0], "W": [0.0, 0.0, 1.0]},
            "theorem": "halfspace", "r": 1, "V": [0.0, 0.0, 1.0], "mesh": 9,
        }
        res = theorem_check(tmp_path, config, code=1)
        drive = res["drive"]
        assert res["gate"]["contained"] is True and drive["containment_holds"] is True
        assert drive["exit_margin"] == res["first_exit"]["margin"] < 0.0
        assert drive["failed_premises"] == []
        # the drive's gate facts repeat the gate's report exactly, here and for
        # the README cone, whose gate reads the growth report its drive reads
        (tmp_path / "cone").mkdir()
        runs = [(config, res), (README_CONE, theorem_check(tmp_path / "cone", README_CONE))]
        for config, res in runs:
            drive, gate = res["drive"], res["gate"]
            premise = {p["id"]: p for p in gate["premises"]}
            growth = drive["growth"]
            assert (drive["kind"], drive["r"]) == (gate["theorem"], config["r"])
            assert drive["residual_sup"] == premise["translator-residual"]["value"]
            assert drive["min_eigen_P"] == premise["newton-psd"]["value"]
            assert drive["containment_holds"] == gate["contained"]
            assert drive["exit_margin"] == res["first_exit"]["margin"]
            grows = premise[rmcf.maxprinciple._GROWTH_PREMISE[growth["hypothesis"]]]
            assert (grows["value"], grows["threshold"], grows["pass"], grows["conclusive"]) == (
                growth["tail_estimate"], growth["bound"], growth["satisfied"], growth["conclusive"])

    @pytest.mark.parametrize("config, key", [(CONE_1E3, "residual_tol"),
                                             (HALFSPACE_1E3, "growth_bound")],
                             ids=["residual_tol", "growth_bound"])
    def test_gate_tolerance_is_not_a_config_key(self, tmp_path, capsys, config, key):
        # the gate's residual tolerance 1e-6 and growth bound 1.0 are constants
        cfg = write_config(tmp_path, dict(config, **{key: 0.5}))
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "does not read" in err and f"'{key}'" in err, err

    def test_drive_reads_the_growth_bound(self, tmp_path):
        res = theorem_check(tmp_path, HALFSPACE_1E3)
        gate = {p["id"]: p for p in res["gate"]["premises"]}
        assert res["drive"]["growth"]["bound"] == gate["growth-sigma-quadlog"]["threshold"] == 1.0

    def test_empty_pocket_report_is_strict_json(self, tmp_path):
        # the pair turned -1.0 rad about V, base points off the origin: no mesh
        # point lies in the pocket, and the report must still be RFC 8259 JSON
        c, s = math.cos(-1.0), math.sin(-1.0)
        halves = [{"W": [0.6 * c - 0.8 * s, 0.6 * s + 0.8 * c, 0.0, 0.0], "B": [0.3, -0.2, 0.0, 1.0]},
                  {"W": [0.6 * c + 0.8 * s, 0.6 * s - 0.8 * c, 0.0, 0.0], "B": [-0.1, 0.4, 0.5, 0.0]}]
        config = dict(BIHALFSPACE_40, surface=RBOWL_1E3, eps=0.01, mesh=7,
                      region={"kind": "bihalfspace", "halfspaces": halves, "vertical_to": V4})
        theorem_check(tmp_path, config)

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        with open(tmp_path / "report.json") as fh:
            drive = json.load(fh, parse_constant=no_constant)["results"]["drive"]
        assert drive["empty"] and drive["n_points"] == 0
        assert drive["min_slack"] is None

    def test_missing_region(self, tmp_path):
        cfg = write_config(tmp_path, {"surface": BOWL_SURFACE, "theorem": "cone"})
        assert main(["theorem-check", "--config", cfg]) == 2

    _V = [0.0, 0.0, 1.0]
    _HALF = {"kind": "halfspace", "W": [0.6, 0.0, 0.8]}
    _BI = {"kind": "bihalfspace", "vertical_to": _V,
           "halfspaces": [{"W": [0.6, 0.8, 0.0]}, {"W": [0.6, -0.8, 0.0]}]}

    @pytest.mark.parametrize("field, change", [
        ("'V'", {"V": [0.0, 1.0]}),
        ("'region.V'", {"region": {"kind": "cone", "V": [0.0, 0.0, 0.0, 1.0], "a": 0.3}}),
        ("'region.a'", {"region": {"kind": "cone", "V": _V}}),
        ("'a'", {"a": None}),
        ("'r'", {"r": 3}),
        ("'region.kind'", {"a": None, "theorem": "halfspace"}),
        ("'region.W'", {"a": None, "theorem": "halfspace", "region": dict(_HALF, W=[0.6, 0.8])}),
        ("'region.B'", {"a": None, "theorem": "halfspace", "region": dict(_HALF, B=[0.0, 0.0])}),
        ("'region.vertical_to'",
         {"a": None, "theorem": "bihalfspace", "region": dict(_BI, vertical_to=[0.0, 1.0])}),
        ("'region.halfspaces[1].W'", {"a": None, "theorem": "bihalfspace", "region": dict(
            _BI, halfspaces=[{"W": [0.6, 0.8, 0.0]}, {"W": [0.6, -0.8]}])}),
        ("'region.a'", {"region": {"kind": "cone", "V": _V, "a": 0.9}}),
        ("'region.V'", {"region": {"kind": "cone", "V": [0.0, 0.6, 0.8], "a": 0.3}}),
        ("'V'", {"V": [0.0, 0.0, 2.0], "region": {"kind": "cone", "V": [0.0, 0.0, 2.0], "a": 0.3}}),
        ("'V'", {"a": None, "theorem": "halfspace", "region": _HALF, "V": [0.0, 0.0, 0.5]}),
        ("'region.W'",
         {"a": None, "theorem": "halfspace", "region": dict(_HALF, W=[1.2, 0.0, 1.6])}),
        ("'region.W'",
         {"a": None, "theorem": "halfspace", "region": dict(_HALF, W=[1.0, 0.0, 0.0])}),
        ("'region.W'",
         {"a": None, "theorem": "halfspace", "region": dict(_HALF, W=[0.6, 0.0, -0.8])}),
        ("'a'", {"a": 1.5, "region": {"kind": "cone", "V": _V, "a": 1.5}}),
        ("'a'", {"a": 0.0, "region": {"kind": "cone", "V": _V, "a": 0.0}}),
        ("'R'", {"a": None, "theorem": "bihalfspace", "region": _BI, "R": 0.0}),
        ("'R'", {"a": None, "theorem": "bihalfspace", "region": _BI, "R": -2.0}),
        ("'region.vertical_to'",
         {"a": None, "theorem": "bihalfspace", "region": dict(_BI, vertical_to=[0.0, 1.0, 0.0])}),
    ])
    def test_config_rejected_before_mesh_work(self, tmp_path, capsys, monkeypatch, field, change):
        # each passes the schema; each must exit 2 naming its field, before any mesh is built
        # ("a": None drops the cone's a from a half-space or bi-half-space config)
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built for a rejected config")

        monkeypatch.setattr(rmcf.cli.Mesh, "grid", no_mesh)
        config = {"surface": {"kind": "paraboloid", "n": 2, "halfwidth": 10.0},
                  "region": {"kind": "cone", "V": self._V, "a": 0.3},
                  "theorem": "cone", "r": 1, "V": self._V, "a": 0.3, "mesh": 5}
        for key, value in change.items():
            if value is None:
                del config[key]
            else:
                config[key] = value
        cfg = write_config(tmp_path, config)
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err, err

    def test_non_vertical_pair_rejected_by_the_gate_head(self, tmp_path, capsys, monkeypatch):
        # W_1 is not orthogonal to V: the gate says so before any geometry
        def no_geometry(self):
            raise AssertionError("geometry was built for a rejected pair")

        monkeypatch.setattr(rmcf.cli.Mesh, "geometry", no_geometry)
        region = dict(BIHALFSPACE_40["region"], halfspaces=[{"W": [0.6, 0.0, 0.0, 0.8]},
                                                            {"W": [0.6, -0.8, 0.0, 0.0]}])
        region.pop("vertical_to")
        cfg = write_config(tmp_path, dict(BIHALFSPACE_40, region=region))
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "orthogonal to V" in capsys.readouterr().err

    def test_vertical_to_of_either_sign(self, tmp_path):
        flipped = dict(BIHALFSPACE_40, mesh=5,
                       region=dict(BIHALFSPACE_40["region"], vertical_to=[0.0, 0.0, 0.0, -1.0]))
        runs = []
        for name, config in (("flipped", flipped), ("same", dict(BIHALFSPACE_40, mesh=5))):
            (tmp_path / name).mkdir()
            runs.append(theorem_check(tmp_path / name, config))
        assert runs[0] == runs[1]

    def test_pair_within_the_vertical_tolerance_runs(self, tmp_path):
        # <W_i, V> = 5e-11 passes the 1e-10 vertical check, which leaves the
        # wedge axis e1 = (W_1 + W_2)/|W_1 + W_2| 5e-8 off V; the frame
        # (e1, e2, V) still takes W_i to (a, +-b, <W_i, V>), and the check runs
        # to a report (a basis completion used to refuse the pair after the gate)
        t = 1e-3
        halves = [{"W": [math.cos(t), math.sin(t), 0.0, 5e-11]},
                  {"W": [-math.cos(t), math.sin(t), 0.0, 5e-11]}]
        config = dict(BIHALFSPACE_40, region={"kind": "bihalfspace", "halfspaces": halves})
        pair, V = build_region(config["region"], 4), np.array(V4)
        assert np.array_equal(rmcf.regions.check_vertical(pair, V), V)
        Q, _, a, b = rmcf.regions.normalize_bihalfspace(pair, V)
        assert abs(Q[0] @ V) > 1e-8
        for W, sign in ((pair.first.W, 1.0), (pair.second.W, -1.0)):
            assert Q @ W == pytest.approx([a, sign * b, 5e-11], rel=0.0, abs=1e-15)
        cfg = write_config(tmp_path, config)
        assert main(["theorem-check", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
        res = json.loads((tmp_path / "report.json").read_text())["results"]
        assert res["drive"]["a"] == pytest.approx(math.sin(t), rel=1e-12)


class TestProfile:
    def test_export_and_roundtrip(self, tmp_path):
        assert (
            main(
                [
                    "profile", "--n", "2", "--r", "1",
                    "--rmax", "50.0", "--tol", "1e-10",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        prof = load_profile(tmp_path / "profile.csv", tmp_path / "profile.json")
        assert prof.n == 2 and prof.r == 1
        assert prof.grid[0] == 0.0
        header = json.loads((tmp_path / "profile.json").read_text())
        assert header["integrator"]["method"] == "LSODA"
        # bit-exactness of the text round trip
        first_line = (tmp_path / "profile.csv").read_text().splitlines()[2]
        vals = [float(tok) for tok in first_line.split(",")]
        assert vals[0] == prof.grid[1]
        assert vals[1] == prof.u[1]

    def test_curve_profile_matches_closed_form(self, tmp_path):
        assert (
            main(
                [
                    "profile", "--n", "1", "--r", "1",
                    "--rmax", "1.4", "--tol", "1e-11",
                    "--out", str(tmp_path),
                ]
            )
            == 0
        )
        prof = load_profile(tmp_path / "profile.csv", tmp_path / "profile.json")
        diff = np.abs(prof.u + np.log(np.cos(prof.grid)))
        assert diff.max() < 1e-8

    def test_rn_bowl_past_its_domain(self, tmp_path, capsys):
        code = main(
            [
                "profile", "--n", "2", "--r", "2",
                "--rmax", "2", "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "R_* = 1.414214" in capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()

    def test_tol_out_of_range(self, tmp_path):
        assert (
            main(
                [
                    "profile", "--n", "2", "--r", "1",
                    "--rmax", "50.0", "--tol", "1e-5",
                    "--out", str(tmp_path),
                ]
            )
            == 2
        )
        assert (
            main(
                [
                    "profile", "--n", "2", "--r", "1",
                    "--rmax", "50.0", "--tol", "1e-13",
                    "--out", str(tmp_path),
                ]
            )
            == 2
        )


class TestOyRun:
    def test_sphere_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surface": {"kind": "sphere", "n": 2},
                "field": {"kind": "height", "W": [0.0, 0.0, 1.0]},
                "gamma": {"kind": "dist_sq", "origin": [0.0, 0.0, -2.0]},
                "G": {"kind": "iterated_log", "levels": 1},
                "mesh": 21,
                "k_max": 5,
            },
        )
        assert main(["oy-run", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oyrun.json").read_text())
        res = report["results"]
        assert res["boundary_dominated"] is False
        assert len(res["k"]) == 5
        assert all(res["pass"])

    def test_field_required(self, tmp_path):
        cfg = write_config(tmp_path, {"surface": {"kind": "sphere", "n": 2}})
        assert main(["oy-run", "--config", cfg]) == 2

    @pytest.mark.parametrize("change, message", [
        # P_2 = 0 on the 2-sphere: r = 3 used to report every L value as 0
        ({"r": 3}, "config error: 'r' must satisfy 1 <= r <= n = 2 (got r=3)"),
        ({"field": {"kind": "height"}}, "config error: a height field needs 'field.W'"),
        ({"field": {"kind": "cone_excess", "V": [0.0, 0.0, 1.0]}},
         "config error: a cone_excess field needs 'field.a'"),
        ({"field": {"kind": "height", "W": [0.0, 1.0]}},
         "config error: 'field.W' needs n + 1 = 3 coordinates for this surface (got 2)"),
        ({"field": {"kind": "cone_excess", "V": [0.0, 0.0, 0.0, 1.0], "a": 0.3}},
         "config error: 'field.V' needs n + 1 = 3 coordinates for this surface (got 4)"),
        ({"gamma": {"kind": "dist_sq", "origin": [0.0, 1.0]}},
         "config error: 'gamma.origin' needs n + 1 = 3 coordinates for this surface (got 2)"),
        ({"field": {"kind": "cone_excess", "V": [0.0, 0.0, 1.0], "a": "x"}},
         "config error: 'field.a' must be a number (got 'x')"),
        ({"gamma": {"kind": "dist_sq", "origin": [0.0, "x", 1.0]}},
         "config error: 'gamma.origin' must be an array of at least 2 numbers "
         "(got [0.0, 'x', 1.0])"),
        ({"G": {"kind": "iterated_log", "levels": "x"}},
         "config error: 'G.levels' must be an integer (got 'x')"),
        ({"G": {"kind": "constant", "value": "x"}},
         "config error: 'G.value' must be a number (got 'x')"),
        ({"G": {"kind": "iterated_log", "levles": 3}},
         "config error: a iterated_log G does not read 'G.levles'"),
        ({"field": {"kind": "height", "W": [0.0, 0.0, 1.0], "bogus": 1}},
         "config error: a height field does not read 'field.bogus'"),
        ({"gamma": {"kind": "dist_sq", "bogus": 1}},
         "config error: a dist_sq gamma does not read 'gamma.bogus'"),
        ({"field": {"kind": "heigth", "W": [0.0, 0.0, 1.0]}}, "config error: 'field.kind' must "
         "be one of 'height', 'cone_excess', 'dist_sq' (got 'heigth')"),
        ({"G": {"kind": "loglog"}},
         "config error: 'G.kind' must be one of 'iterated_log', 'constant' (got 'loglog')"),
        ({"field": {"kind": "height", "W": [0.0, 0.0, 1.0], "a": 0.3, "V": [1.0, 0.0, 0.0]}},
         "config error: a height field does not read 'field.V', 'field.a'"),
        ({"field": {"kind": "dist_sq", "W": [0.0, 0.0, 1.0]}},
         "config error: a dist_sq field does not read 'field.W'"),
        ({"G": {"kind": "constant", "levels": 3}},
         "config error: a constant G does not read 'G.levels'"),
        ({"G": {"kind": "iterated_log", "value": 3.0}},
         "config error: a iterated_log G does not read 'G.value'"),
    ], ids=["r-past-n", "height-without-W", "cone-excess-without-a", "short-W", "long-V",
            "short-origin", "a-not-a-number", "origin-entry-not-a-number", "levels-not-an-integer",
            "value-not-a-number", "G-unknown-key", "field-unknown-key", "gamma-unknown-key",
            "field-unknown-kind", "G-unknown-kind", "height-reads-only-W",
            "dist-sq-reads-only-origin", "constant-reads-only-value",
            "iterated-log-reads-only-levels"])
    def test_malformed_entry_is_a_config_error(self, tmp_path, capsys, monkeypatch, change,
                                               message):
        # most used to end in a traceback with exit 1, or to succeed (r = 3,
        # an unknown field, gamma or G key, and a key the kind does not read)
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built for a rejected config")

        monkeypatch.setattr(rmcf.cli.Mesh, "grid", no_mesh)
        cfg = write_config(tmp_path, dict(README_OY, **change))
        assert main(["oy-run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == message


README_OY = {"surface": {"kind": "sphere", "n": 2},
             "field": {"kind": "height", "W": [0.0, 0.0, 1.0]},
             "gamma": {"kind": "dist_sq", "origin": [0.0, 0.0, -2.0]},
             "G": {"kind": "iterated_log", "levels": 1}, "mesh": 21, "k_max": 6}
PARABOLOID_CONE = {"surface": {"kind": "paraboloid", "n": 2, "halfwidth": 10.0},
                   "region": {"kind": "cone", "V": [0.0, 0.0, 1.0], "a": 0.3},
                   "theorem": "cone", "r": 1, "V": [0.0, 0.0, 1.0], "a": 0.3,
                   "asserted": "bounded-sigma", "mesh": 13}
# the README and CI configs, which the key rule's fuzz test mutates, and their commands
BASE_CONFIGS = [
    {"surface": {"kind": "bowl", "n": 2, "r": 1, "R_max": 60.0, "tol": 1e-10}, "seed": 3},
    {"surface": {"kind": "grim_reaper", "n": 2, "t_halfwidth": 12.0},
     "region": {"kind": "cone", "V": [0.0, 0.0, 1.0], "a": 0.3},
     "theorem": "cone", "r": 1, "V": [0.0, 0.0, 1.0], "a": 0.3, "mesh": [41, 9]},
    README_OY,
    {"surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 40.0, "tol": 1e-9},
     "region": {"kind": "bihalfspace", "vertical_to": [0.0, 0.0, 0.0, 1.0],
                "halfspaces": [{"W": [0.6, 0.8, 0.0, 0.0]}, {"W": [0.6, -0.8, 0.0, 0.0]}]},
     "theorem": "bihalfspace", "r": 2, "V": [0.0, 0.0, 0.0, 1.0], "R": 2.0},
    {"surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 1000.0, "tol": 1e-9},
     "region": {"kind": "halfspace", "W": [0.6, 0.0, 0.0, 0.8]},
     "theorem": "halfspace", "r": 2, "V": [0.0, 0.0, 0.0, 1.0]},
    PARABOLOID_CONE,
    {"surface": {"kind": "sphere", "n": 2, "center": [0.0, 0.0]}},
    {"surface": {"kind": "bowl", "n": 2, "r": 1, "R_max": 40.0},
     "region": {"kind": "halfspace", "B": [0.0, 0.0, 2000.0], "W": [0.0, 0.0, 1.0]},
     "theorem": "halfspace", "r": 1, "V": [0.0, 0.0, 1.0], "mesh": 9},
]
BASE_COMMANDS = ["verify-identities", "theorem-check", "oy-run", "theorem-check", "theorem-check",
                 "theorem-check", "verify-identities", "theorem-check"]


def _tables():
    """Every key table: the top level's by command and theorem, then each object's by kind."""
    return [*rmcf.cli._COMMAND_KEYS.values(), *rmcf.cli._THEOREM_KEYS.values(),
            *(table for kinds in OBJECT_TABLES.values() for table in kinds.values())]


_NUMBERS = st.sampled_from([0, 1, 2, 3, 21, -1, 17, 1000, 1001, 0.0, 1.0, 2.0, 3.0, 21.0, 2.5,
                            -0.5, 1e30, 1e9, math.nan, math.inf, -math.inf])
_LEAVES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=2),
                    st.sampled_from(["bowl", "sphere", "cone", "halfspace", "upper", "proper"]))
_KEYS = st.sampled_from(sorted({"kind"}.union(*_tables())) + ["bogus", "zz", "Kind"])
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)
_MESHES = st.one_of(_NUMBERS, st.booleans(), st.text(max_size=1),
                    st.lists(st.one_of(_NUMBERS, st.booleans()), max_size=4))
_HALFSPACES = st.lists(
    st.one_of(st.dictionaries(st.sampled_from(["W", "B", "kind"]),
                              st.lists(_NUMBERS | st.booleans(), max_size=4), max_size=3),
              _VALUES),
    max_size=4,
)


def _containers(value):
    """Every dict and list inside ``value``, ``value`` included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


def _mutate(data, config):
    """One random edit of ``config``, in place where it can be; returns the result."""
    kind = data.draw(st.sampled_from(["retype"] * 5 + ["number"] * 2 + [
        "set", "drop", "drop", "extras", "mesh", "mesh", "halfspaces", "halfspaces", "top"]))
    containers = list(_containers(config))
    if kind == "top" or not containers:
        return data.draw(_VALUES.filter(lambda v: not isinstance(v, dict)))
    if kind == "number" and isinstance(config, dict):
        # the bounded integer fields, at and past their bounds
        target, keys = data.draw(st.sampled_from([(config, ["seed", "k_max", "r", "mesh"]),
                                                  (config.get("surface"), ["n", "r"])]))
        if isinstance(target, dict):
            target[data.draw(st.sampled_from(keys))] = data.draw(st.sampled_from(
                [-1, 0, 1, 2, 16, 17, 1000, 1001, 1e9, 3.0, 2.5, True, math.nan, math.inf]))
        return config
    if kind == "mesh":
        if isinstance(config, dict):
            config["mesh"] = data.draw(_MESHES)
        return config
    if kind == "halfspaces":
        if isinstance(config, dict) and isinstance(config.setdefault("region", {}), dict):
            config["region"]["halfspaces"] = data.draw(_HALFSPACES)
        return config
    target = data.draw(st.sampled_from(containers))
    keys = sorted(target) if isinstance(target, dict) else range(len(target))
    if kind == "drop" and keys:
        del target[data.draw(st.sampled_from(keys))]
    elif kind == "retype" and keys:
        target[data.draw(st.sampled_from(keys))] = data.draw(_NUMBERS | _LEAVES | _VALUES)
    elif isinstance(target, list):
        target.append(data.draw(_VALUES))
    elif kind == "extras":
        for key in data.draw(st.lists(st.sampled_from(["bogus", "zz", "Kind", "theorem"]),
                                      min_size=1, max_size=3)):
            target[key] = data.draw(_LEAVES)
    else:
        target[data.draw(_KEYS)] = data.draw(_VALUES)
    return config


# the one stderr line of a rejected config: it names the key or the kind, or
# says that the file holds no JSON object or a token strict JSON has not
_NAMED = re.compile(r"config error: (a [\w -]+ [\w.\[\]]+ (needs|does not read) '.+'"
                    r"|'[\w.\[\]]+' must be .+ \(got .*\)|a config must be an object \(got .*\)"
                    r"|cannot parse config .+: -?(NaN|Infinity) is not a JSON number)")


class Built(Exception):
    """A stubbed builder was called: the config passed the key rule."""


def built(*args, **kwargs):
    raise Built


# a number written in place of a config value, then replaced by a token
_TOKEN = 0.123456789


class TestConfigValidator:
    @pytest.mark.parametrize("config, token", [
        (dict(BIHALFSPACE_40, eps=math.nan), "NaN"),
        (dict(BIHALFSPACE_40, R=math.inf), "Infinity"),
        (dict(PARABOLOID_CONE, surface=dict(PARABOLOID_CONE["surface"], curvature=math.nan)),
         "NaN"),
        (dict(PARABOLOID_CONE, V=[0.0, 0.0, math.nan]), "NaN"),
    ], ids=["bihalfspace-eps", "bihalfspace-R", "paraboloid-curvature", "cone-V"])
    def test_non_finite_token_is_a_config_error(self, tmp_path, capsys, config, token):
        # RFC 8259 has no NaN or Infinity; json.load took them, and they ran
        # (exit 0) or failed as mathematics (exit 1) or as a region mismatch
        cfg = write_config(tmp_path, config)
        assert token in (tmp_path / "config.json").read_text()
        out = tmp_path / "out"
        assert main(["theorem-check", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"config error: cannot parse config {cfg}: {token} is not a JSON number")
        assert not out.exists()

    @pytest.mark.parametrize("command, config, token", [
        ("theorem-check", dict(BIHALFSPACE_40, mesh=5, R=_TOKEN), "1e400"),
        ("theorem-check", dict(BIHALFSPACE_40, mesh=5, R=_TOKEN), "1" + "0" * 400),
        ("theorem-check", dict(PARABOLOID_CONE, surface=dict(PARABOLOID_CONE["surface"],
                                                             halfwidth=_TOKEN)), "1" + "0" * 400),
        ("oy-run", dict(README_OY, mesh=_TOKEN), "1" + "0" * 400),
    ], ids=["bihalfspace-R-1e400", "bihalfspace-R-401-digits", "paraboloid-halfwidth",
            "oy-run-mesh"])
    def test_number_a_double_cannot_hold_is_a_config_error(self, tmp_path, capsys, command,
                                                            config, token):
        # json.load read 1e400 as inf and a 401-digit integer as itself: the
        # first ran and wrote "R": Infinity, the others ended in a traceback
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config).replace(repr(_TOKEN), token))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"config error: cannot parse config {cfg}: {token} is not a finite double")
        assert not out.exists()

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_config_exits_2_naming_a_key_or_reaches_the_build(self, tmp_path_factory,
                                                                       data):
        # a mutated README or CI config fails the key rule on one line that
        # names the key or the kind, or passes it and is built from what was
        # read (a bowl's solve, the mesh and the identity suite stubbed) to a
        # typed outcome; no other exception may leave main
        i = data.draw(st.sampled_from(range(len(BASE_CONFIGS))))
        config = copy.deepcopy(BASE_CONFIGS[i])
        for _ in range(data.draw(st.integers(1, 3))):
            config = _mutate(data, config)
        out = tmp_path_factory.getbasetemp() / "mutated"
        cfg = write_config(tmp_path_factory.getbasetemp(), config, name="mutated.json")
        charts = []

        def build_chart(spec):
            charts.append(spec)
            return real_build_chart(spec)

        real_build_chart = rmcf.registry.build_chart
        with mock.patch.object(rmcf.registry, "build_chart", build_chart), \
                mock.patch.object(rmcf.translators, "solve_rotational_translator", built), \
                mock.patch.object(rmcf.cli.Mesh, "grid", built), \
                mock.patch.object(rmcf.cli.identities, "run_identity_suite", built), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main([BASE_COMMANDS[i], "--config", cfg, "--out", str(out)])
            except Built:
                code = None
        if charts:
            assert code in (None, 1, 2), (config, code)
        else:
            assert code == 2 and _NAMED.fullmatch(err.getvalue().rstrip("\n")), (config, err.getvalue())

    @pytest.mark.parametrize("command, config, message", [
        ("oy-run", dict(README_OY, surface={"kind": "bowl", "n": 0}, mesh=[1, 4]),
         "'surface.n' must be an integer in 1..16 (got 0)"),
        ("oy-run", dict(README_OY, surface={"kind": "bowl"}, mesh=True),
         "'mesh' must be an integer >= 2, or an array of them (got True)"),
        ("verify-identities", {"surface": {"kind": "bowl", "n": 2.5}},
         "'surface.n' must be an integer in 1..16 (got 2.5)"),
        ("verify-identities", {"surface": {"kind": "bowl", "R_max": True}},
         "'surface.R_max' must be a number (got True)"),
        ("verify-identities", {"surface": {"kind": "bowl"}, "bogus": 1, "zz": 2},
         "a verify-identities config does not read 'bogus', 'zz'"),
        ("verify-identities", {"seed": 1}, "a verify-identities config needs 'surface'"),
        ("verify-identities", [1, 2], "a config must be an object (got [1, 2])"),
        ("theorem-check", dict(BASE_CONFIGS[3], region={"kind": "bihalfspace",
                                                        "halfspaces": [{"W": [1.0, 0.0]}]}),
         "'region.halfspaces' must be an array of 2 objects (got [{'W': [1.0, 0.0]}])"),
        # integral floats are integers
        ("oy-run", dict(README_OY, surface={"kind": "bowl", "n": 2.0}, mesh=[21.0, 9], seed=1e30),
         None),
        # configs are strict JSON: the key rule never sees Infinity or NaN
        ("verify-identities", {"surface": {"kind": "bowl", "R_max": math.inf, "tol": math.nan}},
         "cannot parse config {cfg}: Infinity is not a JSON number"),
        # every normal the config states is a unit vector, a pair's entries too
        ("theorem-check", dict(HALFSPACE_1E3, region={"kind": "halfspace",
                                                      "W": [1.2, 0.0, 0.0, 1.6]}),
         "'region.W' must be a unit vector (got [1.2, 0.0, 0.0, 1.6])"),
        ("theorem-check", dict(BASE_CONFIGS[3], region=dict(BASE_CONFIGS[3]["region"], halfspaces=[
            {"W": [1.2, 1.6, 0.0, 0.0]}, {"W": [0.6, -0.8, 0.0, 0.0]}])),
         "'region.halfspaces[0].W' must be a unit vector (got [1.2, 1.6, 0.0, 0.0])"),
    ], ids=["n-0-before-mesh-1-4", "mesh-true", "n-2.5", "R_max-true", "unread-bogus-zz",
            "seed-only", "config-a-list", "one-halfspace", "integral-floats", "infinity-token",
            "halfspace-W-not-unit", "pair-W-not-unit"])
    def test_messages(self, tmp_path, capsys, monkeypatch, command, config, message):
        # the first key in table order that breaks the rule is named, depth first
        monkeypatch.setattr(rmcf.registry, "build_chart", built)
        cfg = write_config(tmp_path, config)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        if message is None:
            with pytest.raises(Built):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"config error: {message.replace('{cfg}', cfg)}\n"


README_CONE, CI_BIHALFSPACE = BASE_CONFIGS[1], BASE_CONFIGS[3]


class TestKeyRule:
    @pytest.mark.parametrize("command, config, message", [
        ("verify-identities", README_CONE,
         "a verify-identities config does not read 'V', 'a', 'mesh', 'r', 'region', 'theorem'"),
        ("verify-identities", README_OY,
         "a verify-identities config does not read 'G', 'field', 'gamma', 'k_max', 'mesh'"),
        ("theorem-check", dict(HALFSPACE_1E3, a=0.4),
         "a halfspace theorem-check config does not read 'a'"),
        ("theorem-check", dict(HALFSPACE_1E3, asserted="bounded-sigma"),
         "a halfspace theorem-check config does not read 'asserted'"),
        ("theorem-check", dict(HALFSPACE_1E3, eps=0.5),
         "a halfspace theorem-check config does not read 'eps'"),
        ("theorem-check", dict(HALFSPACE_1E3, R=3.0),
         "a halfspace theorem-check config does not read 'R'"),
        ("theorem-check", dict(HALFSPACE_1E3, k_max=3),
         "a halfspace theorem-check config does not read 'k_max'"),
        ("theorem-check", dict(HALFSPACE_1E3, field=README_OY["field"]),
         "a halfspace theorem-check config does not read 'field'"),
        ("theorem-check", dict(HALFSPACE_1E3, region=dict(HALFSPACE_1E3["region"], a=0.4, V=V4)),
         "a halfspace region does not read 'region.V', 'region.a'"),
        ("theorem-check", dict(README_CONE, region=dict(README_CONE["region"], W=[0.0, 0.0, 1.0],
                                                        B=[0.0, 0.0, 0.0])),
         "a cone region does not read 'region.B', 'region.W'"),
        ("theorem-check", dict(README_CONE, eps=0.5, R=2.0),
         "a cone theorem-check config does not read 'R', 'eps'"),
        ("theorem-check", dict(CI_BIHALFSPACE, region=dict(CI_BIHALFSPACE["region"],
                                                           W=[0.6, 0.8, 0.0, 0.0], a=0.3)),
         "a bihalfspace region does not read 'region.W', 'region.a'"),
        ("theorem-check", dict(CI_BIHALFSPACE, asserted="proper"),
         "a bihalfspace theorem-check config does not read 'asserted'"),
        ("theorem-check", dict(CI_BIHALFSPACE, region=dict(CI_BIHALFSPACE["region"], halfspaces=[
            {"W": [0.6, 0.8, 0.0, 0.0], "kind": "halfspace"}, {"W": [0.6, -0.8, 0.0, 0.0]}])),
         "a halfspace region.halfspaces[0] does not read 'region.halfspaces[0].kind'"),
        ("oy-run", dict(README_OY, region=README_CONE["region"], theorem="cone", R=2.0, eps=0.5),
         "a oy-run config does not read 'R', 'eps', 'region', 'theorem'"),
        # a missing needed key, named in the same style
        ("verify-identities", {"seed": 1}, "a verify-identities config needs 'surface'"),
        ("theorem-check", {"surface": BOWL_SURFACE, "theorem": "cone"},
         "a cone theorem-check config needs 'region', 'r', 'V', 'a'"),
        ("theorem-check", dict(README_CONE, a=None), "a cone theorem-check config needs 'a'"),
        ("theorem-check", dict(README_CONE, region={"kind": "cone"}),
         "a cone region needs 'region.V', 'region.a'"),
        ("theorem-check", dict(CI_BIHALFSPACE, region=dict(CI_BIHALFSPACE["region"], halfspaces=[
            {"W": [0.6, 0.8, 0.0, 0.0]}, {"B": [0.0, 0.0, 0.0, 0.0]}])),
         "a halfspace region.halfspaces[1] needs 'region.halfspaces[1].W'"),
        ("oy-run", {"surface": README_OY["surface"]}, "a oy-run config needs 'field'"),
        ("oy-run", dict(README_OY, field={"kind": "cone_excess"}),
         "a cone_excess field needs 'field.V', 'field.a'"),
        ("oy-run", dict(README_OY, gamma={"kind": "height"}), "a height gamma needs 'gamma.W'"),
    ], ids=["vi-cone", "vi-oy", "hs-a", "hs-asserted", "hs-eps", "hs-R", "hs-k_max", "hs-field",
            "hs-region-a-V", "cone-region-W-B", "cone-eps-R", "bi-region-W-a", "bi-asserted",
            "bi-entry-kind", "oy-theorem-keys", "needs-surface", "needs-region-r-V-a", "needs-a",
            "needs-region-V-a", "needs-entry-W", "needs-field", "needs-field-V-a",
            "needs-gamma-W"])
    def test_key_a_config_object_does_not_hold(self, tmp_path, capsys, monkeypatch, command,
                                                config, message):
        # each used to run and exit 0, with the key ignored, or to fail in
        # another message style; now each exits 2 naming its keys, before any mesh
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built for a rejected config")

        monkeypatch.setattr(rmcf.cli.Mesh, "grid", no_mesh)
        config = {key: value for key, value in config.items() if value is not None}
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    def test_verify_identities_has_no_mesh_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"surface": {"kind": "paraboloid", "n": 2}})
        with pytest.raises(SystemExit) as exc:
            main(["verify-identities", "--config", cfg, "--mesh", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mesh 5" in capsys.readouterr().err


# a value past the range of each key type that has one, by what the type takes
OUT_OF_RANGE = {"an integer in 1..16": 17, "an integer >= 0": -1, "an integer in 1..1000": 1001,
                "an integer >= 2, or an array of them": [1, 4], "a number in (0, 1)": 1.0,
                "a positive number": 0.0, "an array of at least 2 numbers": [1.0],
                "a unit vector": [1.0],
                "an array of 2 objects": [{"W": [0.6, 0.8, 0.0]}] * 3}
UNRANGED = ("a number", "an integer", "an object")
E3 = [0.0, 0.0, 1.0]
PARABOLOID = {"kind": "paraboloid", "n": 2, "halfwidth": 10.0}
# a config each top-level table reads without error (a theorem-check's by theorem) ...
TOP_CONFIGS = {
    "verify-identities": {"surface": PARABOLOID},
    "cone": PARABOLOID_CONE,
    "halfspace": {"surface": PARABOLOID, "region": {"kind": "halfspace", "W": [0.6, 0.0, 0.8]},
                  "theorem": "halfspace", "r": 1, "V": E3},
    "bihalfspace": {"surface": PARABOLOID, "region": {
        "kind": "bihalfspace", "vertical_to": E3,
        "halfspaces": [{"W": [0.6, 0.8, 0.0]}, {"W": [0.6, -0.8, 0.0]}]},
        "theorem": "bihalfspace", "r": 1, "V": E3},
    "oy-run": README_OY,
}
# ... and an object of each kind, with the config that holds it
OBJECTS = {
    "surface": {kind: {"kind": kind} for kind in rmcf.registry._SURFACE_KEYS},
    "region": {kind: TOP_CONFIGS[kind]["region"] for kind in rmcf.registry._REGION_KEYS},
    "field": {"height": {"kind": "height", "W": E3},
              "cone_excess": {"kind": "cone_excess", "V": E3, "a": 0.3},
              "dist_sq": {"kind": "dist_sq"}},
    "G": {kind: {"kind": kind} for kind in rmcf.registry._G_KEYS},
}
OBJECTS["gamma"] = OBJECTS["field"]


def _key_cases():
    """(command, config, path, value, what): for every key of every table, a value of the wrong
    type and, when the key's type has a range, one past it; ``what`` the type takes."""
    def cases(table, command, config, path, label):
        for key, (type_, _) in table.items():
            for value in ["x"] + ([OUT_OF_RANGE[type_.what]] if type_.what in OUT_OF_RANGE else []):
                yield pytest.param(command, config(key, value), path(key), value, type_.what,
                                   id=f"{label}-{path(key)}={value!r}")

    def command(name):
        return name if name in rmcf.cli._COMMAND_KEYS else "theorem-check"

    for name, config in TOP_CONFIGS.items():
        table = dict(rmcf.cli._COMMAND_KEYS[command(name)], **rmcf.cli._THEOREM_KEYS.get(name, {}))
        yield from cases(table, command(name), lambda k, v, c=config: dict(c, **{k: v}), str, name)
    for entry, kinds in OBJECTS.items():
        for kind, spec in kinds.items():
            name = {"surface": "verify-identities", "region": kind}.get(entry, "oy-run")
            table = dict(OBJECT_TABLES[entry][kind], kind=(rmcf.registry.one_of(*kinds), None))
            yield from cases(table, command(name),
                             lambda k, v, c=TOP_CONFIGS[name], e=entry, o=spec:
                             dict(c, **{e: dict(o, **{k: v})}), f"{entry}.{{}}".format, kind)
    bihalfspace = TOP_CONFIGS["bihalfspace"]
    pair = bihalfspace["region"]["halfspaces"]
    yield from cases(rmcf.registry._HALFSPACE_KEYS, "theorem-check",
                     lambda k, v: dict(bihalfspace, region=dict(
                         bihalfspace["region"], halfspaces=[dict(pair[0], **{k: v}), pair[1]])),
                     "region.halfspaces[0].{}".format, "bihalfspace")


class TestKeyTables:
    def test_every_range_has_a_case(self):
        for table in _tables():
            for key, (type_, default) in table.items():
                assert (type_.what in OUT_OF_RANGE or type_.what in UNRANGED
                        or type_.what.startswith("one of ")), type_.what
                # a default its type does not take would be read unchecked
                assert default in (None, rmcf.registry.NEEDED) or type_.test(default), key

    @pytest.mark.parametrize("command, config, path, value, what", _key_cases())
    def test_each_key_type_and_range(self, tmp_path, capsys, monkeypatch, command, config, path,
                                     value, what):
        # each exits 2 naming its key, before any profile solve or mesh
        def no_build(*args, **kwargs):
            raise AssertionError("a rejected config was built")

        monkeypatch.setattr(rmcf.cli.Mesh, "grid", no_build)
        monkeypatch.setattr(rmcf.translators, "solve_rotational_translator", no_build)
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path!r} must be {what} (got {value!r})\n"

    @pytest.mark.parametrize("command, config, flags, message", [
        ("oy-run", dict(README_OY, mesh=1000000000), [],
         "'mesh' (1000000000, 1000000000) is too fine: a mesh here holds at most 5592405 points "
         "of 12 d2X entries"),
        ("theorem-check", dict(BASE_CONFIGS[3], mesh=[125, 125, 125]), [],
         "'mesh' (125, 125, 125) is too fine: a mesh here holds at most 1864135 points "
         "of 36 d2X entries"),
        ("theorem-check", PARABOLOID_CONE, ["--mesh", "2400"],
         "'mesh' (2400, 2400) is too fine: a mesh here holds at most 5592405 points "
         "of 12 d2X entries"),
        ("theorem-check", PARABOLOID_CONE, ["--mesh", "1"],
         "'mesh' must be an integer >= 2, or an array of them (got 1)"),
        ("oy-run", README_OY, ["--mesh", "-3"],
         "'mesh' must be an integer >= 2, or an array of them (got -3)"),
    ], ids=["oy-run-1e9", "bihalfspace-125-cubed", "cone-flag-2400", "cone-flag-1",
            "oy-run-flag-minus-3"])
    def test_mesh_too_fine_to_build(self, tmp_path, capsys, monkeypatch, command, config, flags,
                                    message):
        # "mesh": 1e9 passed every check and ended in numpy's _ArrayMemoryError;
        # --mesh is checked by the config key's type
        def no_grid(*args, **kwargs):
            raise AssertionError("a mesh was built past the bound")

        monkeypatch.setattr(rmcf.cli.Mesh, "grid", no_grid)
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_mesh_bound_admits_the_ci_and_benchmark_meshes(self):
        # 41^3, 101^2 and [41, 9] run in CI; 123^3 and 2364^2 are the finest cube and square
        for counts, n in ((41, 3), (101, 2), ([41, 9], 2), (123, 3), (2364, 2)):
            assert len(rmcf.cli._mesh_counts(counts, n)) == n
        for counts, n in ((124, 3), (2365, 2)):
            with pytest.raises(rmcf.errors.InvalidInputError, match="'mesh' .* is too fine"):
                rmcf.cli._mesh_counts(counts, n)

    def test_default_mesh_fits_the_bound(self):
        # max(4, round(2000^(1/n))) per axis up to n = 8 (4^8 points), then the
        # most that fit; from n = 15 not even 2 per axis does
        for n in range(1, 9):
            assert rmcf.cli._mesh_counts(None, n) == (max(4, int(round(2000 ** (1.0 / n)))),) * n
        for n, count in ((9, 3), (10, 3), (11, 2), (14, 2)):
            assert rmcf.cli._mesh_counts(None, n) == (count,) * n
        for n in (15, 16):
            with pytest.raises(rmcf.errors.InvalidInputError, match=f"^no mesh fits an n = {n} "):
                rmcf.cli._mesh_counts(None, n)


class TestIntegerFields:
    @pytest.mark.parametrize("command, config, ints", [
        ("verify-identities", {"surface": {"kind": "paraboloid", "n": 2}}, {"seed": 3}),
        ("verify-identities", {"surface": {"kind": "paraboloid", "n": 2}}, {"seed": int(1e30)}),
        ("oy-run", README_OY, {"mesh": 21, "k_max": 6, "r": 1, "seed": 2}),
        ("theorem-check", PARABOLOID_CONE, {"mesh": 7, "r": 1, "seed": 4}),
    ])
    def test_integral_floats_give_the_integer_report(self, tmp_path, command, config, ints):
        # draft 2020-12 lets 3.0 pass as an integer; only config_hash, the
        # hash of the config as written, may differ
        reports = []
        for number in (float, int):
            cfg = write_config(tmp_path, dict(config, **{k: number(v) for k, v in ints.items()}))
            out = tmp_path / number.__name__
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            (path,) = out.glob("*.json")
            reports.append(json.loads(path.read_text()))
            del reports[-1]["config_hash"]
        assert reports[0] == reports[1]
        assert reports[0]["seed"] == ints["seed"]

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"surface": {"kind": "paraboloid", "n": 2}, "seed": -1})
        assert main(["verify-identities", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "config error: 'seed' must be an integer >= 0 (got -1)")
        cfg = write_config(tmp_path, {"surface": {"kind": "paraboloid", "n": 2}})
        with pytest.raises(SystemExit) as exc:
            main(["verify-identities", "--config", cfg, "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be a non-negative integer (got '-1')" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", [1e9, 1001])
    def test_k_max_bound(self, tmp_path, capsys, monkeypatch, k_max):
        def no_run(*args, **kwargs):
            raise AssertionError("oy_sequence ran for a rejected config")

        monkeypatch.setattr(rmcf.cli, "oy_sequence", no_run)
        cfg = write_config(tmp_path, dict(README_OY, k_max=k_max))
        assert main(["oy-run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"config error: 'k_max' must be an integer in 1..1000 (got {k_max!r})")
