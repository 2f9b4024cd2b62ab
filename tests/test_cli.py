"""CLI contract tests: exit codes, report determinism, file formats."""

import collections
import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmcf.cli
import rmcf.maxprinciple
import rmcf.regions
import rmcf.registry
import rmcf.translators
from rmcf.charts import MeshGeometry, cone_excess
from rmcf.cli import _CONFIG_SCHEMA, _TYPES, _best_message, _schema_errors, main
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

    def test_config_schema_is_a_valid_schema(self, tmp_path, capsys):
        # loads validate against the constant schema without re-checking it
        import jsonschema

        jsonschema.validators.validator_for(_CONFIG_SCHEMA).check_schema(_CONFIG_SCHEMA)
        bad = {"surface": {"kind": "bowl", "n": 0}, "mesh": [1, 4]}
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(bad, _CONFIG_SCHEMA)
        assert main(["verify-identities", "--config", write_config(tmp_path, bad)]) == 2
        want = f"config error: config rejected: {exc.value.message}"
        assert capsys.readouterr().err.strip() == want

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
        # pair, so for det Q = +1 and -1 alike the mesh's own eigenvalue is
        # the same float and the report bytes are those of the drive given
        # that eps
        config = copy.deepcopy(BIHALFSPACE_40)
        config["region"]["halfspaces"] = config["region"]["halfspaces"][::order]
        Q = rmcf.regions.normalize_bihalfspace(build_region(config["region"]), np.array(V4))[0]
        assert np.linalg.det(Q) == pytest.approx(order)
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
        res = theorem_check(tmp_path, {
            "surface": {"kind": "bowl", "n": 2, "r": 1, "R_max": 40.0},
            "region": {"kind": "halfspace", "B": [0.0, 0.0, 2000.0], "W": [0.0, 0.0, 1.0]},
            "theorem": "halfspace", "r": 1, "V": [0.0, 0.0, 1.0], "mesh": 9,
        }, code=1)
        drive = res["drive"]
        assert res["gate"]["contained"] is True and drive["containment_holds"] is True
        assert drive["exit_margin"] == res["first_exit"]["margin"] < 0.0
        assert drive["failed_premises"] == []

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
         "config error: config rejected: 'x' is not of type 'number'"),
        ({"gamma": {"kind": "dist_sq", "origin": [0.0, "x", 1.0]}},
         "config error: config rejected: 'x' is not of type 'number'"),
        ({"G": {"kind": "iterated_log", "levels": "x"}},
         "config error: config rejected: 'x' is not of type 'integer'"),
        ({"G": {"kind": "constant", "value": "x"}},
         "config error: config rejected: 'x' is not of type 'number'"),
        ({"G": {"kind": "iterated_log", "levles": 3}},
         "config error: a iterated_log G does not read 'G.levles'"),
        ({"field": {"kind": "height", "W": [0.0, 0.0, 1.0], "bogus": 1}},
         "config error: a height field does not read 'field.bogus'"),
        ({"gamma": {"kind": "dist_sq", "bogus": 1}},
         "config error: a dist_sq gamma does not read 'gamma.bogus'"),
        ({"field": {"kind": "heigth", "W": [0.0, 0.0, 1.0]}}, "config error: config rejected: "
         "'heigth' is not one of ['height', 'cone_excess', 'dist_sq']"),
        ({"G": {"kind": "loglog"}},
         "config error: config rejected: 'loglog' is not one of ['iterated_log', 'constant']"),
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
# the README and CI configs, which the validator test mutates
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


def _schema_keys(schema):
    keys = set(schema.get("properties", ()))
    for sub in schema.get("properties", {}).values():
        keys |= _schema_keys(sub)
    if isinstance(schema.get("items"), dict):
        keys |= _schema_keys(schema["items"])
    return keys


_NUMBERS = st.sampled_from([0, 1, 2, 3, 21, -1, 17, 1000, 1001, 0.0, 1.0, 2.0, 3.0, 21.0, 2.5,
                            -0.5, 1e30, 1e9, math.nan, math.inf, -math.inf])
_LEAVES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=2),
                    st.sampled_from(["bowl", "sphere", "cone", "halfspace", "upper", "proper"]))
_KEYS = st.sampled_from(sorted(_schema_keys(_CONFIG_SCHEMA)) + ["bogus", "zz", "Kind"])
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


# a number written in place of a config value, then replaced by a token
_TOKEN = 0.123456789


class TestConfigValidator:
    def test_schema_uses_only_supported_keywords(self):
        supported = {"type", "enum", "minimum", "maximum", "properties", "items", "minItems",
                     "maxItems", "anyOf"}

        def check(schema):
            assert set(schema) <= supported, set(schema) - supported
            assert schema.get("type", "object") in _TYPES
            assert all(isinstance(value, str) for value in schema.get("enum", ()))
            assert schema.get("minItems", 2) > 1 and schema.get("maxItems", 1) > 0
            subs = list(schema.get("properties", {}).values()) + schema.get("anyOf", [])
            subs += [schema["items"]] if "items" in schema else []
            for sub in subs:
                check(sub)

        check(_CONFIG_SCHEMA)

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
    def test_matches_jsonschema_best_match(self, data):
        from jsonschema.exceptions import best_match
        from jsonschema.validators import validator_for

        config = copy.deepcopy(data.draw(st.sampled_from(BASE_CONFIGS)))
        for _ in range(data.draw(st.integers(1, 3))):
            config = _mutate(data, config)
        want = best_match(validator_for(_CONFIG_SCHEMA)(_CONFIG_SCHEMA).iter_errors(config))
        got = _best_message(_schema_errors(_CONFIG_SCHEMA, config))
        assert got == (None if want is None else want.message), config

    @pytest.mark.parametrize("config, message", [
        ({"surface": {"kind": "bowl", "n": 0}, "mesh": [1, 4]}, "1 is less than the minimum of 2"),
        ({"surface": {"kind": "bowl"}, "mesh": True},
         "True is not valid under any of the given schemas"),
        ({"surface": {"kind": "bowl", "n": 2.5}}, "2.5 is not of type 'integer'"),
        ({"surface": {"kind": "bowl", "R_max": True}}, "True is not of type 'number'"),
        # which keys an object holds is registry._spec_keys's to say
        ({"surface": {"kind": "bowl"}, "bogus": 1, "zz": 2}, None),
        ({"seed": 1}, None),
        ([1, 2], "[1, 2] is not of type 'object'"),
        ({"surface": {"kind": "bowl"},
          "region": {"kind": "bihalfspace", "halfspaces": [{"W": [1.0, 0.0]}]}},
         "[{'W': [1.0, 0.0]}] is too short"),
        # draft 2020-12: integral floats are integers, NaN and Infinity are numbers
        ({"surface": {"kind": "bowl", "n": 2.0}, "mesh": [21.0, 9], "seed": 1e30}, None),
        ({"surface": {"kind": "bowl", "R_max": math.inf, "tol": math.nan}}, None),
    ])
    def test_messages(self, config, message):
        assert _best_message(_schema_errors(_CONFIG_SCHEMA, config)) == message


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

    def test_schema_types_each_key_the_tables_read(self, monkeypatch):
        # per config object, the keys the key rule reads are the properties the
        # schema types: a key read but not typed would skip the type checks
        class Read(Exception):
            pass

        read = collections.defaultdict(set)

        def spy(spec, entry, kind, *, kinded=True, **defaults):
            read[entry] |= set(defaults) | {"kind"}
            raise Read

        monkeypatch.setattr(rmcf.registry, "_spec_keys", spy)
        schema = _CONFIG_SCHEMA["properties"]
        for entry, build in (("surface", build_chart), ("G", rmcf.registry.build_G)):
            for kind in schema[entry]["properties"]["kind"]["enum"]:
                with pytest.raises(Read):
                    build({"kind": kind})
        region_keys = rmcf.registry._REGION_KEYS
        read["region"] = {"kind"}.union(*region_keys.values())
        read["field"] = read["gamma"] = {"kind"}.union(*rmcf.registry._FIELD_KEYS.values())
        for entry, keys in read.items():
            assert keys == set(schema[entry]["properties"]), entry
        halfspace = schema["region"]["properties"]["halfspaces"]["items"]
        assert set(region_keys["halfspace"]) == set(halfspace["properties"])
        top = set().union(*rmcf.cli._COMMAND_KEYS.values(), *rmcf.cli._THEOREM_KEYS.values())
        assert top == set(schema)
        assert set(rmcf.cli._THEOREM_KEYS) == set(schema["theorem"]["enum"])


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
            "config error: config rejected: -1 is less than the minimum of 0")
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
        assert "is greater than the maximum of 1000" in capsys.readouterr().err
