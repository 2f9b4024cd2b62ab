"""CLI contract tests: exit codes, report determinism, file formats."""

import collections
import json

import numpy as np
import pytest

import rmcf.cli
import rmcf.maxprinciple
import rmcf.regions
from rmcf.charts import MeshGeometry, cone_excess
from rmcf.cli import _CONFIG_SCHEMA, main
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

    def test_corrupted_derivatives_fail_fd_consistency(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"surface": {"kind": "paraboloid", "n": 2, "derivative_bias": 1e-3}},
        )
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

    def test_drive_reads_the_residual_tolerance(self, tmp_path):
        res = theorem_check(tmp_path, dict(CONE_1E3, residual_tol=1e-16))
        gate = {p["id"]: p for p in res["gate"]["premises"]}
        assert not gate["translator-residual"]["pass"]
        assert res["drive"]["failed_premises"] == ["containment", "translator-residual"]

    def test_drive_reads_the_growth_bound(self, tmp_path):
        res = theorem_check(tmp_path, dict(HALFSPACE_1E3, growth_bound=0.5))
        gate = {p["id"]: p for p in res["gate"]["premises"]}
        assert res["drive"]["growth"]["bound"] == gate["growth-sigma-quadlog"]["threshold"] == 0.5

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
        ("'region.kind'", {"theorem": "halfspace"}),
        ("'region.W'", {"theorem": "halfspace", "region": dict(_HALF, W=[0.6, 0.8])}),
        ("'region.B'", {"theorem": "halfspace", "region": dict(_HALF, B=[0.0, 0.0])}),
        ("'region.vertical_to'",
         {"theorem": "bihalfspace", "region": dict(_BI, vertical_to=[0.0, 1.0])}),
        ("'region.halfspaces[1].W'", {"theorem": "bihalfspace", "region": dict(
            _BI, halfspaces=[{"W": [0.6, 0.8, 0.0]}, {"W": [0.6, -0.8]}])}),
        ("'region.a'", {"region": {"kind": "cone", "V": _V, "a": 0.9}}),
        ("'region.V'", {"region": {"kind": "cone", "V": [0.0, 0.6, 0.8], "a": 0.3}}),
    ])
    def test_config_rejected_before_mesh_work(self, tmp_path, capsys, monkeypatch, field, change):
        # each passes the schema; each must exit 2 naming its field, before any mesh is built
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
