import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab.cli import main
from wignerlab.freeconv import AtomicMeasure
from wignerlab.theory import FluctuationParams, beta, beta_tilde, bias_bound, gamma_kernel


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def gue_ensemble(n=60):
    return {
        "n": n,
        "sigma2": 1.0,
        "entry_law": "gaussian_complex",
        "deformation": {"quantile_spec": {"kind": "two_point", "a": -1.0, "b": 1.0}},
    }


POINT_MASS = {"nu": {"atoms": [[0.0, 1.0]]}}
REPORT_ENSEMBLE = {"n": 20, "sigma2": 1.0, "entry_law": "gaussian_complex",
                   "deformation": {"quantile_spec": {"kind": "zero"}}}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Report files by name: a valid report of REPORT_ENSEMBLE, a file that
    is not JSON, and a JSON object without the report's keys."""
    root = tmp_path_factory.mktemp("reports")
    sim_cfg = write(root, "sim.json", {
        "ensemble": REPORT_ENSEMBLE,
        "plan": {"n_samples": 10, "z_grid": [[0.0, 2.0]], "master_seed": 1},
    })
    assert main(["simulate", "--config", sim_cfg, "--out-dir", str(root), "--format", "json"]) == 0
    (root / "not_json.txt").write_text("{not json")
    (root / "partial.json").write_text(json.dumps({"version": "0.1.0"}))
    return {"valid": str(root / "report.json"), "not_json": str(root / "not_json.txt"),
            "partial": str(root / "partial.json")}


class TestTheoryCommand:
    def test_gue_beta_columns_zero(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "fluctuation": {"sigma2": 1.0, "s2": 1.0, "tau": 0.0, "kappa": 0.0,
                            "nu": {"atoms": [[0.0, 1.0]]}},
            "z_grid": [[0.0, 2.0], [1.0, 1.0], [-1.0, 0.5]],
        })
        assert main(["theory", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "beta.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        for row in rows:
            assert float(row[2]) == 0.0 and float(row[3]) == 0.0

    def test_metadata_header(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "fluctuation": {"sigma2": 1.0, "s2": 2.0, "tau": 1.0, "kappa": 0.0,
                            "nu": {"atoms": [[0.0, 1.0]]}},
            "z_grid": [[0.0, 2.0]],
        })
        main(["theory", "--config", cfg, "--out-dir", str(tmp_path)])
        head = (tmp_path / "beta.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# config_digest=")
        assert head[1].startswith("# seed=")
        assert head[2].startswith("# version=")

    def test_dual_path_residual_column_small(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "fluctuation": {"sigma2": 1.0, "s2": 2.0, "tau": 1.0, "kappa": 0.0,
                            "nu": {"atoms": [[0.5, 1.0]]}},
            "z_grid": [[0.0, 2.0], [1.0, 1.5]],
        })
        main(["theory", "--config", cfg, "--out-dir", str(tmp_path)])
        rows = [line.split(",") for line in (tmp_path / "beta.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        for row in rows:
            assert float(row[-1]) < 1e-9


    def test_tables_equal_the_public_functions(self, tmp_path):
        nu = [[-1.0, 0.25], [0.5, 0.75]]
        cfg = write(tmp_path, "cfg.json", {
            "fluctuation": {"sigma2": 1.0, "s2": 2.0, "tau": 0.5, "kappa": -1.0,
                            "nu": {"atoms": nu}, "mode": "finite_N", "n": 40},
            "z_grid": [[0.0, 2.0], [1.0, 1.0], [-1.0, 0.5]],
            "pairs": [[[0.0, 2.0], [1.0, -1.0]], [[-1.0, 0.5], [-1.0, 0.5]]],
        })
        assert main(["theory", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "theory.json").read_text())
        p = FluctuationParams(sigma2=1.0, s2=2.0, tau=0.5, kappa=-1.0,
                              nu=AtomicMeasure.from_atoms(nu), mode="finite_N", n=40)
        for row in payload["beta"]:
            z = complex(row["re_z"], row["im_z"])
            assert complex(row["re_beta"], row["im_beta"]) == beta(p, z)
            assert complex(row["re_beta_tilde"], row["im_beta_tilde"]) == beta_tilde(p, z)
            assert row["bias_bound"] == bias_bound(p, z)
        assert len(payload["gamma"]) == 2
        for row in payload["gamma"]:
            kv = gamma_kernel(p, complex(row["re_z1"], row["im_z1"]),
                              complex(row["re_z2"], row["im_z2"]))
            assert complex(row["re_gamma"], row["im_gamma"]) == pytest.approx(kv.gamma, rel=1e-13)
            assert row["branch_margin"] == pytest.approx(kv.branch_margin, rel=1e-13)


class TestSimulateAndCompare:
    def test_simulate_then_compare_ok(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "ensemble": gue_ensemble(),
            "plan": {"n_samples": 60, "z_grid": [[0.0, 2.0], [1.0, 1.0]],
                     "master_seed": 5},
        })
        assert main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path),
                     "--threads", "2"]) == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "per_z.csv").exists()

        cmp_cfg = write(tmp_path, "cmp.json", {
            "fluctuation": {"from_ensemble": gue_ensemble()},
            "compare": {"report": str(tmp_path / "report.json"),
                        "thresholds": {"bias_band": 5.0, "cov_band": 5.0}},
        })
        assert main(["compare", "--config", cmp_cfg, "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "compare.json").read_text())
        assert payload["violations"] == 0

    def test_compare_mismatched_grid_is_config_error(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "ensemble": gue_ensemble(40),
            "plan": {"n_samples": 10, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        })
        main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path)])
        cmp_cfg = write(tmp_path, "cmp.json", {
            "fluctuation": {"from_ensemble": gue_ensemble(40)},
            "z_grid": [[0.0, 3.0]],
            "compare": {"report": str(tmp_path / "report.json")},
        })
        assert main(["compare", "--config", cmp_cfg, "--out-dir", str(tmp_path)]) == 2

    def test_compare_report_of_another_ensemble_is_config_error(self, tmp_path, capsys):
        sim_cfg = write(tmp_path, "sim.json", {
            "ensemble": {"n": 20, "sigma2": 1.0, "entry_law": "gaussian_complex",
                         "deformation": {"quantile_spec": {"kind": "zero"}}},
            "plan": {"n_samples": 10, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        })
        assert main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path)]) == 0
        other = {"n": 50, "sigma2": 1.0, "entry_law": "rademacher_real",
                 "deformation": {"quantile_spec": {"kind": "two_point", "a": -3.0, "b": 3.0}}}
        cmp_cfg = write(tmp_path, "cmp.json", {
            "fluctuation": {"from_ensemble": other},
            "compare": {"report": str(tmp_path / "report.json")},
        })
        out = tmp_path / "compare_out"
        assert main(["compare", "--config", cmp_cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fluctuation, code", [
        ({"sigma2": 1.0, "s2": 1.0, "tau": 0.0, "kappa": 0.0, "nu": {"atoms": [[0.0, 1.0]]}}, 0),
        ({"sigma2": 1.0, "s2": 2.0, "tau": 1.0, "kappa": 0.0, "nu": {"atoms": [[0.0, 1.0]]}}, 2),
        ({"sigma2": 1.0, "s2": 1.0, "tau": 0.0, "kappa": 0.0,
          "nu": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}}, 2),
    ], ids=["matching", "goe_moments", "other_nu"])
    def test_compare_checks_explicit_fluctuation_block(self, tmp_path, capsys, fluctuation, code):
        sim_cfg = write(tmp_path, "sim.json", {
            "ensemble": {"n": 20, "sigma2": 1.0, "entry_law": "gaussian_complex",
                         "deformation": {"quantile_spec": {"kind": "zero"}}},
            "plan": {"n_samples": 10, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        })
        assert main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        cmp_cfg = write(tmp_path, "cmp.json", {
            "fluctuation": fluctuation,
            "compare": {"report": str(tmp_path / "report.json")},
        })
        out = tmp_path / "compare_out"
        assert main(["compare", "--config", cmp_cfg, "--out-dir", str(out)]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1
            assert list(out.iterdir()) == []

    def test_simulate_with_truncation_toggle(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "ensemble": {"n": 30, "sigma2": 1.0, "entry_law": "gaussian_real",
                         "deformation": {"quantile_spec": {"kind": "zero"}}},
            "plan": {"n_samples": 6, "z_grid": [[0.0, 2.0]], "master_seed": 2,
                     "truncation": "auto"},
        })
        assert main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["truncation"] == pytest.approx(1.0 / np.log(30))

    def test_simulate_seed_override_changes_digest_stamp(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", {
            "ensemble": gue_ensemble(20),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 5},
        })
        main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path), "--seed", "9"])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["master_seed"] == 9


class TestIdentitiesCommand:
    def test_gue_identities_pass(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "ensemble": {"n": 50, "sigma2": 1.0, "entry_law": "gaussian_complex",
                         "deformation": {"quantile_spec": {"kind": "zero"}}},
            "identities": {"count": 12, "z_grid": [[0.5, 1.0], [0.0, 0.6]], "seed": 3},
        })
        assert main(["identities", "--config", cfg, "--out-dir", str(tmp_path),
                     "--format", "csv"]) == 0
        lines = (tmp_path / "identities.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data) == 12
        assert all(row.rsplit(",", 1)[1] == "1" for row in data)


class TestInfinitesimalCommand:
    def test_words_pass(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "infinitesimal": {
                "words": ["w1 w1 w1 w1", "w1 a w1 a w1 a w1 a"],
                "dims": [8, 16, 32],
                "v": 1.0,
                "generators": {"a": {"kind": "diag_pm1"}},
            },
        })
        assert main(["infinitesimal", "--config", cfg, "--out-dir", str(tmp_path),
                     "--seed", "1"]) == 0
        payload = json.loads((tmp_path / "moments.json").read_text())
        assert all(w["ok"] for w in payload["words"])

    def test_outputs_equal_at_one_thread_and_the_default(self, tmp_path, pool):
        cfg = write(tmp_path, "cfg.json", {"infinitesimal": {
            "words": ["w1 a w2 a w1 w2", "w1 a w1 a"], "dims": [4, 8, 16],
            "generators": {"a": {"kind": "diag_pm1"}}, "mc": {"n_dim": 6, "n_samples": 1000},
        }})
        outputs = []
        for extra in (["--threads", "1"], []):
            out = tmp_path / f"out{len(outputs)}"
            main(["infinitesimal", "--config", cfg, "--out-dir", str(out), "--seed", "3", *extra])
            outputs.append([(out / name).read_bytes() for name in ("moments.json", "moments.csv")])
        assert outputs[0] == outputs[1]


class TestDensityCommand:
    def test_density_table(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]},
                        "x_grid": [0.0, 3.0]},
        })
        assert main(["density", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "density.json").read_text())
        table = payload["density"]
        assert table[0]["density"] == pytest.approx(1 / np.pi, abs=1e-6)
        assert table[1]["density"] <= 1e-6


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["theory", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["theory", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_missing_block(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {"z_grid": [[0.0, 2.0]]})
        assert main(["theory", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    def test_density_without_nu(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {"density": {"v": 1.0}})
        assert main(["density", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_density_without_v(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {"density": {"nu": {"atoms": [[0.0, 1.0]]}}})
        assert main(["density", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_theory_real_axis_z(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "fluctuation": {"nu": {"atoms": [[0.0, 1.0]]}},
            "z_grid": [[0.0, 2.0], [1.0, 0.0]],
        })
        assert main(["theory", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_density_config_error_writes_nothing(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
                        "test_functions": [{"kind": "nope"}]},
        })
        out = tmp_path / "out"
        assert main(["density", "--config", cfg, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fluctuation", [
        pytest.param({"sigma2": float("nan"), "nu": {"atoms": [[0.0, 1.0]]}}, id="sigma2_nan"),
        pytest.param({"kappa": float("inf"), "nu": {"atoms": [[0.0, 1.0]]}}, id="kappa_inf"),
        pytest.param({"nu": {"atoms": [[0.0, None]]}}, id="weight_null"),
    ])
    def test_theory_non_finite_input(self, tmp_path, capsys, fluctuation):
        # these configs once ran to an all-NaN beta.csv and exit 0
        cfg = write(tmp_path, "cfg.json", {"fluctuation": fluctuation, "z_grid": [[0.0, 2.0]]})
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and "finite" in err
        assert list(out.iterdir()) == []

    def test_missing_key_is_named(self, tmp_path, capsys):
        ensemble = gue_ensemble(10)
        del ensemble["n"]
        cfg = write(tmp_path, "cfg.json", {
            "ensemble": ensemble,
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        })
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: missing key 'n'\n"

    @pytest.mark.parametrize("payload,kind", [([1, 2], "list"), ("text", "str"), (3, "int")])
    def test_top_level_not_an_object(self, tmp_path, capsys, payload, kind):
        cfg = write(tmp_path, "cfg.json", payload)
        assert main(["theory", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: the config must be a JSON object, not {kind}\n")

    def test_bad_ensemble_params(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "ensemble": {"n": 10, "sigma2": -1.0, "entry_law": "gaussian_complex",
                         "deformation": {"quantile_spec": {"kind": "zero"}}},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        })
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["n_samples", "z_grid"])
    def test_simulate_plan_missing_key(self, tmp_path, capsys, key):
        plan = {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1}
        del plan[key]
        cfg = write(tmp_path, "cfg.json", {"ensemble": gue_ensemble(10), "plan": plan})
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("weight", [2.0, -0.5, 1.5])
    def test_two_point_weight_outside_unit_interval(self, tmp_path, capsys, weight):
        ensemble = gue_ensemble(10)
        ensemble["deformation"]["quantile_spec"]["weight_a"] = weight
        cfg = write(tmp_path, "cfg.json", {
            "ensemble": ensemble,
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        })
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command,payload", [
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10),
            "plan": {"n_samples": "abc", "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="plan_n_samples_text"),
        pytest.param("theory", {
            "fluctuation": {"sigma2": "x", "nu": {"atoms": [[0.0, 1.0]]}},
            "z_grid": [[0.0, 2.0]],
        }, id="fluctuation_sigma2_text"),
        pytest.param("theory", {
            "fluctuation": {"nu": {"atoms": [[0.0, 1.0]]}, "mode": "finite_N", "n": "x"},
            "z_grid": [[0.0, 2.0]],
        }, id="fluctuation_n_text"),
        pytest.param("theory", {
            "fluctuation": {"from_ensemble": {**gue_ensemble(10), "n": "x"}},
            "z_grid": [[0.0, 2.0]],
        }, id="from_ensemble_n_text"),
        pytest.param("theory", {
            "fluctuation": {"nu": {"atoms": [[0.0, 1.0]]}},
            "z_grid": [["a", 2.0]],
        }, id="z_text"),
        pytest.param("theory", {
            "fluctuation": {"nu": {"atoms": [[0.0, 1.0]]}},
            "z_grid": [3],
        }, id="z_not_a_pair"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                     "truncation": "abc"},
        }, id="plan_truncation_text"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                     "truncation": -0.5},
        }, id="plan_truncation_negative"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "entry_law": {
                "name": "custom_discrete", "offdiag": [[1.0, 0.0]], "diag": [[1.0, 1.0]]}},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="custom_law_short_triple"),
        pytest.param("identities", {
            "ensemble": gue_ensemble(10), "identities": {"count": "x"},
        }, id="identities_count_text"),
        pytest.param("density", {
            "density": {"v": "x", "nu": {"atoms": [[0.0, 1.0]]}},
        }, id="density_v_text"),
        pytest.param("density", {
            "density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "points": "x"},
        }, id="density_points_text"),
        pytest.param("infinitesimal", {
            "infinitesimal": {"words": ["w1 w1"], "dims": ["x"]},
        }, id="infinitesimal_dims_text"),
        pytest.param("infinitesimal", {
            "infinitesimal": {"words": ["w1 a w1 a"],
                              "generators": {"a": {"kind": "diag_values"}}},
        }, id="generator_without_values"),
        pytest.param("infinitesimal", {
            "infinitesimal": {"words": ["w1 a w1 a"], "generators": {"a": "diag_pm1"}},
        }, id="generator_not_an_object"),
        pytest.param("density", {
            "density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
                        "test_functions": [{"kind": "nope"}]},
        }, id="test_function_unknown_kind"),
        pytest.param("density", {
            "density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
                        "test_functions": [{"kind": "smooth_bump", "center": 0.0}]},
        }, id="test_function_missing_keys"),
        pytest.param("theory", [1, 2], id="theory_config_not_an_object"),
        pytest.param("theory", {"fluctuation": [1], "z_grid": [[0.0, 2.0]]},
                     id="fluctuation_not_an_object"),
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": 5}, id="z_grid_not_a_list"),
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": [[0.0, 2.0]],
                                "pairs": [1]}, id="pair_not_a_list"),
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": [[0.0, 2.0]],
                                "pairs": [[[0, 1]]]}, id="pair_with_one_z"),
        pytest.param("simulate", {"ensemble": gue_ensemble(10), "plan": [1]},
                     id="plan_not_an_object"),
        pytest.param("compare", {"fluctuation": {"from_ensemble": REPORT_ENSEMBLE},
                                 "compare": {"report": 12}}, id="report_path_a_number"),
        pytest.param("compare", {"fluctuation": {"from_ensemble": REPORT_ENSEMBLE},
                                 "compare": {"report": "@not_json"}}, id="report_not_json"),
        pytest.param("compare", {"fluctuation": {"from_ensemble": REPORT_ENSEMBLE},
                                 "compare": {"report": "@partial"}}, id="report_without_keys"),
        pytest.param("compare", {"fluctuation": {"from_ensemble": REPORT_ENSEMBLE},
                                 "compare": {"report": "@valid", "thresholds": [1]}},
                     id="thresholds_not_an_object"),
        pytest.param("compare", {"fluctuation": {"from_ensemble": REPORT_ENSEMBLE},
                                 "compare": {"report": "@valid"}, "z_grid": 5},
                     id="compare_z_grid_not_a_list"),
        pytest.param("density", {"density": [1]}, id="density_not_an_object"),
        pytest.param("density", {"density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]},
                                             "points": -3}}, id="density_points_negative"),
        pytest.param("density", {"density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]},
                                             "points": 0}}, id="density_points_zero"),
        pytest.param("density", {"density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]},
                                             "x_grid": []}}, id="density_x_grid_empty"),
        pytest.param("infinitesimal", {"infinitesimal": [1]}, id="infinitesimal_not_an_object"),
        pytest.param("infinitesimal", {"infinitesimal": {"words": [12]}}, id="word_not_text"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 a w1 a"], "generators": [1, 2]}}, id="generators_not_an_object"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [0, 8, 16]}}, id="infinitesimal_dim_zero"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [4, 8, 16], "mc": [1]}}, id="mc_not_an_object"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [4, 8, 16], "mc": {"n_dim": 0}}}, id="mc_n_dim_zero"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [4, 8, 16], "v": -1}}, id="infinitesimal_v_negative"),
        pytest.param("infinitesimal", {"infinitesimal": {"words": []}}, id="words_empty"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 a w1 a"], "generators": {"a": {"kind": "nope"}}}},
            id="generator_unknown_kind"),
        pytest.param("density", {"density": {"v": 0.0, "nu": {"atoms": [[0.0, 1.0]]}}},
                     id="density_v_zero"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10), "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]]},
        }, id="plan_without_master_seed"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "entry_law": "rademacher_real"},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                     "truncation": 0.0001},
        }, id="truncation_leaves_no_variance"),
        pytest.param("identities", {"ensemble": gue_ensemble(10), "identities": [1]},
                     id="identities_not_an_object"),
        pytest.param("identities", {"ensemble": gue_ensemble(10), "identities": {"z_grid": []}},
                     id="identities_z_grid_empty"),
        pytest.param("identities", {"ensemble": gue_ensemble(10), "identities": {"z_grid": 5}},
                     id="identities_z_grid_not_a_list"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, reports, command, payload):
        # a report path "@name" stands for the `reports` file of that name
        block = payload.get("compare") if isinstance(payload, dict) else None
        if isinstance(block, dict) and str(block["report"]).startswith("@"):
            payload = {**payload, "compare": {**block, "report": reports[block["report"][1:]]}}
        cfg = write(tmp_path, "cfg.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert list(out.iterdir()) == []


BUMP = {"kind": "smooth_bump", "center": 0.0, "width": 1.0, "order": 3, "id": "bump"}
SMALL_CONFIGS = {
    "theory": {
        "fluctuation": {"sigma2": 1.0, "s2": 2.0, "tau": 1.0, "kappa": 0.0,
                        "nu": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}, "mode": "finite_N", "n": 10},
        "z_grid": [[0.0, 2.0], [1.0, 1.0]],
        "pairs": [[[0.0, 2.0], [1.0, -1.0]]],
    },
    "simulate": {
        "ensemble": {"n": 8, "sigma2": 1.0, "entry_law": "rademacher_real",
                     "deformation": {"quantile_spec": {"kind": "two_point", "a": -1.0, "b": 1.0,
                                                       "weight_a": 0.5}}},
        "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                 "truncation": "auto", "test_functions": [BUMP]},
    },
    "compare": {
        "fluctuation": {"from_ensemble": REPORT_ENSEMBLE},
        "z_grid": [[0.0, 2.0]],
        "compare": {"report": "@valid", "thresholds": {"bias_band": 5.0, "cov_band": 5.0}},
    },
    "density": {
        "density": {"v": 1.0, "nu": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}, "points": 201,
                    "x_grid": [0.0, 1.0], "test_functions": [BUMP, {
                        "kind": "capped_polynomial", "coeffs": [1.0, 0.5], "window": [-1.0, 1.0],
                        "order": 2, "ramp": 0.2, "id": "poly"}]},
    },
    "infinitesimal": {
        "infinitesimal": {"words": ["w1 a w1 a", "w1 w1"], "dims": [8, 16, 32, 64], "v": 1.0,
                          "generators": {"a": {"kind": "diag_values", "values": [1.0, -1.0]}},
                          "mc": {"n_dim": 6, "n_samples": 1000}},
    },
    "identities": {
        "ensemble": {"n": 8, "sigma2": 1.0, "entry_law": "gaussian_complex",
                     "deformation": {"atoms": [-1.0, -1.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0]}},
        "identities": {"count": 20, "z_grid": [[0.5, 1.0]], "seed": 3},
    },
}
CONFIG_BLOCKS = [(command, block) for command, cfg in sorted(SMALL_CONFIGS.items())
                 for block, value in cfg.items() if isinstance(value, dict)]


@pytest.mark.parametrize("command,block", CONFIG_BLOCKS,
                         ids=[f"{c}-{b}" for c, b in CONFIG_BLOCKS])
def test_block_not_an_object_is_named(tmp_path, capsys, reports, command, block):
    payload = copy.deepcopy(SMALL_CONFIGS[command])
    if command == "compare":
        payload["compare"]["report"] = reports["valid"]
    cfg = write(tmp_path, "cfg.json", {**payload, block: [1]})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: block {block!r} must be a JSON object, not list\n")
    assert list(out.iterdir()) == []


DELETE = object()
# no replacement is a number, so no mutated config asks for more work
REPLACEMENTS = st.one_of(
    st.text(alphabet="xyz ", max_size=3),
    st.lists(st.sampled_from([0, 1, "x", None, []]), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "x"]), st.sampled_from([0, "x", None]), max_size=2),
    st.none(),
)


def value_paths(node, path=()):
    """Key paths to the node and to every value inside it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from value_paths(value, path + (key,))


def mutate(cfg, path, new):
    """A copy of cfg with the value at path replaced by new, or its key deleted."""
    if not path:
        return new
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return cfg


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
@settings(max_examples=25)
@given(data=st.data())
def test_mutated_config_exits_without_traceback(reports, command, data):
    base = copy.deepcopy(SMALL_CONFIGS[command])
    if command == "compare":
        base["compare"]["report"] = reports["valid"]
    path = data.draw(st.sampled_from(list(value_paths(base))), label="path")
    parent = base
    for key in path[:-1]:
        parent = parent[key]
    deletable = bool(path) and isinstance(parent, dict)
    new = data.draw(REPLACEMENTS | st.just(DELETE) if deletable else REPLACEMENTS, label="new")
    with tempfile.TemporaryDirectory() as root:
        cfg = write(Path(root), "cfg.json", mutate(base, path, new))
        out = Path(root) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg, "--out-dir", str(out)])
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith(("config error:", "error:")))
        if code == 2:
            assert list(out.iterdir()) == []


def loaded_after_cli_import(modules):
    """The given modules that a fresh `import wignerlab.cli` loads."""
    code = f"import sys, wignerlab.cli; print([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; only the normality summary needs it
    assert loaded_after_cli_import(["scipy.stats"]) == "[]"


def test_cli_import_leaves_process_pool_unloaded():
    # only a Monte Carlo run on more than one worker needs them
    assert loaded_after_cli_import(["multiprocessing", "concurrent.futures.process"]) == "[]"
