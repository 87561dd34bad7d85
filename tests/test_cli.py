import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, command, payload):
        cfg = write(tmp_path, "cfg.json", payload)
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


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
