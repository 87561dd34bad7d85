import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab.cli import main
from wignerlab.freeconv import AtomicMeasure
from wignerlab.montecarlo import EstimatorReport, _covariance_jackknife
from wignerlab.parallel import mean_and_se
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
BUMP = {"kind": "smooth_bump", "center": 0.0, "width": 1.0, "order": 3, "id": "bump"}
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
        assert not out.exists()

    @pytest.mark.parametrize("fluctuation", [
        {"sigma2": 1.0, "s2": 1.0, "tau": 0.0, "kappa": 0.0, "nu": {"atoms": [[0.0, 1.0]]}},
        {"sigma2": 1.0, "s2": 2.0, "tau": 1.0, "kappa": 0.0, "nu": {"atoms": [[0.0, 1.0]]}},
        {"sigma2": 1.0, "s2": 1.0, "tau": 0.0, "kappa": 0.0,
         "nu": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}},
    ], ids=["matching", "goe_moments", "other_nu"])
    def test_compare_names_explicit_fluctuation_keys_unknown(self, tmp_path, capsys, reports,
                                                             fluctuation):
        # compare takes its theory from the report's params_config; a
        # fluctuation block may only state the ensemble, as from_ensemble
        cmp_cfg = write(tmp_path, "cmp.json", {
            "fluctuation": fluctuation, "compare": {"report": reports["valid"]}})
        out = tmp_path / "compare_out"
        assert main(["compare", "--config", cmp_cfg, "--out-dir", str(out)]) == 2
        keys = ", ".join(f"{key!r} in block 'fluctuation'" for key in fluctuation)
        assert capsys.readouterr().err == f"config error: unknown keys {keys}\n"
        assert not out.exists()

    def test_compare_without_fluctuation_block_gives_the_same_rows(self, tmp_path):
        sim_cfg = write(tmp_path, "sim.json", SMALL_CONFIGS["simulate"])
        assert main(["simulate", "--config", sim_cfg, "--out-dir", str(tmp_path)]) == 0
        compare = {"report": str(tmp_path / "report.json"),
                   "thresholds": {"bias_band": 3.0, "cov_band": 3.0}}
        stated = {"from_ensemble": SMALL_CONFIGS["simulate"]["ensemble"]}
        results = []
        for name, cfg in [("stated", {"fluctuation": stated, "compare": compare}),
                          ("bare", {"compare": compare})]:
            out = tmp_path / name
            code = main(["compare", "--config", write(tmp_path, f"{name}.json", cfg),
                         "--out-dir", str(out)])
            payload = json.loads((out / "compare.json").read_text())
            del payload["meta"]  # it stamps the digest of the config
            rows = [[line for line in (out / f"{stem}.csv").read_text().splitlines()
                     if not line.startswith("#")] for stem in ("compare_bias", "compare_cov")]
            results.append((code, payload, rows))
        assert results[0] == results[1]
        assert len(results[0][1]["bias"]) == 1 and len(results[0][1]["covariance"]) == 1

    @pytest.mark.parametrize("fluctuation", [{"from_ensemble": REPORT_ENSEMBLE}, None],
                             ids=["from_ensemble", "no_block"])
    def test_compare_refuses_a_report_whose_params_config_was_edited(
            self, tmp_path, capsys, reports, fluctuation):
        report = json.loads(Path(reports["valid"]).read_text())
        report["params_config"]["sigma2"] = 2.0
        payload = {"compare": {"report": write(tmp_path, "report.json", report)}}
        if fluctuation is not None:
            payload["fluctuation"] = fluctuation
        out = tmp_path / "compare_out"
        assert main(["compare", "--config", write(tmp_path, "cmp.json", payload),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: report params_hash {report['params_hash']} "
                              "does not match its params_config") and err.count("\n") == 1
        assert not out.exists()

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

    def test_outputs_equal_at_one_thread_and_the_default(self, tmp_path):
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

    @pytest.mark.parametrize("mc", [{}, None])
    def test_a_given_mc_block_runs_even_when_empty(self, tmp_path, mc):
        # an empty block runs the cross-check at its defaults; null skips it
        cfg = write(tmp_path, "cfg.json", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [4, 8, 16], "mc": mc}})
        assert main(["infinitesimal", "--config", cfg, "--out-dir", str(tmp_path),
                     "--seed", "1", "--threads", "1"]) == 0
        (word,) = json.loads((tmp_path / "moments.json").read_text())["words"]
        assert ("mc" in word) == (mc is not None)
        if mc is not None:
            assert word["mc"]["exact"] == [1.0, 0.0] and word["mc"]["ok"]


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

    def test_unconverged_integral_exits_1(self, tmp_path, capsys):
        # 400 kinks: more than 2000 intervals resolve (see test_freeconv)
        xs = np.linspace(-2.5, 2.5, 400)
        values = np.abs(np.sin(7 * xs)) + np.arange(400) % 2
        cfg = write(tmp_path, "cfg.json", {"density": {
            "v": 1.0, "nu": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}, "x_grid": [0.0],
            "test_functions": [{"kind": "grid", "x": xs.tolist(), "values": values.tolist()}]}})
        assert main(["density", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: integral against rho did not converge")
        assert err.count("\n") == 1


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
        assert not out.exists()

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
        assert not out.exists()

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
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": ["12"]}, id="z_a_string"),
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": [[1, 2, 3]]},
                     id="z_three_numbers"),
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": [[True, 1]]},
                     id="z_with_a_bool"),
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": [[0.0, 2.0]],
                                "pairs": [[[0, 1], [0, 2], [0, 3]]]}, id="pair_of_three_z"),
        pytest.param("theory", {"fluctuation": POINT_MASS, "z_grid": [[0.0, 2.0]],
                                "pairs": [[[0, 1]]]}, id="pair_of_one_z"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(8),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                     "test_functions": [{"kind": "resolvent", "z": [0.0, 2.0, 9.0]}]},
        }, id="test_function_z_three_numbers"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(8),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                     "test_functions": [{"kind": "real_resolvent_pair", "z": [False, 2.0]}]},
        }, id="test_function_z_with_a_bool"),
        pytest.param("density", {"density": {
            "v": 1.0, "points": 5, "nu": {"atoms": [[0.0, 1.0]]},
            "test_functions": [{"kind": "resolvent", "z": [1.0, float("inf")]}]}},
            id="test_function_z_infinite"),
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
        pytest.param("identities", {
            "ensemble": gue_ensemble(10), "identities": {"count": -3},
        }, id="identities_count_negative"),
        pytest.param("identities", {
            "ensemble": gue_ensemble(10), "identities": {"count": 0},
        }, id="identities_count_zero"),
        pytest.param("identities", {
            "ensemble": gue_ensemble(10), "identities": {"count": 2.7},
        }, id="identities_count_fractional"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10),
            "plan": {"n_samples": 4.9, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="plan_n_samples_fractional"),
        pytest.param("identities", {
            "ensemble": gue_ensemble(10), "identities": {"cuont": 3},
        }, id="identities_count_misspelt"),
        pytest.param("theory", {
            "fluctuation": {**POINT_MASS, "kapa": 5.0}, "z_grid": [[0.0, 2.0]],
        }, id="fluctuation_kappa_misspelt"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "deformation_bound": 0.5},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="ensemble_deformation_bound"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "deformation": {
                "atoms": [0.0] * 10, "quantile_spec": {"kind": "zero"}}},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="deformation_atoms_and_quantile_spec"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "n": 10.7},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="ensemble_n_fractional"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "n": True},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="ensemble_n_bool"),
        pytest.param("density", {
            "density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "points": 4.5},
        }, id="density_points_fractional"),
        pytest.param("density", {
            "density": {"v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "points": True},
        }, id="density_points_bool"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [8, 16, 32.9]}}, id="infinitesimal_dims_fractional"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [True, 8, 16]}}, id="infinitesimal_dims_bool"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1 w1 w1"], "dims": [8, 8, 8]}}, id="infinitesimal_dims_repeated"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [4, 8, 16], "mc": {"n_dim": 4.7}}},
            id="mc_n_dim_fractional"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 w1"], "dims": [4, 8, 16], "mc": {"n_dim": 4, "n_samples": 1000.5}}},
            id="mc_n_samples_fractional"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "tau": 0.5},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="ensemble_tau_not_implied_by_law"),
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
        # an identity separator is the same as writing no separator
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 a w1 a"], "generators": {"a": {"kind": "identity"}}}},
            id="generator_identity_kind"),
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
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                     "test_functions": [{"kind": "smooth_bump", "center": c, "width": 1.0,
                                         "order": 3, "id": "b"} for c in (0.0, 1.0)]},
        }, id="test_function_ids_repeated"),
        pytest.param("identities", {"ensemble": gue_ensemble(10), "identities": [1]},
                     id="identities_not_an_object"),
        pytest.param("identities", {"ensemble": gue_ensemble(10), "identities": {"z_grid": []}},
                     id="identities_z_grid_empty"),
        pytest.param("identities", {"ensemble": gue_ensemble(10), "identities": {"z_grid": 5}},
                     id="identities_z_grid_not_a_list"),
        pytest.param("theory", {"fluctuation": {**POINT_MASS, "mode": "finite_N", "n": 10.7},
                                "z_grid": [[0.0, 2.0]]}, id="fluctuation_n_fractional"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 4.9},
        }, id="plan_master_seed_fractional"),
        pytest.param("identities", {"ensemble": gue_ensemble(10), "identities": {"seed": 1.5}},
                     id="identities_seed_fractional"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 a w1 a"], "dims": [4, 8, 16],
            "generators": {"a": {"kind": "diag_values", "values": 2.0}}}},
            id="generator_values_not_a_list"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 a w1 a"], "dims": [4, 8, 16],
            "generators": {"a": {"kind": "diag_values", "values": []}}}},
            id="generator_values_empty"),
        # a real-valued key takes a JSON number, not a bool or a numeric string
        pytest.param("density", {"density": {"v": True, "points": 5, **POINT_MASS}},
                     id="density_v_bool"),
        pytest.param("theory", {"fluctuation": {**POINT_MASS, "sigma2": True},
                                "z_grid": [[0.0, 2.0]]}, id="fluctuation_sigma2_bool"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "sigma2": "2"},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="ensemble_sigma2_text"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "s2": True},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="ensemble_s2_bool"),
        pytest.param("simulate", {
            "ensemble": gue_ensemble(10),
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1,
                     "truncation": True},
        }, id="plan_truncation_bool"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(10), "deformation": {
                "quantile_spec": {"kind": "two_point", "a": -1.0, "b": True}}},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="quantile_spec_b_bool"),
        # a list of numbers takes finite JSON numbers, not bools or numeric strings
        pytest.param("density", {"density": {"nu": {"atoms": [["0.5", True]]}, "v": 1.0,
                                             "x_grid": ["1", True]}}, id="density_atom_and_x_grid"),
        pytest.param("density", {"density": {
            "v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
            "test_functions": [{**BUMP, "center": True, "width": True}]}},
            id="bump_center_and_width_bool"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(4), "deformation": {"atoms": [True, "2", 0, 0]}},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="deformation_atoms_bool_and_text"),
        pytest.param("simulate", {
            "ensemble": {**gue_ensemble(4), "entry_law": {
                "name": "custom_discrete", "offdiag": [[True, 0, 0.5], [-1, 0, 0.5]],
                "diag": [[1, 0.5], [-1, 0.5]]}},
            "plan": {"n_samples": 4, "z_grid": [[0.0, 2.0]], "master_seed": 1},
        }, id="custom_law_offdiag_bool"),
        pytest.param("theory", {"fluctuation": {"nu": {"atoms": [[False, "1"]]}},
                                "z_grid": [[0.0, 2.0]]}, id="fluctuation_atom_bool_and_text"),
        pytest.param("density", {"density": {
            "v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
            "test_functions": [{**BUMP, "order": 2.5}]}}, id="bump_order_fractional"),
        pytest.param("density", {"density": {
            "v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
            "test_functions": [{"kind": "capped_polynomial", "coeffs": [1.0],
                                "window": [-1.0, "1"]}]}}, id="capped_polynomial_window_text"),
        pytest.param("density", {"density": {
            "v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
            "test_functions": [{"kind": "grid", "x": [-1.0, 0.0, 1.0],
                                "values": [0.0, True, 0.0]}]}}, id="grid_values_bool"),
        pytest.param("density", {"density": {
            "v": 1.0, "nu": {"atoms": [[0.0, 1.0]]}, "x_grid": [0.0],
            "test_functions": [{"kind": "grid", "x": [1.0, 0.0, -1.0],
                                "values": [0.0, 1.0, 0.0]}]}}, id="grid_x_decreasing"),
        pytest.param("infinitesimal", {"infinitesimal": {
            "words": ["w1 a w1 a"], "dims": [4, 8, 16],
            "generators": {"a": {"kind": "diag_values", "values": [1.0, float("inf")]}}}},
            id="generator_values_infinite"),
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
        assert not out.exists()


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
# configs by output directory (the command, then an optional "-" suffix),
# run in this order from one directory: compare names the report of simulate
# by a relative path, so its config, and the digest stamped in its files, do
# not depend on where the test runs. theory-one-atom is a single atom at
# finite N, so its bao_xie_residual columns are numbers, not NaN.
GOLDEN_CONFIGS = {
    "theory": SMALL_CONFIGS["theory"],
    "theory-one-atom": {
        "fluctuation": {"sigma2": 1.5, "s2": 2, "tau": 0.5, "kappa": -1,
                        "nu": {"atoms": [[0.3, 1.0]]}, "mode": "finite_N", "n": 50},
        "z_grid": [[0.0, 2.0], [1.0, 1.0], [-0.5, 0.25]],
    },
    "simulate": SMALL_CONFIGS["simulate"],
    "compare": {
        "fluctuation": {"from_ensemble": SMALL_CONFIGS["simulate"]["ensemble"]},
        "compare": {"report": "simulate/report.json", "thresholds": {"bias_band": 0.3}},
    },
    "density": SMALL_CONFIGS["density"],
    "infinitesimal": SMALL_CONFIGS["infinitesimal"],
    "identities": SMALL_CONFIGS["identities"],
}
# the first 16 hex digits of the SHA-256 of every file written
GOLDEN = {
    'theory/beta.csv': '3f38b220b020b7ef',
    'theory/gamma.csv': 'c77ace427d6d55e0',
    'theory/theory.json': 'b4c06a03e024535c',
    'theory-one-atom/beta.csv': '860eab98d30ab034',
    'theory-one-atom/gamma.csv': '92ffff9e1e50347a',
    'theory-one-atom/theory.json': 'c6925ce7e4084533',
    'simulate/per_z.csv': '2eafa5800470caa8',
    'simulate/report.json': 'c09b4f4ba1a8e382',
    'compare/compare.json': 'a650c7d7256c0545',
    'compare/compare_bias.csv': '30ca97f3e4b0f175',
    'compare/compare_cov.csv': '744e346325e82324',
    'density/density.csv': 'bacd8917974aabbb',
    'density/density.json': '26df506fbe119f1b',
    'infinitesimal/moments.csv': 'd1fbad612492a416',
    'infinitesimal/moments.json': 'cfb06ed2326e102d',
    'identities/identities.csv': '53db4e50908af04d',
    'identities/identities.json': '82e5eb87c857c57e',
}


def test_output_bytes_are_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, cfg in GOLDEN_CONFIGS.items():
        write(tmp_path, f"{name}.json", cfg)
        main([name.split("-")[0], "--config", f"{name}.json", "--out-dir", name,
              "--threads", "1"])
        for path in sorted(Path(name).iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert digests == GOLDEN


# key paths to config blocks: every top-level block, then the nested ones
CONFIG_BLOCKS = [(command, (block,)) for command, cfg in sorted(SMALL_CONFIGS.items())
                 for block, value in cfg.items() if isinstance(value, dict)] + [
    ("compare", ("compare", "thresholds")),
    ("compare", ("fluctuation", "from_ensemble")),
    ("density", ("density", "nu")),
    ("infinitesimal", ("infinitesimal", "generators")),
    ("infinitesimal", ("infinitesimal", "generators", "a")),
    ("infinitesimal", ("infinitesimal", "mc")),
    ("simulate", ("ensemble", "deformation")),
    ("simulate", ("ensemble", "deformation", "quantile_spec")),
    ("theory", ("fluctuation", "nu")),
]


@pytest.mark.parametrize("command,path", CONFIG_BLOCKS,
                         ids=[f"{c}-{'.'.join(p)}" for c, p in CONFIG_BLOCKS])
def test_block_not_an_object_is_named(tmp_path, capsys, reports, command, path):
    payload = copy.deepcopy(SMALL_CONFIGS[command])
    if command == "compare":
        payload["compare"]["report"] = reports["valid"]
    cfg = write(tmp_path, "cfg.json", mutate(payload, path, [1]))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: block {path[-1]!r} must be a JSON object, not list\n")
    assert not out.exists()


@pytest.mark.parametrize("words", ["w1 w1", [], ["w1 w1", 3], {"w1 w1": 1}])
def test_words_not_a_list_of_strings_is_named(tmp_path, capsys, words):
    cfg = write(tmp_path, "cfg.json", {"infinitesimal": {"words": words, "dims": [4, 8, 16]}})
    out = tmp_path / "out"
    assert main(["infinitesimal", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: infinitesimal.words must be a nonempty list of strings\n")
    assert not out.exists()


@pytest.mark.parametrize("command,block", [("simulate", "plan"), ("density", "density")])
@pytest.mark.parametrize("specs", [{}, 0, False, "", None, BUMP],
                         ids=["empty_object", "zero", "false", "empty_string", "null", "one_spec"])
def test_test_functions_not_a_list_is_named(tmp_path, capsys, command, block, specs):
    cfg = write(tmp_path, "cfg.json", mutate(SMALL_CONFIGS[command], (block, "test_functions"),
                                             specs))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {block}.test_functions must be a JSON list, not {specs!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command,block", [("simulate", "plan"), ("density", "density")])
@pytest.mark.parametrize("absent", [True, False])
def test_test_functions_absent_or_empty_is_legal(tmp_path, command, block, absent):
    payload = copy.deepcopy(SMALL_CONFIGS[command])
    if absent:
        del payload[block]["test_functions"]
    else:
        payload[block]["test_functions"] = []
    cfg = write(tmp_path, "cfg.json", payload)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("values", [[], 2.0, ["x"], [1.0, True]])
def test_generator_values_not_a_list_of_numbers_is_named(tmp_path, capsys, values):
    cfg = write(tmp_path, "cfg.json", {"infinitesimal": {
        "words": ["w1 a w1 a"], "dims": [4, 8, 16],
        "generators": {"a": {"kind": "diag_values", "values": values}}}})
    out = tmp_path / "out"
    assert main(["infinitesimal", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: generator 'a': values must be a nonempty list of numbers\n")
    assert not out.exists()


def test_master_seed_zero_is_legal(tmp_path):
    cfg = write(tmp_path, "cfg.json", mutate(SMALL_CONFIGS["simulate"], ("plan", "master_seed"), 0))
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["master_seed"] == 0


def test_entry_law_not_a_name_or_object_is_named(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", mutate(SMALL_CONFIGS["simulate"], ("ensemble", "entry_law"),
                                             ["x"]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: block 'entry_law' must be a preset name "
                                       "or a JSON object, not list\n")
    assert not out.exists()


NAN, INF = float("nan"), float("inf")
NON_FINITE = [
    ("theory", ("z_grid",), [[NAN, 1.0], [0.0, 2.0]]),
    ("theory", ("pairs",), [[[0.0, 2.0], [1.0, INF]]]),
    ("simulate", ("plan", "z_grid"), [[0.0, NAN]]),
    ("identities", ("identities", "z_grid"), [[-INF, 1.0]]),
    ("density", ("density", "x_grid"), [NAN, 0.5, INF]),
    ("density", ("density", "v"), INF),
    ("infinitesimal", ("infinitesimal", "v"), INF),
    ("compare", ("compare", "thresholds", "bias_band"), -1.0),
    ("compare", ("compare", "thresholds", "bias_band"), NAN),
    ("compare", ("compare", "thresholds", "cov_band"), INF),
    ("compare", ("compare", "thresholds", "cov_band"), 0.0),
]


@pytest.mark.parametrize("command,path,value", NON_FINITE,
                         ids=[f"{c}-{p[-1]}" + (f"={v}" if isinstance(v, float) else "")
                              for c, p, v in NON_FINITE])
def test_non_finite_value_is_config_error(tmp_path, capsys, reports, command, path, value):
    payload = copy.deepcopy(SMALL_CONFIGS[command])
    if command == "compare":
        payload["compare"]["report"] = reports["valid"]
    cfg = write(tmp_path, "cfg.json", mutate(payload, path, value))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "finite" in err
    assert not out.exists()


# finite inputs whose computation overflows, as edits of a small config
# (key path -> value), and the start of the error line: a Python float's
# overflow (a float ** power, also in a Monte Carlo sample, which the line
# names by its index), or the refusal of a result that is not finite (the
# fixed point's fields, a density, an integral against it), which would
# otherwise be written at exit 0
OVERFLOW = "error: OverflowError:"
NOT_FINITE = "error: the fixed point or its derivatives are not finite at z="
NAN_INTEGRAL = "error: integral against rho did not converge: nan"
OVERFLOWS = [
    ("simulate", {("plan", "z_grid", 0, 1): 1e300}, NOT_FINITE),
    ("theory", {("fluctuation", "sigma2"): 1e300}, NOT_FINITE),
    ("theory", {("fluctuation", "tau"): 1e300}, OVERFLOW),  # bias bracket
    ("infinitesimal", {("infinitesimal", "words"): ["w1 w1 w1 w1"],  # xi_exact: v**2
                       ("infinitesimal", "v"): 1e300}, OVERFLOW),
    ("simulate", {("plan", "z_grid", 0, 0): 1e300}, NOT_FINITE),
    ("theory", {("z_grid", 0, 0): 1e300}, NOT_FINITE),
    ("theory", {("z_grid", 0, 1): 1e300}, NOT_FINITE),
    ("theory", {("fluctuation", "nu", "atoms", 0, 0): 1e300}, NOT_FINITE),
    ("density", {("density", "v"): 1e300}, "error: density at x=0.0 is not finite"),
    ("density", {("density", "nu", "atoms", 0, 0): 1e300}, NAN_INTEGRAL),
    ("simulate", {("plan", "test_functions", 0): {"kind": "real_resolvent_pair",
                                                "z": [0.0, 1e300]}},
     "error: sample 0 failed: OverflowError:"),
]


@pytest.mark.parametrize("command,edits,start", OVERFLOWS,
                         ids=[f"{c}-{'.'.join(map(str, [*e][-1]))}" for c, e, _ in OVERFLOWS])
def test_overflow_while_computing_is_one_error_line(tmp_path, capsys, command, edits, start):
    payload = SMALL_CONFIGS[command]
    for path, value in edits.items():
        payload = mutate(payload, path, value)
    cfg = write(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1, err
    assert not out.exists()


def test_refused_density_is_one_line_on_stderr_of_a_process(tmp_path):
    # in-process tests capture numpy's warnings; a real process would print
    # them on stderr before the error line
    cfg = write(tmp_path, "cfg.json", {"density": {
        "nu": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}, "v": 1e300, "points": 201,
        "test_functions": [BUMP]}})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "wignerlab.cli", "density", "--config", cfg,
                          "--out-dir", str(tmp_path / "out")], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == ("error: density at x=-1.9799999999999998e+150 is not finite: "
                          "inf with error nan\n")


# the CSV stems and the JSON file of each command; simulate writes report.json
# under every format and has no other JSON file
OUTPUT_FILES = {
    "theory": (["beta", "gamma"], "theory.json"),
    "simulate": (["per_z"], None),
    "compare": (["compare_bias", "compare_cov"], "compare.json"),
    "density": (["density"], "density.json"),
    "infinitesimal": (["moments"], "moments.json"),
    "identities": (["identities"], "identities.json"),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("command", sorted(OUTPUT_FILES))
def test_format_decides_the_files_written(tmp_path, reports, command, fmt):
    payload = copy.deepcopy(SMALL_CONFIGS[command])
    if command == "compare":
        payload["compare"]["report"] = reports["valid"]
    cfg = write(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out), "--format", fmt,
                 "--threads", "1"]) == 0
    stems, json_name = OUTPUT_FILES[command]
    want = {"report.json"} if command == "simulate" else set()
    if fmt in ("csv", "both"):
        want |= {f"{stem}.csv" for stem in stems}
    if fmt in ("json", "both") and json_name is not None:
        want.add(json_name)
    assert {p.name for p in out.iterdir()} == want


def test_identities_json_holds_the_csv_rows(tmp_path):
    cfg = write(tmp_path, "cfg.json", SMALL_CONFIGS["identities"])
    assert main(["identities", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "identities.json").read_text())
    lines = (tmp_path / "identities.csv").read_text().splitlines()
    assert payload["meta"]["seed"] == 3 and lines[1] == "# seed=3"
    header, *rows = lines[3:]
    keys = header.split(",")
    assert all(sorted(r) == sorted(keys) for r in payload["identities"])
    # a CSV cell is the repr of its number, for ints and floats alike
    assert [",".join(repr(r[k]) for k in keys) for r in payload["identities"]] == rows
    assert len(rows) == SMALL_CONFIGS["identities"]["identities"]["count"]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_non_positive_threads_refused(tmp_path, capsys, threads):
    cfg = write(tmp_path, "cfg.json", SMALL_CONFIGS["theory"])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--config", cfg, "--out-dir", str(out), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


DELETE = object()
ADD_KEY = object()  # adds UNKNOWN to an object of the config
UNKNOWN = "zz_unknown"
# no replacement is a number, so no mutated config asks for more work
REPLACEMENTS = st.one_of(
    st.text(alphabet="xyz ", max_size=3),
    st.lists(st.sampled_from([0, 1, "x", None, []]), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "x"]), st.sampled_from([0, "x", None]), max_size=2),
    st.none(),
)


def object_paths(cfg):
    """Key paths to the config's objects whose keys the program names;
    ``generators`` is left out, as its keys are the user's generator names."""
    return [p for p in value_paths(cfg)
            if isinstance(node_at(cfg, p), dict) and p[-1:] != ("generators",)]


def node_at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


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
    deletable = bool(path) and isinstance(node_at(base, path[:-1]), dict)
    new = REPLACEMENTS | st.just(DELETE) if deletable else REPLACEMENTS
    if path in object_paths(base):
        new |= st.just(ADD_KEY)
    new = data.draw(new, label="new")
    mutated = mutate(base, path + (UNKNOWN,), "x") if new is ADD_KEY else mutate(base, path, new)
    with tempfile.TemporaryDirectory() as root:
        cfg = write(Path(root), "cfg.json", mutated)
        out = Path(root) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg, "--out-dir", str(out)])
        lines = err.getvalue().splitlines()
        assert lines == [] or (len(lines) == 1 and lines[0].startswith(("config error:", "error:")))
        if code == 2:
            assert not out.exists()
        if new is ADD_KEY:
            assert code == 2 and lines[0].startswith(f"config error: unknown key {UNKNOWN!r}")


OBJECT_PATHS = [(command, path) for command in sorted(SMALL_CONFIGS)
                for path in object_paths(SMALL_CONFIGS[command])]


@pytest.mark.parametrize("command,path", OBJECT_PATHS,
                         ids=[f"{c}-{'.'.join(map(str, p)) or 'top'}" for c, p in OBJECT_PATHS])
def test_unknown_key_is_named(tmp_path, capsys, reports, command, path):
    payload = copy.deepcopy(SMALL_CONFIGS[command])
    if command == "compare":
        payload["compare"]["report"] = reports["valid"]
    cfg = write(tmp_path, "cfg.json", mutate(payload, path + (UNKNOWN,), 1))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    # the object is named by the last key on its path
    names = [key for key in path if isinstance(key, str)]
    where = f"block {names[-1]!r}" if names else "the config"
    assert capsys.readouterr().err == f"config error: unknown key {UNKNOWN!r} in {where}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_config_error_creates_no_out_dir(tmp_path, capsys, reports, command):
    payload = copy.deepcopy(SMALL_CONFIGS[command])
    if command == "compare":
        payload["compare"]["report"] = reports["valid"]
    cfg = write(tmp_path, "cfg.json", {**payload, UNKNOWN: 1})
    out = tmp_path / "new" / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown key")
    assert not (tmp_path / "new").exists()


def test_report_bytes_ignore_blas_threads_and_workers(tmp_path):
    # at N=400 a complex eigensolve's last bits depend on the BLAS thread count
    cfg = write(tmp_path, "cfg.json", {"ensemble": gue_ensemble(400), "plan": {
        "n_samples": 4, "z_grid": [[0.0, 2.0], [1.0, 0.5]], "master_seed": 5}})
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    blobs = set()
    for blas in (None, "1", "2"):
        env = base if blas is None else {**base, "OPENBLAS_NUM_THREADS": blas}
        for threads in ("1", "2"):
            out = tmp_path / f"out-{blas}-{threads}"
            subprocess.run([sys.executable, "-m", "wignerlab.cli", "simulate", "--config", cfg,
                            "--out-dir", str(out), "--threads", threads, "--format", "json"],
                           env=env, check=True)
            blobs.add((out / "report.json").read_bytes())
    assert len(blobs) == 1


def loaded_after_cli_import(modules):
    """The given modules that a fresh `import wignerlab.cli` loads."""
    code = f"import sys, wignerlab.cli; print([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import, and no command of the package needs it
    assert loaded_after_cli_import(["scipy.stats"]) == "[]"


SIMULATE_WITHOUT_SCIPY_SPECIAL = """
import json, sys
from wignerlab import cli
from wignerlab.montecarlo import EstimatorReport, normality_check
out = sys.argv[1]
with open(out + ".json", "w") as f:
    json.dump({"ensemble": {"n": 4, "sigma2": 1.0, "entry_law": "gaussian_complex",
                            "deformation": {"quantile_spec": {"kind": "zero"}}},
               "plan": {"n_samples": 500, "z_grid": [[0.0, 2.0]], "master_seed": 3}}, f)
print(cli.main(["simulate", "--config", out + ".json", "--out-dir", out, "--threads", "1"]))
print("scipy.special" in sys.modules)
with open(out + "/report.json") as f:
    rows = normality_check(EstimatorReport.from_json(f.read()))
print(len(rows), all(0.0 < r.ks_pvalue <= 1.0 for r in rows))
"""


def test_simulate_leaves_scipy_special_unloaded(tmp_path):
    # scipy.special costs about 26 MB and 0.4 s at import; only the KS p-value
    # of normality_check needs SciPy, through scipy.stats on its first call
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", SIMULATE_WITHOUT_SCIPY_SPECIAL,
                          str(tmp_path / "sim")], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split("\n") == ["0", "False", "2 True", ""]


def test_compare_reads_reports_with_normality_rows(tmp_path, monkeypatch, reports):
    # the format before the rows moved to normality_check: the same bytes
    # plus a "normality" key, which compare ignores
    text = Path(reports["valid"]).read_text()
    old = json.loads(text)
    old["normality"] = [{"degenerate": True, "ex_kurtosis": 0.0, "ks_pvalue": 0.0,
                         "ks_stat": 0.0, "kurt_se": 0.0, "mean": 1.0, "skew_se": 0.0,
                         "skewness": 0.0, "stat_id": "re_tr_resolvent(2j)", "variance": 0.0}]
    legacy = json.dumps(old, sort_keys=True, separators=(",", ":"))
    cfg = {**SMALL_CONFIGS["compare"],
           "compare": {**SMALL_CONFIGS["compare"]["compare"], "report": "report.json"}}
    written = {}
    for name, blob in (("new", text), ("old", legacy)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("report.json").write_text(blob)
        write(Path.cwd(), "cfg.json", cfg)
        code = main(["compare", "--config", "cfg.json", "--out-dir", "out"])
        written[name] = code, {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
    assert written["old"] == written["new"] and "compare.json" in written["new"][1]


RUNS_ON_TWO_WORKERS = """
import json, sys
from wignerlab import cli
out = sys.argv[1]
for command in ("simulate", "infinitesimal"):
    with open(f"{out}-{command}.json", "w") as f:
        json.dump(json.loads(sys.argv[2])[command], f)
    print(cli.main([command, "--config", f"{out}-{command}.json", "--out-dir",
                    f"{out}-{command}", "--threads", "2"]))
print([m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
"""


def test_cli_import_leaves_process_pool_unloaded(tmp_path):
    # map_samples forks its workers itself, so neither importing the CLI nor
    # a Monte Carlo run on two workers loads multiprocessing
    assert loaded_after_cli_import(["multiprocessing", "concurrent.futures"]) == "[]"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", RUNS_ON_TWO_WORKERS, str(tmp_path / "run"),
                          json.dumps(SMALL_CONFIGS)], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split("\n") == ["0", "0", "[]", ""]


def with_stored_statistics(text: str, edit: bool = False) -> str:
    """A report's bytes in the older format, which stored its per-z, pair and
    test function statistics beside the samples; ``edit`` changes the first
    stored bias_hat and cov_nc."""
    report = EstimatorReport.from_json(text)
    old = json.loads(text)

    def stored(row, **extra):
        row = {**asdict(row), **extra}
        return {k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in row.items()}

    old["per_z"] = [stored(s) for s in report.per_z]
    old["pairs"] = []
    for p in report.pairs:
        u, w = (report.tr_samples[:, report.z_grid.index(z)] for z in (p.z1, p.z2))
        cov_conj, cov_conj_se = _covariance_jackknife(u, np.conj(w))
        old["pairs"].append(stored(p, cov_conj=cov_conj, cov_conj_se=cov_conj_se))
    old["testfn_means"] = {}
    for fn_id, samples in report.fn_samples.items():
        mean, se = mean_and_se(samples)
        old["testfn_means"][fn_id] = {"mean": [mean.real, mean.imag], "se": se}
    if edit:
        old["per_z"][0]["bias_hat"][0] += 100.0
        old["pairs"][0]["cov_nc"][1] -= 100.0
    return json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n"


def test_compare_computes_statistics_from_the_samples(tmp_path, monkeypatch):
    # a report of the older format carries per-z and pair rows; compare
    # reads only its samples, so edited rows change none of its output
    monkeypatch.chdir(tmp_path)
    sim = write(tmp_path, "sim.json", {
        "ensemble": REPORT_ENSEMBLE,
        "plan": {"n_samples": 12, "z_grid": [[0.0, 2.0], [1.0, 1.0]], "master_seed": 4,
                 "test_functions": [BUMP]}})
    assert main(["simulate", "--config", sim, "--out-dir", "sim"]) == 0
    text = (tmp_path / "sim" / "report.json").read_text()
    cfg = {"compare": {"report": "report.json",
                       "thresholds": {"bias_band": 0.1, "cov_band": 0.1}}}
    written = {}
    for name, blob in (("new", text), ("old", with_stored_statistics(text)),
                       ("edited", with_stored_statistics(text, edit=True))):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("report.json").write_text(blob)
        code = main(["compare", "--config", write(Path.cwd(), "cfg.json", cfg),
                     "--out-dir", "out"])
        written[name] = code, {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
    assert written["old"] == written["new"] == written["edited"]
    assert sorted(written["new"][1]) == ["compare.json", "compare_bias.csv", "compare_cov.csv"]
