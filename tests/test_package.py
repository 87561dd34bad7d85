import ast
import copy
import importlib
import json
import importlib.util
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wignerlab
from wignerlab.cli import EXIT_CONFIG, main
from wignerlab.montecarlo import NORMALITY_MIN_SAMPLES

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(wignerlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"wignerlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from wignerlab.{name} import *", {})


def test_readme_module_table_names_every_module():
    named = re.findall(r"^\| `wignerlab\.(\w+)` \|", README.read_text(), re.MULTILINE)
    assert sorted(named) == MODULES


# the command of a README config: that of the first of these top-level keys it has
EXAMPLE_COMMANDS = {"plan": "simulate", "compare": "compare", "density": "density",
                    "infinitesimal": "infinitesimal", "identities": "identities",
                    "fluctuation": "theory"}


def readme_examples() -> list[tuple[str, dict]]:
    """(command, config) of each JSON example of the README, in its order."""
    configs = [json.loads(text) for text in
               re.findall(r"^```json\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)]
    return [(next(EXAMPLE_COMMANDS[key] for key in EXAMPLE_COMMANDS if key in cfg), cfg)
            for cfg in configs]


def test_readme_json_examples_are_read_by_their_commands(tmp_path, monkeypatch):
    # simulate runs first, into out/, whose report.json the compare example reads
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert {"simulate", "compare"} <= {command for command, _ in examples}
    for i, (command, cfg) in sorted(enumerate(examples), key=lambda item: item[1][0] != "simulate"):
        if command == "simulate":
            cfg["plan"]["n_samples"] = 20
        if command == "infinitesimal" and "mc" in cfg["infinitesimal"]:
            cfg["infinitesimal"]["mc"]["n_samples"] = 1000  # the cross-check's minimum
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
        out = "out" if command == "simulate" else f"out-{i}"
        code = main([command, "--config", f"{i}.json", "--out-dir", out, "--threads", "1"])
        assert code != EXIT_CONFIG, f"README example {i} ({command})"


def number_paths(node, path=()):
    """Key paths to the numbers in a JSON value."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from number_paths(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def csv_cells(out: Path) -> dict:
    """Each column of the CSV tables in ``out``, keyed by (file name, header):
    its cells as floats, None for a cell that is not a number."""
    def number(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    cells = {}
    for path in sorted(out.glob("*.csv")):
        header, *rows = [line.split(",") for line in path.read_text().splitlines()
                         if not line.startswith("#")]
        for j, name in enumerate(header):
            cells[path.name, name] = [number(row[j]) for row in rows]
    return cells


def test_readme_examples_at_extreme_numbers_keep_the_exit_codes(tmp_path, monkeypatch, capsys):
    # each number of each example but compare's, in turn, huge and then
    # subnormal: a finite input ends in exit 0, 1 or 2, and a failure in one
    # error line, never a traceback. At exit 0 no CSV column that is finite
    # for the unedited example holds a NaN. The Monte Carlo runs are cut short.
    monkeypatch.chdir(tmp_path)
    for command, cfg in readme_examples():
        if command == "compare":
            continue
        if command == "simulate":
            cfg["plan"]["n_samples"] = 2
        if command == "infinitesimal" and "mc" in cfg["infinitesimal"]:
            cfg["infinitesimal"]["mc"].update(n_dim=6, n_samples=1000)
        Path("cfg.json").write_text(json.dumps(cfg))
        base = f"base-{command}"
        assert main([command, "--config", "cfg.json", "--out-dir", base, "--threads", "1"]) == 0
        finite = [key for key, cells in csv_cells(Path(base)).items()
                  if all(c is not None and math.isfinite(c) for c in cells)]
        for path in list(number_paths(cfg)):
            for value in (1e300, 1e-320):
                edited = copy.deepcopy(cfg)
                node = edited
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                Path("cfg.json").write_text(json.dumps(edited))
                shutil.rmtree("out", ignore_errors=True)
                code = main([command, "--config", "cfg.json", "--out-dir", "out", "--threads", "1"])
                err = capsys.readouterr().err
                where = f"{command} with {'.'.join(map(str, path))} = {value}: {err}"
                assert code in (0, 1, 2), where
                if code:
                    assert "Traceback" not in err, where
                    assert err.splitlines()[-1].startswith(("error:", "config error:")), where
                else:
                    cells = csv_cells(Path("out"))
                    assert [key for key in finite if any(c is not None and math.isnan(c)
                                                         for c in cells[key])] == [], where


def test_package_imports_cleanly():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", "import wignerlab"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _private_imports(path):
    """(module, name) for each underscore name a module imports from a sibling."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("wignerlab"):
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append((node.module, alias.name))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_imported_across_modules(name):
    path = Path(wignerlab.__path__[0]) / f"{name}.py"
    assert _private_imports(path) == []


def test_traced_names_exist(monkeypatch):
    # the benchmark's tracer wraps these names with getattr under --trace 1
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{m}.{n}" for m, names in tracer.FUNCTIONS.items() for n in names
               if not callable(getattr(importlib.import_module(f"wignerlab.{m}"), n, None))]
    missing += [f"{m}.{c}.{n}" for m, c, n in tracer.METHODS
                if not callable(getattr(getattr(importlib.import_module(f"wignerlab.{m}"), c,
                                                None), n, None))]
    assert missing == []


CLI_TRAFFIC = """
import json, sys
from wignerlab import cli
runs = json.loads(sys.argv[1])
codes = [cli.main([command, "--config", path, "--out-dir", out, "--threads", "1"])
         for command, path, out in runs]
print(codes.count(cli.EXIT_CONFIG), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from wignerlab.montecarlo import EstimatorReport, normality_check
with open("out/report.json") as f:
    rows = normality_check(EstimatorReport.from_json(f.read()))
print(len(rows), all(0.0 < r.ks_pvalue <= 1.0 for r in rows))
"""


def test_commands_leave_scipy_unloaded_until_normality_check(tmp_path):
    # every README example, simulate first, in one fresh interpreter: no
    # command loads any scipy module, and normality_check then runs on the
    # simulated report (loading scipy.stats for its KS rows). The simulation
    # is cut to the 500 samples normality_check needs, at N = 40.
    runs = []
    for i, (command, cfg) in sorted(enumerate(readme_examples()),
                                    key=lambda item: item[1][0] != "simulate"):
        if command == "simulate":
            cfg["ensemble"]["n"] = 40
            cfg["plan"]["n_samples"] = NORMALITY_MIN_SAMPLES
        if command == "infinitesimal" and "mc" in cfg["infinitesimal"]:
            cfg["infinitesimal"]["mc"]["n_samples"] = 1000  # the cross-check's minimum
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
        runs.append((command, f"{i}.json", "out" if command == "simulate" else f"out-{i}"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", CLI_TRAFFIC, json.dumps(runs)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["0 []", "7 True", ""]
