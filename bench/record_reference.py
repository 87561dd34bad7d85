"""Record the reference tables that theory_grid and theory_inversion check against.

    PYTHONPATH=src python3 bench/record_reference.py

Writes bench/reference/theory_grid.json (a fixed 100-point z grid with beta,
beta_tilde and bias_bound at every point and gamma at every unordered pair;
each theory_grid run draws its grid from these points) and
bench/reference/extend_bias.json (one extend_bias value with its error
estimate). The recorded values are the program's own outputs at the commit
that defined the benchmark; rerun only on purpose, because later commits are
checked against them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from wignerlab import testfn
from wignerlab.freeconv import AtomicMeasure
from wignerlab.theory import FluctuationParams, beta, beta_tilde, bias_bound, extend_bias, gamma_kernel

OUT = Path(__file__).resolve().parent / "reference"
GRID_SIZE = 100
GRID_SEED = 20240809
N_ATOMS = 400


def theory_grid() -> dict:
    # midpoint quantiles of the uniform law on [-1, 1]
    atoms = [[-1.0 + (2 * i + 1) / N_ATOMS, 1.0 / N_ATOMS] for i in range(N_ATOMS)]
    fluctuation = {"sigma2": 1.0, "s2": 1.0, "tau": 1.0, "kappa": -2.0, "nu": {"atoms": atoms},
                   "mode": "finite_N", "n": N_ATOMS}
    params = FluctuationParams(
        sigma2=1.0, s2=1.0, tau=1.0, kappa=-2.0, nu=AtomicMeasure.from_atoms(atoms),
        mode="finite_N", n=N_ATOMS,
    )
    rng = np.random.default_rng(GRID_SEED)
    zs = [complex(round(float(rng.uniform(-3.0, 3.0)), 4), round(float(rng.uniform(0.1, 2.0)), 4))
          for _ in range(GRID_SIZE)]
    rows = []
    for z in zs:
        b, bt = beta(params, z), beta_tilde(params, z)
        rows.append([b.real, b.imag, bt.real, bt.imag, bias_bound(params, z)])
    gamma = []
    for i, z1 in enumerate(zs):
        for z2 in zs[i:]:
            g = gamma_kernel(params, z1, z2).gamma
            gamma.append([g.real, g.imag])
    return {"fluctuation": fluctuation, "z": [[z.real, z.imag] for z in zs],
            "beta": rows, "gamma": gamma}


def extend_bias_value() -> dict:
    inputs = {"sigma2": 1.0, "s2": 1.4, "tau": 0.6, "kappa": -0.5,
              "nu": [[-1.0, 0.5], [1.0, 0.5]], "bump": [0.0, 1.0, 3]}
    params = FluctuationParams(sigma2=inputs["sigma2"], s2=inputs["s2"], tau=inputs["tau"],
                               kappa=inputs["kappa"], nu=AtomicMeasure.from_atoms(inputs["nu"]))
    got = extend_bias(params, testfn.smooth_bump(*inputs["bump"]))
    return {"inputs": inputs, "value": got.value, "error": got.error}


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    (OUT / "theory_grid.json").write_text(json.dumps(theory_grid(), separators=(",", ":")) + "\n")
    (OUT / "extend_bias.json").write_text(json.dumps(extend_bias_value(), indent=1) + "\n")
