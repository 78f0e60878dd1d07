"""The cost of one MH step: `mcmc.mh_chain` timed per step on three
posteriors, optionally against another checkout's package in the same
process.

The posteriors are
- linear: the one `epinverse mcmc` builds for the benchmark's 20 x 12 linear
  problem (problem seed 2025), taken from `cli.cmd_mcmc` at its first pilot,
  with the chain started where the CLI starts its pilots;
- lambda: the criterion-6 fixture's, whose forward map is `lambda x: A @ x`;
- eit: the desk-scale EIT one (282-node mesh, criterion-7 data), with the
  forward map `EITForwardModel.evaluate` and the benchmark's proposal scale.

Each repeat runs one chain per posterior on each package, in alternating
order, and a posterior's figure is the best per-step time over the repeats.
The packages run the same chains; the script reports whether their means,
stds and acceptance rates are equal.

Usage, from the root of a checkout:

    python3 tools/mh_step.py
    python3 tools/mh_step.py --parent other/checkout/src --out mh_step.json

--parent loads another checkout's package beside this one's, under its own
name, and reports the per-repeat ratios this/parent.  Set
OPENBLAS_NUM_THREADS=1 for a single-thread figure.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PROBLEM_SEED = 2025
# the benchmark's linear_ep_mcmc keys for `epinverse mcmc`
LINEAR_KEYS = {
    "problem": "linear", "linear_m": 20, "linear_n": 12, "linear_sparsity": 3,
    "linear_amplitude": 1.0, "alpha": 400.0, "lambda": 2.0, "floor": 0.0, "sigma_bg": 0.0,
    "mcmc_chains": 8, "mcmc_steps": 80_000, "mcmc_burn_in": 8_000, "mcmc_thin": 10,
    "mcmc_init_spread": 0.3, "mcmc_pilot_steps": 4000,
}
EIT_PROPOSAL_STD = 5e-7
# chains per posterior and package, and steps per chain
REPEATS = 100
STEPS = 8000
EIT_STEPS = 200


def load_package(src: Path, name: str):
    """The epinverse package under ``src``, imported as ``name``."""
    init = src / "epinverse" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("cli", "mcmc", "eit"):
        setattr(pkg, sub, importlib.import_module(f"{name}.{sub}"))
    return pkg


class _Caught(Exception):
    pass


def linear_posterior(pkg):
    """The posterior and first init `epinverse mcmc` passes to its first pilot."""
    def catch(post, init, std0, **kwargs):
        raise _Caught(post, init)

    orig = pkg.cli.adapt_proposal
    pkg.cli.adapt_proposal = catch
    try:
        pkg.cli.cmd_mcmc({k: str(v) for k, v in LINEAR_KEYS.items()}, Path("."), PROBLEM_SEED, 1)
    except _Caught as caught:
        return caught.args
    finally:
        pkg.cli.adapt_proposal = orig
    raise RuntimeError("cmd_mcmc made no pilot")


def lambda_posterior(pkg):
    """The criterion-6 fixture's posterior and the centre its pilots start at."""
    rng = np.random.default_rng(2025)
    m, n = 20, 12
    alpha, lam, bg, floor = 400.0, 2.0, 0.0, 0.0
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    x_true = np.zeros(n)
    x_true[rng.choice(n, size=3, replace=False)] = 1.0
    data = A @ x_true + (1.0 / math.sqrt(alpha)) * rng.standard_normal(m)
    prior = pkg.mcmc.LaplacePositivityPrior(lam=lam, bg=bg, floor=floor)
    return pkg.mcmc.Posterior(lambda x: A @ x, data, alpha, prior), np.full(n, 0.2)


def eit_posterior(pkg):
    """The desk-scale EIT posterior, started at the background."""
    eit = pkg.eit
    mesh_f = eit.gen_disk_mesh(eit.TANK_RADIUS, 16, eit.ELECTRODE_COVERAGE, 1200)
    mesh_i = eit.gen_disk_mesh(eit.TANK_RADIUS, 16, eit.ELECTRODE_COVERAGE, 300)
    cfg = eit.default_config()
    sigma_true = eit.paint_disk_inclusion(mesh_f, eit.SIGMA_BG, (0.05, 0.02), 0.035, 0.25 * eit.SIGMA_BG)
    data, _ = eit.synth_data(mesh_f, cfg, sigma_true, 1.0 / math.sqrt(eit.ALPHA_DEFAULT), seed=42)
    model = eit.EITForwardModel(mesh_i, cfg, eit.SIGMA_BG, eit.SIGMA_FLOOR)
    prior = pkg.mcmc.LaplacePositivityPrior(lam=eit.LAMBDA_DEFAULT, bg=eit.SIGMA_BG, floor=eit.SIGMA_FLOOR)
    return pkg.mcmc.Posterior(model.evaluate, data, eit.ALPHA_DEFAULT, prior), np.full(model.n, eit.SIGMA_BG)


POSTERIORS = {"linear": linear_posterior, "lambda": lambda_posterior, "eit": eit_posterior}


def main(argv=None) -> int:
    root = Path(__file__).resolve().parents[1]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, default=None, help="another checkout's src to time against")
    p.add_argument("--out", type=Path, default=None, help="the JSON file to write")
    args = p.parse_args(argv)

    sides = {"this": load_package(root / "src", "epinverse_this")}
    if args.parent is not None:
        sides = {"parent": load_package(args.parent.resolve(), "epinverse_parent"), **sides}
    names = list(sides)
    report = {"repeats": REPEATS, "posteriors": {}}
    for label, build in POSTERIORS.items():
        built = {side: build(pkg) for side, pkg in sides.items()}
        mcmc0 = sides[names[0]].mcmc
        post0, init0 = built[names[0]]
        if label == "eit":
            steps, scale = EIT_STEPS, EIT_PROPOSAL_STD
        else:
            # the scale the CLI's adaptation gives this start, on the first package
            steps = STEPS
            scale = mcmc0.adapt_proposal(post0, init0, 0.1, pilot_steps=4000, seed=PROBLEM_SEED)
        times = {side: [] for side in names}
        results = {}
        for rep in range(REPEATS):
            for side in (names if rep % 2 == 0 else names[::-1]):
                mcmc = sides[side].mcmc
                post, init = built[side]
                cfg = mcmc.ChainConfig(steps=steps, burn_in=steps // 10, thin=10, proposal_std=scale, seed=rep)
                t0 = time.perf_counter()
                res = mcmc.mh_chain(cfg, init, post)
                times[side].append((time.perf_counter() - t0) / steps * 1e6)
                results.setdefault(side, []).append((res.mean, res.std, res.acceptance_rate))
        row = {
            "steps": steps,
            "proposal_std": scale,
            "us_per_step": {side: {"best": min(t), "median": statistics.median(t)} for side, t in times.items()},
            "acceptance": statistics.mean(a for _, _, a in results[names[0]]),
        }
        if len(names) == 2:
            ratios = [b / a for a, b in zip(times["parent"], times["this"])]
            q = statistics.quantiles(ratios, n=4)
            row["ratio_this_over_parent"] = {"median": q[1], "quartiles": [q[0], q[2]],
                                             "this_faster": sum(r < 1.0 for r in ratios)}
            row["identical"] = all(
                np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]
                for a, b in zip(results["parent"], results["this"])
            )
        report["posteriors"][label] = row
        best = ", ".join(f"{side} {v['best']:.2f} us" for side, v in row["us_per_step"].items())
        print(f"{label}: best per step {best}" + (f"; identical {row['identical']}" if "identical" in row else ""))
    text = json.dumps(report, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
