"""The benchmark's four workloads.

Each workload writes its config files once (``prepare``, untimed), makes its
inputs from the seed (``setup``, timed as ``setup_s``), runs the timed calls
into the package's public entry points (``run``) and checks the outputs
against the acceptance thresholds (``check``).  Every call into the package
goes through a module attribute looked up at call time, so the tracer's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

from epinverse import cli, mcmc
from epinverse.eit import cem
from epinverse.eit import mesh as meshmod


class RepeatFailed(Exception):
    """A timed call exited nonzero or reported ``ok: false``."""


@dataclass
class Timed:
    wall_s: float  # the workload's timed calls
    work: int  # EP sweeps or MH steps done in the throughput window
    work_s: float  # wall time of the throughput window
    data: dict = field(default_factory=dict)  # what check() needs


def write_config(path: Path, keys: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def run_cli(command: str, config: Path, out: Path, seed: int) -> dict:
    code = cli.main([command, "--config", str(config), "--out", str(out), "--seed", str(seed)])
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
    if code != 0 or not summary.get("ok"):
        raise RepeatFailed(f"epinverse {command} exited {code}: {summary.get('error')}")
    return summary


@contextmanager
def counted_mh_steps():
    """Count MH steps, pilots included, by wrapping ``mcmc.mh_chain``.

    The wrapper adds one Python call per chain (about 20 per repeat), reads
    no clock, and lets the MH rate count pilot steps, which no output
    records."""
    orig = mcmc.mh_chain
    total = [0]

    def counted(cfg, *args, **kwargs):
        total[0] += cfg.steps
        return orig(cfg, *args, **kwargs)

    mcmc.mh_chain = counted
    try:
        yield total
    finally:
        mcmc.mh_chain = orig


def read_column(path: Path, col: int = 1) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=col, ndmin=1)


def outputs_digest(out: Path) -> str:
    """SHA-256 over every output file; summary.json without its wall time."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "summary.json":
            summary = json.loads(data)
            summary.pop("wall_time_s", None)
            data = json.dumps(summary, sort_keys=True).encode()
        h.update(str(p.relative_to(out)).encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check_finite_csvs(out: Path, names) -> bool:
    """Every numeric cell of the named CSV files is finite."""
    for name in names:
        for row in (out / name).read_text().splitlines():
            values = [v for v in map(_number, row.split(",")) if v is not None]
            if not all_finite(values):
                return False
    return True


def make_linear_problem(keys: dict, seed: int) -> None:
    """The CLI's synthetic linear problem for these config keys and seed."""
    cli._build_linear_problem({k: str(v) for k, v in keys.items()}, seed)


# ---------------------------------------------------------------------------
# EIT inputs: the criterion-7 desk-scale case
# ---------------------------------------------------------------------------

INCLUSION_CENTER = (0.05, 0.02)
INCLUSION_RADIUS = 0.035
INVERSION_TARGET_NODES = 300  # 282 nodes, 202 unknowns
DATA_TARGET_NODES = 1200  # 1149 nodes


def eit_setup(work: Path, seed: int) -> dict:
    """Inversion mesh, then the data: a finer mesh with one inclusion at a
    quarter of the background, one forward solve and seeded noise."""
    work.mkdir(parents=True)
    mesh_cfg = write_config(work / "mesh.cfg", {"target_nodes": INVERSION_TARGET_NODES})
    run_cli("mesh", mesh_cfg, work, seed)
    synth_dir = work / "synth"
    synth_cfg = write_config(
        work / "synth.cfg",
        {
            "fine_target_nodes": DATA_TARGET_NODES,
            "inclusion_cx": INCLUSION_CENTER[0],
            "inclusion_cy": INCLUSION_CENTER[1],
            "inclusion_radius": INCLUSION_RADIUS,
            "inclusion_value": repr(0.25 * cem.SIGMA_BG),
        },
    )
    run_cli("synth", synth_cfg, synth_dir, seed)
    return {"mesh": work / "mesh.txt", "data": synth_dir / "data.csv"}


def dilated_support(mesh, center, radius) -> set[int]:
    """Nodes inside the disk plus every node sharing a triangle with one."""
    r = np.hypot(mesh.nodes[:, 0] - center[0], mesh.nodes[:, 1] - center[1])
    inside = set(np.nonzero(r <= radius)[0].tolist())
    dilated = set(inside)
    for t in mesh.triangles.tolist():
        if inside.intersection(t):
            dilated.update(t)
    return dilated


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class EitEp:
    """``epinverse ep`` with default keys on the desk-scale EIT case."""

    name = "eit_ep"
    work_unit = "ep_sweeps"
    setup_repeats = 7
    # The criterion-7 noise realization, whatever the run's seed: over noise
    # seeds 1-12 the run took 21 to 30 EP sweeps, so a seeded noise would set
    # the time to solution more than the code does.
    noise_seed = 42

    def prepare(self, work: Path, seed: int) -> dict:
        return {}

    def setup(self, work: Path, seed: int, prepared: dict) -> dict:
        inputs = eit_setup(work, self.noise_seed)
        inputs["config"] = write_config(
            work / "ep.cfg", {"problem": "eit", "mesh": inputs["mesh"], "data": inputs["data"]}
        )
        return inputs

    def run(self, inputs: dict, out: Path, seed: int) -> Timed:
        t0 = _clock()
        summary = run_cli("ep", inputs["config"], out, seed)
        wall = _clock() - t0
        return Timed(wall, summary["total_inner_sweeps"], wall, {"summary": summary})

    def check(self, inputs: dict, out: Path, timed: Timed) -> dict:
        s = timed.data["summary"]
        mesh = meshmod.read_mesh(inputs["mesh"])
        mean = read_column(out / "mean.csv")
        std = read_column(out / "std.csv")
        ids = read_column(out / "mean.csv", 0).astype(int)
        dev = np.abs(mean - cem.SIGMA_BG)
        worst = int(ids[int(np.argmax(dev))])
        r = np.hypot(*mesh.nodes[ids].T)
        return {
            "converged": bool(s["converged"]),
            "outer_le_10": s["outer_iterations"] <= 10,
            "inner_le_50": s["total_inner_sweeps"] <= 50,
            "finite": check_finite_csvs(out, ("mean.csv", "std.csv", "cov.csv", "trace.csv")),
            "max_dev_in_dilated_inclusion": worst
            in dilated_support(mesh, INCLUSION_CENTER, INCLUSION_RADIUS),
            "center_std_gt_boundary_std": bool(
                std[r < 0.25 * cem.TANK_RADIUS].mean() > std[r > 0.75 * cem.TANK_RADIUS].mean()
            ),
        }


LINEAR_SMALL = {
    "problem": "linear",
    "linear_m": 20,
    "linear_n": 12,
    "linear_sparsity": 3,
    "linear_amplitude": 1.0,
    "alpha": 400.0,
    "lambda": 2.0,
    "floor": 0.0,
    "sigma_bg": 0.0,
}


class LinearEpMcmc:
    """The EP-vs-MH check: ``ep``, ``mcmc`` and ``compare`` on the 20x12
    linear problem with the criterion-6 keys."""

    name = "linear_ep_mcmc"
    work_unit = "mh_steps"
    setup_repeats = 50
    chains = 8
    steps = 80_000  # R-hat 1.024 on this problem; 40k gave 1.046
    # The CLI makes the problem, the pilots and the chains from one seed.
    # The criterion-6 problem is used whatever the run's seed: on some
    # seeded problems the scalar random-walk proposal does not mix within
    # this budget (seed 9: adapted scale 2.2e-4, R-hat 9.3), and the pilot
    # count, which sets the run length, also varies with the seed.
    problem_seed = 2025

    def prepare(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True)
        ep_cfg = write_config(work / "ep.cfg", {**LINEAR_SMALL, "ep_max_sweeps": 200, "ep_site_tol": 1e-10})
        mcmc_cfg = write_config(
            work / "mcmc.cfg",
            {
                **LINEAR_SMALL,
                "mcmc_chains": self.chains,
                "mcmc_steps": self.steps,
                "mcmc_burn_in": self.steps // 10,
                "mcmc_thin": 10,
                "mcmc_init_spread": 0.3,
                "mcmc_pilot_steps": 4000,
            },
        )
        return {"ep": ep_cfg, "mcmc": mcmc_cfg, "work": work}

    def setup(self, work: Path, seed: int, prepared: dict) -> dict:
        # The CLI makes the problem from the keys and the seed inside each
        # command; making it here is the problem-generation cost.
        make_linear_problem(LINEAR_SMALL, self.problem_seed)
        return prepared

    def run(self, inputs: dict, out: Path, seed: int) -> Timed:
        work = inputs["work"]
        seed = self.problem_seed
        t0 = _clock()
        ep_sum = run_cli("ep", inputs["ep"], out / "ep", seed)
        t1 = _clock()
        with counted_mh_steps() as steps:
            mcmc_sum = run_cli("mcmc", inputs["mcmc"], out / "mcmc", seed)
        t2 = _clock()
        cmp_cfg = write_config(work / "compare.cfg", {"ep_dir": out / "ep", "mcmc_dir": out / "mcmc"})
        cmp_sum = run_cli("compare", cmp_cfg, out / "compare", seed)
        wall = _clock() - t0
        return Timed(wall, steps[0], t2 - t1, {"ep": ep_sum, "mcmc": mcmc_sum, "compare": cmp_sum})

    def check(self, inputs: dict, out: Path, timed: Timed) -> dict:
        ep_std = read_column(out / "ep" / "std.csv")
        mh_std = read_column(out / "mcmc" / "grand_std.csv")
        ratio = ep_std / mh_std
        return {
            "mean_rel_le_5e-2": timed.data["compare"]["mean_rel_2norm"] <= 5e-2,
            "std_ratio_in_0.5_2": bool(np.all((ratio >= 0.5) & (ratio <= 2.0))),
            "rhat_lt_1.05": timed.data["mcmc"]["rhat_max"] < 1.05,
            "finite": check_finite_csvs(out / "ep", ("mean.csv", "std.csv", "cov.csv", "trace.csv"))
            and check_finite_csvs(out / "mcmc", ("grand_mean.csv", "grand_std.csv", "table3.csv"))
            and check_finite_csvs(out / "compare", ("compare.csv",)),
        }


class EitMcmc:
    """``mcmc.run_chains`` on the EIT posterior over the 282-node mesh, two
    in-process chains, a fixed proposal scale and no adaptation."""

    name = "eit_mcmc"
    work_unit = "mh_steps"
    setup_repeats = 7
    chains = 2
    steps = 250
    # Fixed so that no pilot count sets the run length.  Chains start at the
    # prior mode; at 1e-6 some chains accepted no step in 250, at 5e-7 the
    # acceptance was 0.69-0.85 over seeds 1-8.
    proposal_std = 5e-7

    def prepare(self, work: Path, seed: int) -> dict:
        return {}

    def setup(self, work: Path, seed: int, prepared: dict) -> dict:
        inputs = eit_setup(work, seed)
        mesh = meshmod.read_mesh(inputs["mesh"])
        data = read_column(inputs["data"], 2)
        model = cem.EITForwardModel(mesh, cem.default_config(), cem.SIGMA_BG, cem.SIGMA_FLOOR)
        prior = mcmc.LaplacePositivityPrior(lam=cem.LAMBDA_DEFAULT, bg=cem.SIGMA_BG, floor=cem.SIGMA_FLOOR)
        inputs["posterior"] = mcmc.Posterior(model.evaluate, data, cem.ALPHA_DEFAULT, prior)
        inputs["init"] = np.full(model.n, cem.SIGMA_BG)
        return inputs

    def run(self, inputs: dict, out: Path, seed: int) -> Timed:
        configs = [
            mcmc.ChainConfig(
                steps=self.steps,
                burn_in=self.steps // 5,
                thin=5,
                proposal_std=self.proposal_std,
                seed=seed * 100003 + 17 * k,
            )
            for k in range(self.chains)
        ]
        inits = [inputs["init"].copy() for _ in range(self.chains)]
        t0 = _clock()
        chains = mcmc.run_chains(configs, inits, inputs["posterior"], workers=1)
        wall = _clock() - t0
        out.mkdir(parents=True)
        np.save(out / "chains.npy", np.stack([np.concatenate([c.mean, c.std]) for c in chains]))
        (out / "acceptance.json").write_text(json.dumps([c.acceptance_rate for c in chains]))
        return Timed(wall, self.chains * self.steps, wall, {"chains": chains})

    def check(self, inputs: dict, out: Path, timed: Timed) -> dict:
        chains = timed.data["chains"]
        return {
            "finite": all_finite(*[c.mean for c in chains], *[c.std for c in chains]),
            "acceptance_in_0_1": all(0.0 < c.acceptance_rate < 1.0 for c in chains),
            "above_floor": all(bool(np.all(c.mean >= cem.SIGMA_FLOOR)) for c in chains),
        }


class LinearEpLarge:
    """``epinverse ep`` on a 200x400 linear problem with the sweeps capped."""

    name = "linear_ep_large"
    work_unit = "ep_sweeps"
    setup_repeats = 20
    max_outer = 1
    max_sweeps = 2

    keys = {**LINEAR_SMALL, "linear_m": 200, "linear_n": 400}

    def prepare(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True)
        cfg = write_config(
            work / "ep.cfg", {**self.keys, "ep_max_outer": self.max_outer, "ep_max_sweeps": self.max_sweeps}
        )
        return {"config": cfg}

    def setup(self, work: Path, seed: int, prepared: dict) -> dict:
        make_linear_problem(self.keys, seed)
        return prepared

    def run(self, inputs: dict, out: Path, seed: int) -> Timed:
        t0 = _clock()
        summary = run_cli("ep", inputs["config"], out, seed)
        wall = _clock() - t0
        return Timed(wall, summary["total_inner_sweeps"], wall, {"summary": summary})

    def check(self, inputs: dict, out: Path, timed: Timed) -> dict:
        s = timed.data["summary"]
        return {
            "n_400": s["n"] == 400,
            "sweeps_at_cap": s["total_inner_sweeps"] == self.max_outer * self.max_sweeps,
            "finite": check_finite_csvs(out, ("mean.csv", "std.csv", "cov.csv", "trace.csv")),
        }


WORKLOADS = {w.name: w for w in (EitEp(), LinearEpMcmc(), EitMcmc(), LinearEpLarge())}
