"""Batch command-line front end.

Commands: `ep`, `mcmc`, `compare`, `synth`, `mesh`; each reads a flat
key-value config (see config.py), writes node-indexed CSV artifacts plus a
versioned summary.json into the output directory, and is reproducible
bit-for-bit from (config, seed).  Numeric CSV output uses full-precision
scientific notation.  No plots are rendered; the CSVs are the plotting
contract.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigKeyError
from .ep import DOWNDATE_POLICIES, FULL_COV_MAX_N, SWEEP_MODES, EPOptions, Site
from .errors import ElectrodeCountMismatch, EpinverseError, MeshFileError
from .factors import LaplacePositivityFactor
from .mcmc import (
    ChainConfig,
    LaplacePositivityPrior,
    Posterior,
    adapt_proposal,
    multi_chain_report,
    overdispersed_inits,
    run_chains,
)
from .nonlinear import ForwardModel, LinearModel, NonlinearOptions, run_nonlinear
from .eit import cem
from .eit.mesh import gen_disk_mesh, read_mesh, write_mesh

SCHEMA_VERSION = 3

# The OpenBLAS builds bundled with numpy and scipy, and their thread-count
# entry points (set, get): matrix products run on numpy's, the LAPACK and
# BLAS wrappers of scipy.linalg on scipy's.
_OPENBLAS = (
    ("numpy", "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _openblas_entry_points() -> tuple[tuple, ...]:
    """(set, get) of every bundled OpenBLAS found; a package whose library or
    entry points are missing is left out."""
    found = []
    for package, set_name, get_name in _OPENBLAS:
        try:
            root = Path(__import__(package).__file__).parent.parent / f"{package}.libs"
            lib = ctypes.CDLL(str(next(root.glob("libscipy_openblas*.so*"))))
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except (StopIteration, OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        found.append((set_threads, get_threads))
    return tuple(found)


def _pin_blas_threads() -> int | None:
    """Run BLAS on one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
    says otherwise.  At desk scale the BLAS calls are small, and a second
    thread costs more in hand-offs than it gains: on a 2-core machine the
    desk-scale serial ``ep`` run took 2.4-3.8 s with two threads against
    0.6 s with one.  Returns the effective thread count, or None when no
    bundled OpenBLAS is found."""
    entry_points = _openblas_entry_points()
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        for set_threads, _ in entry_points:
            set_threads(1)
    counts = [get_threads() for _, get_threads in entry_points]
    return max(counts) if counts else None


def _fmt(v: float) -> str:
    return f"{float(v):.17e}"


def _write_vector_csv(path: Path, ids, values, name: str) -> None:
    lines = [f"node,{name}"]
    lines += [f"{int(i)},{_fmt(v)}" for i, v in zip(ids, values)]
    path.write_text("\n".join(lines) + "\n")


def _read_vector_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]
    ids = np.array([int(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    return ids, vals


def _write_matrix_csv(path: Path, M: np.ndarray) -> None:
    # one format string per row: the same text as _fmt per cell, in about
    # 60 % of the time
    row_fmt = ",".join(["%.17e"] * M.shape[1])
    lines = [row_fmt % tuple(row.tolist()) for row in M]
    path.write_text("\n".join(lines) + "\n")


def _write_trace_csv(path: Path, rows) -> None:
    lines = ["outer,inner,e_p_mu,e_f_mu,e_p_C,e_f_C"]
    for r in rows:
        lines.append(
            f"{r.outer},{r.inner},{_fmt(r.e_p_mu)},{_fmt(r.e_f_mu)},{_fmt(r.e_p_C)},{_fmt(r.e_f_C)}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_data_csv(path: Path, cfg: cem.CEMConfig, data: np.ndarray) -> None:
    lines = ["pattern_id,electrode_id,voltage"]
    lines += [f"{p},{l},{_fmt(v)}" for (p, l), v in zip(np.argwhere(cfg.kept_mask()), data)]
    path.write_text("\n".join(lines) + "\n")


def _read_data_csv(path: Path, cfg: cem.CEMConfig) -> np.ndarray:
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]
    expected = [(int(p), int(l)) for p, l in np.argwhere(cfg.kept_mask())]
    if len(rows) != len(expected):
        raise ConfigKeyError(
            f"data file has {len(rows)} rows, expected {len(expected)}", "data_shape_mismatch"
        )
    vals = np.empty(len(rows))
    for k, (row, (p, l)) in enumerate(zip(rows, expected)):
        try:
            index, value = (int(row[0]), int(row[1])), float(row[2])
        except (ValueError, IndexError) as exc:
            raise ConfigKeyError(f"data row {k} is malformed: {exc}", "bad_data") from exc
        if index != (p, l):
            raise ConfigKeyError(
                f"data row {k} is ({row[0]}, {row[1]}), expected ({p}, {l})",
                "data_shape_mismatch",
            )
        if not math.isfinite(value):
            raise ConfigKeyError(f"data row {k} has a non-finite voltage {value}", "bad_data")
        vals[k] = value
    return vals


def _cem_config_from(cfg: dict[str, str]) -> cem.CEMConfig:
    L = cfgmod.get_int(cfg, "electrodes", cem.N_ELECTRODES)
    z_raw = cfgmod.get_str(cfg, "impedances", "default")
    if z_raw == "default":
        z = cem.default_config(L).z
    else:
        z = np.asarray(cfgmod.get_float_list(cfg, "impedances"))
        if z.shape != (L,) or not np.all(z > 0.0):
            raise ConfigKeyError(f"impedances must list {L} positive values", "bad_impedances")
    pat_raw = cfgmod.get_str(cfg, "patterns", "adjacent")
    if pat_raw == "adjacent":
        patterns = cem.adjacent_patterns(L)
    else:
        patterns = [_parse_pattern(tok, L) for tok in pat_raw.split(",")]
    amplitude = cfgmod.get_float(cfg, "amplitude", cem.CURRENT_AMPLITUDE)
    return cem.CEMConfig(z=z, patterns=patterns, amplitude=amplitude)


def _parse_pattern(tok: str, L: int) -> tuple[int, int]:
    """One ``a-b`` injection pair of distinct electrodes in 0..L-1."""
    try:
        a, b = (int(v) for v in tok.split("-"))
    except ValueError:
        a = b = -1
    if a == b or not (0 <= a < L and 0 <= b < L):
        raise ConfigKeyError(f"pattern {tok!r} is not a-b with distinct electrodes in 0..{L - 1}", "bad_patterns")
    return a, b


def _read_mesh_key(cfg: dict[str, str], key: str):
    """The mesh in the file named by ``key``; a bad file is ``bad_<key>``."""
    path = cfgmod.get_existing_path(cfg, key, "mesh_not_found")
    try:
        return read_mesh(path)
    except MeshFileError as exc:
        raise ConfigKeyError(f"key {key!r}: {exc}", f"bad_{key}") from exc


def _build_linear_problem(cfg: dict[str, str], seed: int):
    """Deterministic synthetic linear problem shared by ep and mcmc."""
    m = _check_positive(cfgmod.get_int(cfg, "linear_m", 20), "linear_m")
    n = _check_positive(cfgmod.get_int(cfg, "linear_n", 12), "linear_n")
    k_sparse = cfgmod.get_int(cfg, "linear_sparsity", 3)
    _check(k_sparse, 0 <= k_sparse <= n, "linear_sparsity", f"lie in [0, {n}]")
    amp = cfgmod.get_float(cfg, "linear_amplitude", 1.0)
    alpha = _check_positive(cfgmod.get_float(cfg, "alpha", 400.0), "alpha")
    lam = _check_positive(cfgmod.get_float(cfg, "lambda", 2.0), "lambda")
    floor = cfgmod.get_float(cfg, "floor", 0.0)
    bg = cfgmod.get_float(cfg, "sigma_bg", 0.0)
    rng = np.random.default_rng(seed)
    if cfgmod.get_bool(cfg, "linear_diagonal", False):
        if m != n:
            raise ConfigKeyError("linear_diagonal requires linear_m == linear_n", "bad_linear_diagonal")
        A = np.diag(rng.uniform(0.5, 1.5, size=n))
    else:
        A = rng.standard_normal((m, n)) / math.sqrt(m)
    x_true = np.full(n, bg)
    idx = rng.choice(n, size=k_sparse, replace=False)
    x_true[idx] = bg + amp
    noise_std = 1.0 / math.sqrt(alpha)
    data = A @ x_true + noise_std * rng.standard_normal(m)
    model = LinearModel(A)
    return model, data, alpha, lam, bg, floor, x_true


@dataclass(frozen=True)
class _Problem:
    """One posterior as both ep and mcmc see it, plus the MH chain centre and
    initial proposal scale for it."""

    name: str
    model: ForwardModel
    data: np.ndarray
    alpha: float
    lam: float
    bg: float
    floor: float
    node_ids: np.ndarray
    center: np.ndarray
    proposal_std: float


def _build_problem(cfg: dict[str, str], seed: int) -> _Problem:
    """The linear or EIT problem named by the ``problem`` key."""
    problem = cfgmod.get_str(cfg, "problem")
    if problem == "linear":
        model, data, alpha, lam, bg, floor, _ = _build_linear_problem(cfg, seed)
        center = np.full(model.n, max(bg, floor))
        return _Problem(problem, model, data, alpha, lam, bg, floor, np.arange(model.n), center, 0.1)
    if problem == "eit":
        mesh = _read_mesh_key(cfg, "mesh")
        cem_cfg = _cem_config_from(cfg)
        data = _read_data_csv(cfgmod.get_existing_path(cfg, "data", "data_not_found"), cem_cfg)
        alpha = _check_positive(cfgmod.get_float(cfg, "alpha", cem.ALPHA_DEFAULT), "alpha")
        lam = _check_positive(cfgmod.get_float(cfg, "lambda", cem.LAMBDA_DEFAULT), "lambda")
        floor = cfgmod.get_float(cfg, "floor", cem.SIGMA_FLOOR)
        bg = cfgmod.get_float(cfg, "sigma_bg", cem.SIGMA_BG)
        model = cem.EITForwardModel(mesh, cem_cfg, bg, floor)
        center = np.full(model.n, bg)
        return _Problem(problem, model, data, alpha, lam, bg, floor, mesh.interior_node_ids, center, 0.05 * bg)
    raise ConfigKeyError(f"unknown problem {problem!r}", "bad_problem")


def _ep_options(cfg: dict[str, str]) -> EPOptions:
    return EPOptions(
        max_sweeps=_check_positive(cfgmod.get_int(cfg, "ep_max_sweeps", 5), "ep_max_sweeps"),
        site_tol=_check_positive(cfgmod.get_float(cfg, "ep_site_tol", 1e-4), "ep_site_tol"),
        sweep_mode=cfgmod.get_choice(cfg, "ep_sweep_mode", SWEEP_MODES),
        on_downdate_failure=cfgmod.get_choice(cfg, "ep_on_downdate_failure", DOWNDATE_POLICIES),
    )


def _check(value, ok: bool, key: str, rule: str):
    """``value``, or the config error ``bad_<key>`` when it breaks ``rule``."""
    if not ok:
        raise ConfigKeyError(f"key {key!r} must {rule}, got {value}", f"bad_{key}")
    return value


def _check_positive(value, key: str):
    return _check(value, value > 0.0, key, "be > 0")


def cmd_ep(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    inner = _ep_options(cfg)
    p = _build_problem(cfg, seed)
    n = p.model.n
    prior = LaplacePositivityFactor(p.lam, p.bg, p.floor)
    sites = [Site(np.eye(1, n, i), prior) for i in range(n)]
    opts = NonlinearOptions(
        alpha=p.alpha,
        max_outer=_check_positive(cfgmod.get_int(cfg, "ep_max_outer", 10), "ep_max_outer"),
        outer_tol=_check_positive(cfgmod.get_float(cfg, "ep_outer_tol", 1e-3), "ep_outer_tol"),
        inner=inner,
        floor=p.floor if math.isfinite(p.floor) else None,
    )
    res = run_nonlinear(p.model, p.data, sites, opts, np.full(n, p.bg))

    std = np.sqrt(np.diag(res.cov))
    _write_vector_csv(out / "mean.csv", p.node_ids, res.mean, "mean")
    _write_vector_csv(out / "std.csv", p.node_ids, std, "std")
    if n <= FULL_COV_MAX_N:
        _write_matrix_csv(out / "cov.csv", res.cov)
    _write_trace_csv(out / "trace.csv", res.trace)
    return {
        "problem": p.name,
        "n": int(n),
        "outer_iterations": res.outer_iters,
        "total_inner_sweeps": int(sum(r.inner_sweeps for r in res.outer_records)),
        "converged": bool(res.converged),
        "ep_sweep_mode": inner.sweep_mode,
        "skipped_sites": [
            {"outer": outer, "sweep": s.sweep, "site": s.index, "reason": s.reason}
            for outer, s in res.skipped_sites
        ],
        "tau": [r.tau for r in res.outer_records],
    }


def cmd_mcmc(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    p = _build_problem(cfg, seed)
    prior = LaplacePositivityPrior(lam=p.lam, bg=p.bg, floor=p.floor)
    post = Posterior(p.model.evaluate, p.data, p.alpha, prior)

    n_chains = cfgmod.get_int(cfg, "mcmc_chains", 8)
    if n_chains < 2:
        raise ConfigKeyError(f"key 'mcmc_chains' must be >= 2, got {n_chains}", "bad_mcmc_chains")
    steps = _check_positive(cfgmod.get_int(cfg, "mcmc_steps", 1_000_000), "mcmc_steps")
    burn_in = cfgmod.get_int(cfg, "mcmc_burn_in", steps // 10)
    if not 0 <= burn_in < steps:
        raise ConfigKeyError(f"key 'mcmc_burn_in' must lie in [0, {steps}), got {burn_in}", "bad_mcmc_burn_in")
    thin = _check_positive(cfgmod.get_int(cfg, "mcmc_thin", 10), "mcmc_thin")
    pilot_steps = _check_positive(cfgmod.get_int(cfg, "mcmc_pilot_steps", 4000), "mcmc_pilot_steps")
    init_spread = cfgmod.get_float(cfg, "mcmc_init_spread", 0.0)

    std0 = cfgmod.get_float(cfg, "mcmc_proposal_std", p.proposal_std)
    _check(std0, 0.0 < std0 < math.inf, "mcmc_proposal_std", "be finite and > 0")
    adapted = adapt_proposal(post, p.center, std0, pilot_steps=pilot_steps, seed=seed)
    inits = (
        overdispersed_inits(p.center, init_spread, n_chains, seed=seed, floor=p.floor)
        if init_spread > 0.0
        else [p.center.copy() for _ in range(n_chains)]
    )
    same_seed = cfgmod.get_bool(cfg, "mcmc_same_seed", False)
    chain_cfgs = [
        ChainConfig(
            steps=steps,
            burn_in=burn_in,
            thin=thin,
            proposal_std=adapted,
            seed=seed if same_seed else seed * 100003 + 17 * k,
        )
        for k in range(n_chains)
    ]
    if same_seed:
        inits = [inits[0].copy() for _ in range(n_chains)]
    chains = run_chains(chain_cfgs, inits, post, workers=threads)

    for k, ch in enumerate(chains):
        lines = [f"# acceptance_rate={ch.acceptance_rate!r} samples_kept={ch.samples_kept} seed={ch.seed}"]
        lines.append("node,mean,std")
        lines += [
            f"{int(i)},{_fmt(m)},{_fmt(s)}" for i, m, s in zip(p.node_ids, ch.mean, ch.std)
        ]
        (out / f"chain_{k}.csv").write_text("\n".join(lines) + "\n")

    rep = multi_chain_report(chains)
    case = cfgmod.get_str(cfg, "case", "default")
    table = ["case,mean-err,std-err,R-hat"]
    table.append(f"{case},{_fmt(rep.mean_err)},{_fmt(rep.std_err)},{_fmt(rep.rhat_max)}")
    (out / "table3.csv").write_text("\n".join(table) + "\n")
    _write_vector_csv(out / "grand_mean.csv", p.node_ids, rep.grand_mean, "mean")
    _write_vector_csv(out / "grand_std.csv", p.node_ids, rep.grand_std, "std")
    return {
        "problem": p.name,
        "chains": n_chains,
        "steps": steps,
        "proposal_std": adapted,
        "acceptance_rates": rep.acceptance_rates,
        "mean_err": rep.mean_err,
        "std_err": rep.std_err,
        "rhat_max": rep.rhat_max,
    }


def cmd_compare(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    ep_dir = Path(cfgmod.get_str(cfg, "ep_dir"))
    mcmc_dir = Path(cfgmod.get_str(cfg, "mcmc_dir"))
    for p, code in ((ep_dir / "mean.csv", "ep_outputs_not_found"),
                    (mcmc_dir / "grand_mean.csv", "mcmc_outputs_not_found")):
        if not p.is_file():
            raise ConfigKeyError(f"{p} not found", code)
    ids_e, mean_e = _read_vector_csv(ep_dir / "mean.csv")
    _, std_e = _read_vector_csv(ep_dir / "std.csv")
    ids_m, mean_m = _read_vector_csv(mcmc_dir / "grand_mean.csv")
    _, std_m = _read_vector_csv(mcmc_dir / "grand_std.csv")
    if ids_e.shape != ids_m.shape or not np.array_equal(ids_e, ids_m):
        raise ConfigKeyError("ep and mcmc outputs index different nodes", "shape_mismatch")

    denom_m = np.maximum(np.abs(mean_m), 1e-300)
    denom_s = np.maximum(np.abs(std_m), 1e-300)
    lines = ["node,mean_rel_diff,std_rel_diff"]
    for i, dm, ds in zip(ids_e, np.abs(mean_e - mean_m) / denom_m, np.abs(std_e - std_m) / denom_s):
        lines.append(f"{int(i)},{_fmt(dm)},{_fmt(ds)}")
    mean_rel_2norm = float(np.linalg.norm(mean_e - mean_m) / max(np.linalg.norm(mean_m), 1e-300))
    std_rel_2norm = float(np.linalg.norm(std_e - std_m) / max(np.linalg.norm(std_m), 1e-300))
    lines.append(f"ALL,{_fmt(mean_rel_2norm)},{_fmt(std_rel_2norm)}")
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    return {"mean_rel_2norm": mean_rel_2norm, "std_rel_2norm": std_rel_2norm}


def cmd_synth(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    if "noise_std" in cfg:
        noise_std = cfgmod.get_float(cfg, "noise_std")
        _check(noise_std, 0.0 <= noise_std < math.inf, "noise_std", "be finite and >= 0")
    else:
        noise_std = 1.0 / math.sqrt(_check_positive(cfgmod.get_float(cfg, "alpha", cem.ALPHA_DEFAULT), "alpha"))
    mesh_key = cfgmod.get_str(cfg, "fine_mesh", "")
    if mesh_key:
        mesh = _read_mesh_key(cfg, "fine_mesh")
    else:
        mesh = gen_disk_mesh(
            cfgmod.get_float(cfg, "radius", cem.TANK_RADIUS),
            cfgmod.get_int(cfg, "electrodes", cem.N_ELECTRODES),
            cfgmod.get_float(cfg, "electrode_coverage", cem.ELECTRODE_COVERAGE),
            cfgmod.get_int(cfg, "fine_target_nodes", 1200),
        )
        write_mesh(mesh, out / "fine_mesh.txt")
    cem_cfg = _cem_config_from(cfg)
    bg = cfgmod.get_float(cfg, "sigma_bg", cem.SIGMA_BG)
    sigma_true = np.full(mesh.n_nodes, bg)
    if "inclusion_cx" in cfg:
        sigma_true = cem.paint_disk_inclusion(
            mesh,
            bg,
            (cfgmod.get_float(cfg, "inclusion_cx"), cfgmod.get_float(cfg, "inclusion_cy")),
            cfgmod.get_float(cfg, "inclusion_radius"),
            cfgmod.get_float(cfg, "inclusion_value"),
        )
    data, truth = cem.synth_data(mesh, cem_cfg, sigma_true, noise_std, seed)
    _write_data_csv(out / "data.csv", cem_cfg, data)
    _write_vector_csv(out / "sigma_true.csv", np.arange(mesh.n_nodes), sigma_true, "sigma")
    (out / "truth.json").write_text(
        json.dumps(
            {
                "seed": truth["seed"],
                "noise_std": truth["noise_std"],
                "sigma_bg": bg,
                "n_measurements": int(data.shape[0]),
            },
            indent=2,
        )
        + "\n"
    )
    return {"n_measurements": int(data.shape[0]), "noise_std": noise_std, "fine_nodes": mesh.n_nodes}


def cmd_mesh(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    mesh = gen_disk_mesh(
        cfgmod.get_float(cfg, "radius", cem.TANK_RADIUS),
        cfgmod.get_int(cfg, "electrodes", cem.N_ELECTRODES),
        cfgmod.get_float(cfg, "electrode_coverage", cem.ELECTRODE_COVERAGE),
        cfgmod.get_int(cfg, "target_nodes", 424),
    )
    name = cfgmod.get_str(cfg, "mesh_file", "mesh.txt")
    write_mesh(mesh, out / name)
    return {
        "nodes": mesh.n_nodes,
        "triangles": mesh.n_triangles,
        "interior_nodes": len(mesh.interior_node_ids),
        "file": name,
    }


_COMMANDS = {
    "ep": cmd_ep,
    "mcmc": cmd_mcmc,
    "compare": cmd_compare,
    "synth": cmd_synth,
    "mesh": cmd_mesh,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="epinverse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.add_argument("--threads", type=int, default=1, help="worker processes for chains")
    args = parser.parse_args(argv)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "ok": False,
        "error": None,
        "blas_threads": _pin_blas_threads(),
    }
    out = Path(args.out) if args.out else None
    t0 = time.time()
    try:
        cfg = cfgmod.load_config(args.config)
        if out is None:
            out = Path(cfgmod.get_str(cfg, "out", "."))
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else cfgmod.get_int(cfg, "seed", 0)
        summary["seed"] = seed
        result = _COMMANDS[args.command](cfg, out, seed, args.threads)
        summary.update(result)
        summary["ok"] = True
        code = 0
    except ConfigKeyError as exc:
        summary["error"] = exc.code
        summary["error_detail"] = str(exc)
        code = 2
    except ElectrodeCountMismatch as exc:
        # the mesh and the `electrodes` key disagree, found where the CEM
        # operator is built
        summary["error"] = "bad_electrodes"
        summary["error_detail"] = str(exc)
        code = 2
    except EpinverseError as exc:
        summary["error"] = type(exc).__name__
        summary["error_detail"] = str(exc)
        code = 1
    except Exception:
        summary["error"] = "internal"
        summary["error_detail"] = traceback.format_exc()
        code = 3
    summary["wall_time_s"] = time.time() - t0
    out = out if out is not None else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write {out / 'summary.json'}: {exc}", file=sys.stderr)
        code = code or 3
    if summary["error"]:
        print(f"error: {summary['error']}: {summary.get('error_detail', '')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
