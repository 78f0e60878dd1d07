"""Batch command-line front end.

Commands: `ep`, `mcmc`, `compare`, `synth`, `mesh`; each reads a flat
key-value config (see config.py), writes node-indexed CSV artifacts plus a
versioned summary.json into the output directory, and is reproducible
bit-for-bit from (config, seed, blas_threads), the BLAS thread count that
summary.json records: another thread count sums in another order, and
OPENBLAS_NUM_THREADS=2 against 1 moves the desk-scale mean.csv by up to
9.3e-10 relative.  Numeric CSV output uses full-precision
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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import nonlinear
from .config import ConfigKeyError, get
from .ep import EPOptions, Site
from .errors import AdaptFailed, ElectrodeCountMismatch, EpinverseError, MeshFileError
from .factors import LaplacePositivityFactor
from .mcmc import (
    ACCEPTANCE_BAND,
    RHAT_MIXED,
    ChainConfig,
    ChainSummary,
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

SCHEMA_VERSION = 8

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


def _read_vector_csv(path: Path, code: str) -> tuple[np.ndarray, np.ndarray]:
    """The node ids and values of a vector CSV; a malformed row or a
    non-finite value is the config error ``code``."""
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]
    try:
        ids, vals = np.array([int(r[0]) for r in rows], dtype=int), np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise ConfigKeyError(f"{path} has a malformed row: {exc}", code) from exc
    if not np.all(np.isfinite(vals)):
        raise ConfigKeyError(f"{path} has a non-finite value", code)
    return ids, vals


def _write_matrix_csv(path: Path, M: np.ndarray) -> None:
    """Write the square, bitwise-symmetric matrix ``M`` as CSV, one row per
    line, each cell ``_fmt``'s text.

    Only the upper triangle ``M[i, i:]`` is formatted: row ``i`` takes its
    left part from the cells that rows ``0..i-1`` formatted for column ``i``,
    which is the same text only if ``M[i, j]`` and ``M[j, i]`` have the same
    bits.  ``res.cov`` has them: ``chol.inverse`` mirrors the lower triangle
    of the inverse into the upper.  Anything else (non-square, or a mirror
    pair that differs in a bit, such as ``-0.0`` facing ``+0.0``) is refused
    with ``ValueError`` before the file is opened.

    Rows are written as they are made.  Each earlier row keeps its pending
    cells reversed, and every later row pops one, so a cell's text is freed
    once it has been written twice: at most n^2/4 cells are held (at row
    n/2), not all n^2 plus the joined text."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"cov.csv needs a square matrix, got shape {M.shape}")
    bits = M.view(np.uint64)
    if not np.array_equal(bits, bits.T):
        raise ValueError("cov.csv needs a bitwise-symmetric matrix")
    n = M.shape[0]
    # cells are bytes: the same text as _fmt, and a fifth smaller than str
    pending: list[list[bytes]] = []
    with path.open("wb") as f:
        for i in range(n):
            # one % per row: the same text as _fmt per cell, in about 60 % of
            # the time
            cells = (b",".join([b"%.17e"] * (n - i)) % tuple(M[i, i:].tolist())).split(b",")
            left = [rest.pop() for rest in pending]
            f.write(b",".join(left + cells) + b"\n")
            cells.reverse()
            cells.pop()  # the diagonal cell: no later row reads it
            pending.append(cells)


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
    L = get(cfg, "electrodes")
    z = get(cfg, "impedances")
    if z is None:
        z = cem.default_config(L).z
    elif len(z) != L:
        raise cfgmod.refused("impedances", z, f"list {L} values, one per electrode")
    patterns = get(cfg, "patterns")
    if patterns is None:
        patterns = cem.adjacent_patterns(L)
    elif max(map(max, patterns)) >= L:
        raise cfgmod.refused("patterns", patterns, f"name electrodes in 0..{L - 1}")
    return cem.CEMConfig(z=z, patterns=patterns, amplitude=get(cfg, "amplitude"))


def _read_mesh_key(cfg: dict[str, str], key: str):
    """The mesh in the file named by ``key``, or None when it names none; a
    bad file is ``bad_<key>``."""
    path = get(cfg, key)
    try:
        return None if path is None else read_mesh(path)
    except MeshFileError as exc:
        raise ConfigKeyError(f"key {key!r}: {exc}", f"bad_{key}") from exc


# Not frozen: a frozen build takes about 3 us against 0.6 us, several percent
# of the 40 us it takes to make the default 20 x 12 linear problem.
@dataclass
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


def _build_linear_problem(cfg: dict[str, str], seed: int) -> _Problem:
    """Deterministic synthetic linear problem shared by ep and mcmc."""
    m = get(cfg, "linear_m")
    n = get(cfg, "linear_n")
    k_sparse = get(cfg, "linear_sparsity")
    if not 0 <= k_sparse <= n:
        raise cfgmod.refused("linear_sparsity", k_sparse, f"lie in [0, {n}]")
    amp = get(cfg, "linear_amplitude")
    alpha = get(cfg, "alpha", 400.0)
    lam = get(cfg, "lambda", 2.0)
    floor = get(cfg, "floor", 0.0)
    bg = get(cfg, "sigma_bg", 0.0)
    rng = np.random.default_rng(seed)
    if get(cfg, "linear_diagonal"):
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
    center = np.full(n, max(bg, floor))
    return _Problem("linear", LinearModel(A), data, alpha, lam, bg, floor, np.arange(n), center, 0.1)


def _build_problem(cfg: dict[str, str], seed: int) -> _Problem:
    """The linear or EIT problem named by the ``problem`` key."""
    if get(cfg, "problem") == "linear":
        return _build_linear_problem(cfg, seed)
    mesh = _read_mesh_key(cfg, "mesh")
    cem_cfg = _cem_config_from(cfg)
    data = _read_data_csv(get(cfg, "data"), cem_cfg)
    alpha, lam, floor, bg = (get(cfg, key) for key in ("alpha", "lambda", "floor", "sigma_bg"))
    model = cem.EITForwardModel(mesh, cem_cfg, bg, floor)
    center = np.full(model.n, bg)
    return _Problem("eit", model, data, alpha, lam, bg, floor, mesh.interior_node_ids, center, 0.05 * bg)


def cmd_ep(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    inner = EPOptions(
        max_sweeps=get(cfg, "ep_max_sweeps"),
        site_tol=get(cfg, "ep_site_tol"),
        sweep_mode=get(cfg, "ep_sweep_mode"),
    )
    p = _build_problem(cfg, seed)
    n = p.model.n
    prior = LaplacePositivityFactor(p.lam, p.bg, p.floor)
    sites = [Site(np.eye(1, n, i), prior) for i in range(n)]
    opts = NonlinearOptions(
        alpha=p.alpha,
        max_outer=get(cfg, "ep_max_outer"),
        outer_tol=get(cfg, "ep_outer_tol"),
        inner=inner,
        floor=p.floor,
    )
    res = run_nonlinear(p.model, p.data, sites, opts, np.full(n, p.bg))

    std = np.sqrt(np.diag(res.cov))
    _write_vector_csv(out / "mean.csv", p.node_ids, res.mean, "mean")
    _write_vector_csv(out / "std.csv", p.node_ids, std, "std")
    if n <= nonlinear.FULL_COV_MAX_N:
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
        "outer": [asdict(r) for r in res.outer_records],
    }


def cmd_mcmc(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    if threads < 1:
        raise ConfigKeyError(f"--threads must be >= 1, got {threads}", "bad_threads")
    p = _build_problem(cfg, seed)
    prior = LaplacePositivityPrior(lam=p.lam, bg=p.bg, floor=p.floor)
    post = Posterior(p.model.evaluate, p.data, p.alpha, prior)

    n_chains = get(cfg, "mcmc_chains")
    steps = get(cfg, "mcmc_steps")
    burn_in = get(cfg, "mcmc_burn_in", steps // 10)
    if not 0 <= burn_in < steps:
        raise cfgmod.refused("mcmc_burn_in", burn_in, f"lie in [0, {steps})")
    thin = get(cfg, "mcmc_thin")
    pilot_steps = get(cfg, "mcmc_pilot_steps")
    init_spread = get(cfg, "mcmc_init_spread")

    inits = (
        overdispersed_inits(p.center, init_spread, n_chains, seed=seed, floor=p.floor)
        if init_spread > 0.0
        else [p.center.copy() for _ in range(n_chains)]
    )
    same_seed = get(cfg, "mcmc_same_seed")
    if same_seed:
        inits = [inits[0].copy() for _ in range(n_chains)]
    std0 = get(cfg, "mcmc_proposal_std", p.proposal_std)
    pilots: list[tuple[ChainConfig, ChainSummary]] = []
    # the pilots tune the scale where the chains run, not at the centre,
    # which on the linear problem is the floor corner

    def pilot_rows() -> list[dict]:
        return [{"scale": c.proposal_std, "acceptance": s.acceptance_rate} for c, s in pilots]

    try:
        adapted = adapt_proposal(post, inits[0], std0, pilot_steps=pilot_steps, seed=seed,
                                 on_pilot=lambda c, s: pilots.append((c, s)))
    except AdaptFailed as exc:
        exc.summary = {"pilots": pilot_rows()}
        raise
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
    chains = run_chains(chain_cfgs, inits, post, workers=threads)

    for k, ch in enumerate(chains):
        lines = [f"# acceptance_rate={ch.acceptance_rate!r} samples_kept={ch.samples_kept} seed={ch.seed}"]
        lines.append("node,mean,std")
        lines += [
            f"{int(i)},{_fmt(m)},{_fmt(s)}" for i, m, s in zip(p.node_ids, ch.mean, ch.std)
        ]
        (out / f"chain_{k}.csv").write_text("\n".join(lines) + "\n")

    rep = multi_chain_report(chains)
    table = ["case,mean-err,std-err,R-hat"]
    table.append(f"{get(cfg, 'case')},{_fmt(rep.mean_err)},{_fmt(rep.std_err)},{_fmt(rep.rhat_max)}")
    (out / "table3.csv").write_text("\n".join(table) + "\n")
    _write_vector_csv(out / "grand_mean.csv", p.node_ids, rep.grand_mean, "mean")
    _write_vector_csv(out / "grand_std.csv", p.node_ids, rep.grand_std, "std")
    return {
        "problem": p.name,
        "chains": n_chains,
        "steps": steps,
        "proposal_std": adapted,
        "pilots": pilot_rows(),
        "mh_steps": sum(c.steps for c, _ in pilots) + sum(c.steps for c in chain_cfgs),
        "acceptance_rates": rep.acceptance_rates,
        "mean_err": rep.mean_err,
        "std_err": rep.std_err,
        "rhat_max": rep.rhat_max,
        "mixed": rep.rhat_max < RHAT_MIXED,
        "acceptance_in_band": [ACCEPTANCE_BAND[0] <= a <= ACCEPTANCE_BAND[1] for a in rep.acceptance_rates],
    }


def _read_mean_std(mean_path: Path, std_path: Path, code: str) -> tuple[np.ndarray, ...]:
    """The node ids, means and stds of one output directory; a malformed row
    is ``code``, and mean and std files that index different nodes are
    ``shape_mismatch``."""
    ids, mean = _read_vector_csv(mean_path, code)
    std_ids, std = _read_vector_csv(std_path, code)
    if not np.array_equal(ids, std_ids):
        raise ConfigKeyError(f"{mean_path} and {std_path} index different nodes", "shape_mismatch")
    return ids, mean, std


def cmd_compare(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    ep_dir = Path(get(cfg, "ep_dir"))
    mcmc_dir = Path(get(cfg, "mcmc_dir"))
    files = {"ep": (ep_dir / "mean.csv", ep_dir / "std.csv"),
             "mcmc": (mcmc_dir / "grand_mean.csv", mcmc_dir / "grand_std.csv")}
    for which, paths in files.items():
        for path in paths:
            if not path.is_file():
                raise ConfigKeyError(f"{path} not found", f"{which}_outputs_not_found")
    ids_e, mean_e, std_e = _read_mean_std(*files["ep"], "bad_ep_dir")
    ids_m, mean_m, std_m = _read_mean_std(*files["mcmc"], "bad_mcmc_dir")
    if not np.array_equal(ids_e, ids_m):
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
    noise_std = get(cfg, "noise_std") if "noise_std" in cfg else 1.0 / math.sqrt(get(cfg, "alpha"))
    mesh = _read_mesh_key(cfg, "fine_mesh")
    if mesh is None:
        mesh = _disk_mesh(cfg, "fine_target_nodes")
        write_mesh(mesh, out / "fine_mesh.txt")
    cem_cfg = _cem_config_from(cfg)
    bg = get(cfg, "sigma_bg")
    sigma_true = np.full(mesh.n_nodes, bg)
    if "inclusion_cx" in cfg:
        cx, cy, radius, value = (get(cfg, f"inclusion_{k}") for k in ("cx", "cy", "radius", "value"))
        sigma_true = cem.paint_disk_inclusion(mesh, bg, (cx, cy), radius, value)
    data, truth = cem.synth_data(mesh, cem_cfg, sigma_true, noise_std, seed)
    _write_data_csv(out / "data.csv", cem_cfg, data)
    _write_vector_csv(out / "sigma_true.csv", np.arange(mesh.n_nodes), sigma_true, "sigma")
    facts = {"seed": truth["seed"], "noise_std": truth["noise_std"], "sigma_bg": bg, "n_measurements": len(data)}
    (out / "truth.json").write_text(json.dumps(facts, indent=2) + "\n")
    return {"n_measurements": int(data.shape[0]), "noise_std": noise_std, "fine_nodes": mesh.n_nodes}


def _disk_mesh(cfg: dict[str, str], nodes_key: str):
    """The disk mesh of the geometry keys and the node count ``nodes_key``."""
    keys = ("radius", "electrodes", "electrode_coverage", nodes_key)
    return gen_disk_mesh(*(get(cfg, key) for key in keys))


def cmd_mesh(cfg: dict[str, str], out: Path, seed: int, threads: int) -> dict:
    name = get(cfg, "mesh_file")
    mesh = _disk_mesh(cfg, "target_nodes")
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


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``bad_arguments``, so that
    they end like config errors, with a summary.json.  Subparsers share the
    class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigKeyError(message, "bad_arguments")


def _out_arg(argv: list[str]) -> Path | None:
    """The ``--out`` directory argv names, read without the parser so that a
    usage error finds it too."""
    for k, arg in enumerate(argv):
        if arg == "--out" and k + 1 < len(argv) and not argv[k + 1].startswith("-"):
            return Path(argv[k + 1])
        if arg.startswith("--out="):
            return Path(arg.removeprefix("--out="))
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _ArgumentParser(prog="epinverse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.add_argument("--threads", type=int, default=1, help="worker processes for chains (>= 1)")

    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": argv[0] if argv and argv[0] in _COMMANDS else None,
        "ok": False,
        "error": None,
        "blas_threads": _pin_blas_threads(),
    }
    out = _out_arg(argv)
    t0 = time.time()
    try:
        args = parser.parse_args(argv)
        out = Path(args.out) if args.out else None
        cfg = cfgmod.load_config(args.config)
        summary["ignored_keys"] = sorted(cfg.keys() - cfgmod.KEYS.keys())
        out = out or Path(get(cfg, "out"))
        out.mkdir(parents=True, exist_ok=True)
        # --seed is read, and refused, as the key it overrides
        seed = get(cfg if args.seed is None else {"seed": str(args.seed)}, "seed")
        summary["seed"] = seed
        # An overflow or an invalid value at extreme keys ends the run in a
        # typed error or is checked for in the outputs; numpy's warning would
        # only repeat it.  Set once per command, not per step.
        with np.errstate(over="ignore", invalid="ignore"):
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
        summary.update(exc.summary or {})
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
