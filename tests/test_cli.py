import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epinverse
from epinverse import errors
from epinverse.cli import main
from epinverse.config import KEYS
from epinverse.eit import cem
from epinverse.eit.mesh import gen_disk_mesh, write_mesh
from epinverse.mcmc import ACCEPTANCE_BAND


def write_cfg(path, **kv):
    path.write_text("\n".join(f"{k} = {v}" for k, v in kv.items()) + "\n")
    return str(path)


def load_summary(out):
    return json.loads((out / "summary.json").read_text())


def read_vec(path):
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]
    return np.array([int(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared mesh + synthetic data for the CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    mesh_out = root / "mesh_out"
    rc = main(["mesh", "--config", write_cfg(root / "mesh.cfg", target_nodes=260, out=mesh_out)])
    assert rc == 0
    synth_out = root / "synth_out"
    rc = main(
        [
            "synth",
            "--config",
            write_cfg(
                root / "synth.cfg",
                fine_target_nodes=900,
                inclusion_cx=0.05,
                inclusion_cy=0.02,
                inclusion_radius=0.035,
                inclusion_value=3.525e-4,
                seed=42,
                out=synth_out,
            ),
        ]
    )
    assert rc == 0
    return root, mesh_out / "mesh.txt", synth_out / "data.csv"


def test_mesh_command_outputs(workspace):
    root, mesh_path, _ = workspace
    summary = load_summary(mesh_path.parent)
    assert summary["ok"] and summary["command"] == "mesh"
    assert 0.85 * 260 <= summary["nodes"] <= 1.15 * 260
    assert mesh_path.is_file()


def test_synth_reproducible_and_zero_noise(workspace, tmp_path):
    root, _, data_path = workspace
    # rerun with the same seed: bit-identical data file
    out2 = tmp_path / "synth2"
    cfg = write_cfg(
        tmp_path / "s.cfg",
        fine_target_nodes=900,
        inclusion_cx=0.05,
        inclusion_cy=0.02,
        inclusion_radius=0.035,
        inclusion_value=3.525e-4,
        seed=42,
        out=out2,
    )
    assert main(["synth", "--config", cfg]) == 0
    assert (out2 / "data.csv").read_text() == data_path.read_text()

    # zero noise, homogeneous: data equals the forward output of the fine mesh
    out3 = tmp_path / "synth3"
    cfg3 = write_cfg(tmp_path / "s3.cfg", fine_target_nodes=500, noise_std=0.0, seed=1, out=out3)
    assert main(["synth", "--config", cfg3]) == 0
    from epinverse.eit import SIGMA_BG, default_config, forward, read_mesh

    mesh = read_mesh(out3 / "fine_mesh.txt")
    clean = forward(mesh, default_config(), np.full(mesh.n_nodes, SIGMA_BG))
    _, rows = read_data(out3 / "data.csv")
    assert np.allclose(rows, clean, rtol=0, atol=1e-16)


def read_data(path):
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]
    return rows, np.array([float(r[2]) for r in rows])


def test_fine_and_inversion_meshes_distinct(workspace):
    root, mesh_path, data_path = workspace
    from epinverse.eit import read_mesh

    inv = read_mesh(mesh_path)
    fine = read_mesh(data_path.parent / "fine_mesh.txt")
    assert fine.n_nodes > 2 * inv.n_nodes


def test_ep_eit_defaults(workspace, tmp_path):
    root, mesh_path, data_path = workspace
    out = tmp_path / "ep_out"
    cfg = write_cfg(
        tmp_path / "ep.cfg", problem="eit", mesh=mesh_path, data=data_path, seed=42, out=out
    )
    assert main(["ep", "--config", cfg]) == 0
    s = load_summary(out)
    assert s["ok"] and s["converged"]
    assert s["outer_iterations"] <= 7
    ids, mean = read_vec(out / "mean.csv")
    _, std = read_vec(out / "std.csv")
    assert (out / "cov.csv").is_file()
    assert np.all(std > 0)
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "outer,inner,e_p_mu,e_f_mu,e_p_C,e_f_C"

    # reproducibility: second run is bit-identical
    out2 = tmp_path / "ep_out2"
    cfg2 = write_cfg(
        tmp_path / "ep2.cfg", problem="eit", mesh=mesh_path, data=data_path, seed=42, out=out2
    )
    assert main(["ep", "--config", cfg2]) == 0
    assert (out2 / "mean.csv").read_text() == (out / "mean.csv").read_text()
    assert (out2 / "trace.csv").read_text() == (out / "trace.csv").read_text()


def test_ep_missing_mesh_exit_code(tmp_path):
    out = tmp_path / "bad_out"
    cfg = write_cfg(
        tmp_path / "bad.cfg", problem="eit", mesh=tmp_path / "nope.txt",
        data=tmp_path / "nope.csv", out=out
    )
    assert main(["ep", "--config", cfg]) == 2
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == "mesh_not_found"


def test_ep_decoupled_toy_shows_one_sweep(tmp_path):
    out = tmp_path / "dec_out"
    cfg = write_cfg(
        tmp_path / "dec.cfg",
        problem="linear",
        linear_m=6,
        linear_n=6,
        linear_diagonal="true",
        alpha=50.0,
        **{"lambda": 1.0},
        floor=0.0,
        ep_max_sweeps=4,
        ep_site_tol=1e-10,
        seed=3,
        out=out,
    )
    assert main(["ep", "--config", cfg]) == 0
    rows = [ln.split(",") for ln in (out / "trace.csv").read_text().splitlines()[1:]]
    second_sweep = [r for r in rows if r[0] == "1" and r[1] == "2"]
    assert second_sweep, "expected a verification sweep in the trace"
    assert float(second_sweep[0][2]) < 1e-12  # nothing moved after sweep one


def test_mcmc_identical_seed_chains_zero_errors(tmp_path):
    out = tmp_path / "mcmc_same"
    cfg = write_cfg(
        tmp_path / "m.cfg",
        problem="linear",
        linear_m=10,
        linear_n=4,
        alpha=100.0,
        **{"lambda": 1.0},
        mcmc_chains=3,
        mcmc_steps=4000,
        mcmc_same_seed="true",
        seed=5,
        out=out,
    )
    assert main(["mcmc", "--config", cfg]) == 0
    table = (out / "table3.csv").read_text().splitlines()
    assert table[0] == "case,mean-err,std-err,R-hat"
    case, mean_err, std_err, rhat = table[1].split(",")
    assert float(mean_err) == 0.0 and float(std_err) == 0.0 and float(rhat) == 1.0
    s = load_summary(out)
    assert s["mixed"] is True and len(s["acceptance_in_band"]) == 3


SEED_9_LINEAR = dict(problem="linear", linear_m=20, linear_n=12, linear_sparsity=3, alpha=400.0, floor=0.0,
                     sigma_bg=0.0, seed=9, mcmc_chains=4, mcmc_pilot_steps=2000, **{"lambda": 2.0})


def test_mcmc_says_when_its_chains_did_not_mix(tmp_path):
    # the seed-9 linear problem with starts spread ten times wider than the
    # default and chains too short to forget them: R-hat is about 4
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "m.cfg", **SEED_9_LINEAR, mcmc_steps=1000, mcmc_init_spread=3.0, out=out)
    assert main(["mcmc", "--config", cfg]) == 0
    s = load_summary(out)
    assert s["ok"] is True and s["mixed"] is False and s["rhat_max"] >= 1.05
    assert s["acceptance_in_band"] == [0.18 <= a <= 0.30 for a in s["acceptance_rates"]]


def test_mcmc_pilots_where_its_chains_start(tmp_path):
    # the seed-9 linear problem: pilots run from the floor corner tuned the
    # scale to 2.0e-4 there, the chains then ran at acceptance about 0.9 and
    # R-hat read about 35; pilots from the first chain's start bring every
    # chain into the band
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "m.cfg", **SEED_9_LINEAR, mcmc_steps=10000, mcmc_init_spread=0.3, out=out)
    assert main(["mcmc", "--config", cfg]) == 0
    s = load_summary(out)
    assert s["ok"] is True and s["mixed"] is True and s["rhat_max"] < 1.05
    lo, hi = ACCEPTANCE_BAND
    assert s["acceptance_in_band"] == [lo <= a <= hi for a in s["acceptance_rates"]] == [True] * 4


def test_mcmc_counts_its_steps_and_lists_its_pilots(tmp_path, monkeypatch):
    # mh_steps is the count a wrapper of mcmc.mh_chain takes, pilots included;
    # pilots lists each pilot's scale and acceptance, in the order they ran
    from epinverse import mcmc

    runs = []
    chain = mcmc.mh_chain

    def counted(cfg, *args, **kwargs):
        res = chain(cfg, *args, **kwargs)
        runs.append((cfg.steps, cfg.proposal_std, res.acceptance_rate))
        return res

    monkeypatch.setattr(mcmc, "mh_chain", counted)
    keys = dict(problem="linear", linear_m=10, linear_n=4, alpha=100.0, seed=5, mcmc_chains=3,
                mcmc_steps=3000, mcmc_pilot_steps=700, **{"lambda": 1.0})
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["mcmc", "--config", write_cfg(tmp_path / "m.cfg", **keys, out=out)]) == 0
    s = load_summary(outs[0])
    pilots = runs[: len(runs) // 2 - 3]
    assert len(pilots) > 1 and s["mh_steps"] == sum(r[0] for r in runs) // 2 == 700 * len(pilots) + 3 * 3000
    assert s["pilots"] == [{"scale": r[1], "acceptance": r[2]} for r in pilots]
    assert s["pilots"][-1]["scale"] == s["proposal_std"]
    # no timing value but wall_time_s: a repeated run writes the same summary
    del s["wall_time_s"]
    again = load_summary(outs[1])
    del again["wall_time_s"]
    assert again == s


def test_mcmc_adapt_failed_lists_its_pilots(tmp_path):
    # one step per pilot: every pilot accepts 0 or 1 of it, never a rate in
    # the band, so all max_pilots pilots run and the adaptation fails
    out = tmp_path / "out"
    keys = dict(problem="linear", linear_m=10, linear_n=4, alpha=100.0, seed=5, mcmc_chains=2,
                mcmc_steps=100, mcmc_pilot_steps=1, **{"lambda": 1.0})
    assert main(["mcmc", "--config", write_cfg(tmp_path / "m.cfg", **keys, out=out)]) == 1
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == "AdaptFailed" and "after 40 pilots" in s["error_detail"]
    assert len(s["pilots"]) == 40
    assert all(p["acceptance"] in (0.0, 1.0) and p["scale"] > 0.0 for p in s["pilots"])
    assert not (out / "chain_0.csv").exists()


def test_compare_identical_inputs_zero(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ids = np.arange(5)
    vals = np.linspace(0.5, 1.0, 5)
    for d, names in ((a, ("mean.csv", "std.csv")), (b, ("grand_mean.csv", "grand_std.csv"))):
        for name in names:
            lines = ["node,v"] + [f"{i},{float(v)!r}" for i, v in zip(ids, vals)]
            (d / name).write_text("\n".join(lines) + "\n")
    out = tmp_path / "cmp"
    cfg = write_cfg(tmp_path / "c.cfg", ep_dir=a, mcmc_dir=b, out=out)
    assert main(["compare", "--config", cfg]) == 0
    last = (out / "compare.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "ALL" and float(last[1]) == 0.0 and float(last[2]) == 0.0


def test_compare_shape_mismatch(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "mean.csv").write_text("node,v\n0,1.0\n")
    (a / "std.csv").write_text("node,v\n0,1.0\n")
    (b / "grand_mean.csv").write_text("node,v\n0,1.0\n1,2.0\n")
    (b / "grand_std.csv").write_text("node,v\n0,1.0\n1,2.0\n")
    out = tmp_path / "cmp"
    cfg = write_cfg(tmp_path / "c.cfg", ep_dir=a, mcmc_dir=b, out=out)
    assert main(["compare", "--config", cfg]) == 2
    assert load_summary(out)["error"] == "shape_mismatch"


def _compare_inputs(tmp_path, files):
    """ep and mcmc output directories holding the named files (file name ->
    text; mean.csv and std.csv go to the ep directory, the others to the
    mcmc one), and a compare config that reads them; returns the config and
    its output directory."""
    ep_dir, mcmc_dir, out = tmp_path / "ep", tmp_path / "mcmc", tmp_path / "cmp"
    ep_dir.mkdir()
    mcmc_dir.mkdir()
    for name, text in files.items():
        ((ep_dir if name in ("mean.csv", "std.csv") else mcmc_dir) / name).write_text(text)
    return write_cfg(tmp_path / "c.cfg", ep_dir=ep_dir, mcmc_dir=mcmc_dir, out=out), out


ONE_NODE = "node,v\n0,1.0\n"
COMPARE_FILES = {"mean.csv": ONE_NODE, "std.csv": ONE_NODE, "grand_mean.csv": ONE_NODE, "grand_std.csv": ONE_NODE}


@pytest.mark.parametrize(
    "edit, code",
    [
        ({"std.csv": None}, "ep_outputs_not_found"),
        ({"grand_std.csv": None}, "mcmc_outputs_not_found"),
        ({"mean.csv": "node,v\n0,abc\n"}, "bad_ep_dir"),
        ({"std.csv": "node,v\n0\n"}, "bad_ep_dir"),
        ({"grand_mean.csv": "node,v\nx,1.0\n"}, "bad_mcmc_dir"),
        ({"grand_std.csv": "node,v\n0,1.0.0\n"}, "bad_mcmc_dir"),
        # a non-finite cell would make the summary's norms NaN
        ({"mean.csv": "node,v\n0,nan\n"}, "bad_ep_dir"),
        ({"grand_mean.csv": "node,v\n0,inf\n"}, "bad_mcmc_dir"),
        # two std rows beside one mean row: the std vectors must not broadcast
        ({"std.csv": "node,v\n0,1.0\n1,2.0\n"}, "shape_mismatch"),
        ({"grand_std.csv": "node,v\n1,1.0\n"}, "shape_mismatch"),
    ],
)
def test_compare_checks_its_inputs(tmp_path, edit, code):
    files = {k: v for k, v in {**COMPARE_FILES, **edit}.items() if v is not None}
    cfg, out = _compare_inputs(tmp_path, files)
    assert main(["compare", "--config", cfg]) == 2
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == code


def test_ep_matches_analytic_gaussian_posterior_via_compare(tmp_path):
    # nearly-Gaussian linear problem: EP equals the analytic posterior; the
    # analytic result is written in mcmc layout and diffed with cmd_compare
    out = tmp_path / "ep_lin"
    seed = 11
    cfg = write_cfg(
        tmp_path / "lin.cfg",
        problem="linear",
        linear_m=15,
        linear_n=8,
        alpha=200.0,
        **{"lambda": 1e-12},
        floor="-inf",
        ep_max_sweeps=60,
        ep_site_tol=1e-12,
        ep_max_outer=6,
        ep_outer_tol=1e-10,
        seed=seed,
        out=out,
    )
    assert main(["ep", "--config", cfg]) == 0

    from epinverse.cli import _build_linear_problem
    from epinverse.config import load_config

    p = _build_linear_problem(load_config(tmp_path / "lin.cfg"), seed)
    model, data, alpha = p.model, p.data, p.alpha
    K = alpha * model.A.T @ model.A + np.eye(model.n) * 0.0
    # the Laplace factor with lam ~ 0 contributes nothing; the EP sites still
    # regularize through their converged parameters, so build the exact
    # Gaussian posterior of the likelihood alone plus the vanishing prior
    mu = np.linalg.solve(K, alpha * model.A.T @ data)
    cov = np.linalg.inv(K)
    ref = tmp_path / "analytic"
    ref.mkdir()
    ids = np.arange(model.n)
    for name, vals in (("grand_mean.csv", mu), ("grand_std.csv", np.sqrt(np.diag(cov)))):
        lines = ["node,v"] + [f"{i},{float(v)!r}" for i, v in zip(ids, vals)]
        (ref / name).write_text("\n".join(lines) + "\n")
    cmp_out = tmp_path / "cmp_lin"
    ccfg = write_cfg(tmp_path / "cmp.cfg", ep_dir=out, mcmc_dir=ref, out=cmp_out)
    assert main(["compare", "--config", ccfg]) == 0
    last = (cmp_out / "compare.csv").read_text().splitlines()[-1].split(",")
    assert float(last[1]) <= 1e-6
    assert float(last[2]) <= 1e-6


def test_mcmc_desk_scale_linear_converged(tmp_path):
    out = tmp_path / "mcmc_conv"
    cfg = write_cfg(
        tmp_path / "mc.cfg",
        problem="linear",
        linear_m=10,
        linear_n=4,
        alpha=100.0,
        **{"lambda": 1.0},
        mcmc_chains=4,
        mcmc_steps=60000,
        mcmc_init_spread=0.3,
        seed=13,
        out=out,
    )
    assert main(["mcmc", "--config", cfg]) == 0
    row = (out / "table3.csv").read_text().splitlines()[1].split(",")
    assert float(row[3]) < 1.05
    summary = load_summary(out)
    assert all(0.1 <= a <= 0.4 for a in summary["acceptance_rates"])


def test_ep_rejects_nonpositive_hyperparameters(tmp_path):
    out = tmp_path / "neg"
    cfg = write_cfg(
        tmp_path / "neg.cfg",
        problem="linear",
        linear_m=6,
        linear_n=4,
        alpha=-1.0,
        **{"lambda": 2.0},
        out=out,
    )
    assert main(["ep", "--config", cfg]) == 2
    assert load_summary(out)["error"] == "bad_alpha"


def test_ep_bad_sweep_mode_is_a_config_error(tmp_path):
    out = tmp_path / "bogus"
    cfg = write_cfg(
        tmp_path / "bogus.cfg", problem="linear", linear_m=6, linear_n=4,
        ep_sweep_mode="bogus", out=out,
    )
    assert main(["ep", "--config", cfg]) == 2
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == "bad_ep_sweep_mode"


def test_ep_truncated_mesh_is_a_config_error(workspace, tmp_path):
    _, mesh_path, data_path = workspace
    lines = mesh_path.read_text().splitlines()
    truncated = tmp_path / "truncated_mesh.txt"
    truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    out = tmp_path / "trunc_out"
    cfg = write_cfg(tmp_path / "t.cfg", problem="eit", mesh=truncated, data=data_path, out=out)
    assert main(["ep", "--config", cfg]) == 2
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == "bad_mesh"
    assert "IndexError" in s["error_detail"]


LINEAR_6x4 = {"problem": "linear", "linear_m": 6, "linear_n": 4}


def _data_with_cell(data_path, tmp_path, edit):
    """The data file, or a copy with one cell of its third data row replaced
    (``edit = (column, text)``; text None drops the cell)."""
    if edit is None:
        return data_path
    col, text = edit
    lines = data_path.read_text().splitlines()
    row = lines[3].split(",")
    row[col : col + 1] = [] if text is None else [text]
    lines[3] = ",".join(row)
    edited = tmp_path / "edited_data.csv"
    edited.write_text("\n".join(lines) + "\n")
    return edited


TWO_ELECTRODE_MESH = "two-electrode mesh"


def _two_electrode_inputs(tmp_path):
    """A 2-electrode mesh written through the library, which the ``mesh``
    command refuses to write, and a data file with no rows."""
    mesh = tmp_path / "mesh2.txt"
    write_mesh(gen_disk_mesh(cem.TANK_RADIUS, 2, cem.ELECTRODE_COVERAGE, 100), mesh)
    data = tmp_path / "data2.csv"
    data.write_text("pattern_id,electrode_id,voltage\n")
    return {"mesh": mesh, "data": data}


# Each case has an id of its own, so adding one renames no other.  The ids
# of these first cases are the ones pytest numbered them by, kept so that
# lists of test names kept between changes stay valid; a new case is named
# by its command, key and value, as in "mcmc-mcmc_chains-1".
BAD_USER_INPUT = {
    "ep-keys0-bad_ep_max_sweeps": ("ep", {**LINEAR_6x4, "ep_max_sweeps": 0}, "bad_ep_max_sweeps"),
    "ep-keys1-bad_ep_max_sweeps": ("ep", {**LINEAR_6x4, "ep_max_sweeps": -3}, "bad_ep_max_sweeps"),
    "ep-keys2-bad_ep_max_outer": ("ep", {**LINEAR_6x4, "ep_max_outer": 0}, "bad_ep_max_outer"),
    "mcmc-keys3-bad_mcmc_chains": ("mcmc", {**LINEAR_6x4, "mcmc_chains": 1}, "bad_mcmc_chains"),
    "mcmc-keys4-bad_mcmc_thin": ("mcmc", {**LINEAR_6x4, "mcmc_thin": 0}, "bad_mcmc_thin"),
    "mcmc-keys5-bad_mcmc_burn_in": ("mcmc", {**LINEAR_6x4, "mcmc_steps": 100, "mcmc_burn_in": 100}, "bad_mcmc_burn_in"),
    "mcmc-keys6-bad_mcmc_pilot_steps": ("mcmc", {**LINEAR_6x4, "mcmc_pilot_steps": 0}, "bad_mcmc_pilot_steps"),
    "ep-keys7-bad_patterns": ("ep", {"problem": "eit", "patterns": "0-1,1"}, "bad_patterns"),
    "ep-keys8-bad_patterns": ("ep", {"problem": "eit", "patterns": "0-1,3-3"}, "bad_patterns"),
    "ep-keys9-bad_impedances": ("ep", {"problem": "eit", "impedances": "2e-4 " * 15 + "-2e-4"}, "bad_impedances"),
    "ep-keys10-bad_data": ("ep", {"problem": "eit", "data": (2, "abc")}, "bad_data"),
    "ep-keys11-bad_data": ("ep", {"problem": "eit", "data": (2, None)}, "bad_data"),
    "ep-keys12-bad_data": ("ep", {"problem": "eit", "data": (1, "3.5")}, "bad_data"),
    "ep-keys13-bad_data": ("ep", {"problem": "eit", "data": (2, "nan")}, "bad_data"),
    "ep-keys14-bad_data": ("ep", {"problem": "eit", "data": (2, "-inf")}, "bad_data"),
    "ep-keys15-bad_ep_outer_tol": ("ep", {**LINEAR_6x4, "ep_outer_tol": -1}, "bad_ep_outer_tol"),
    "ep-keys16-bad_ep_outer_tol": ("ep", {**LINEAR_6x4, "ep_outer_tol": 0}, "bad_ep_outer_tol"),
    "ep-keys17-bad_ep_outer_tol": ("ep", {**LINEAR_6x4, "ep_outer_tol": "nan"}, "bad_ep_outer_tol"),
    "ep-keys18-bad_linear_sparsity": ("ep", {"problem": "linear", "linear_sparsity": 50}, "bad_linear_sparsity"),
    "ep-keys19-bad_linear_sparsity": ("ep", {**LINEAR_6x4, "linear_sparsity": -1}, "bad_linear_sparsity"),
    "ep-keys20-bad_linear_n": ("ep", {"problem": "linear", "linear_n": 0}, "bad_linear_n"),
    "mcmc-keys21-bad_linear_m": ("mcmc", {"problem": "linear", "linear_m": 0}, "bad_linear_m"),
    "mcmc-keys22-bad_mcmc_proposal_std": ("mcmc", {**LINEAR_6x4, "mcmc_proposal_std": 0}, "bad_mcmc_proposal_std"),
    "mcmc-keys23-bad_mcmc_proposal_std": ("mcmc", {**LINEAR_6x4, "mcmc_proposal_std": -0.1}, "bad_mcmc_proposal_std"),
    "mcmc-keys24-bad_mcmc_proposal_std": ("mcmc", {**LINEAR_6x4, "mcmc_proposal_std": "inf"}, "bad_mcmc_proposal_std"),
    "mcmc-keys25-bad_mcmc_proposal_std": ("mcmc", {**LINEAR_6x4, "mcmc_proposal_std": "nan"}, "bad_mcmc_proposal_std"),
    "synth-keys26-bad_alpha": ("synth", {"alpha": 0}, "bad_alpha"),
    "synth-keys27-bad_alpha": ("synth", {"alpha": -400}, "bad_alpha"),
    "synth-keys28-bad_noise_std": ("synth", {"noise_std": -1}, "bad_noise_std"),
    "synth-keys29-bad_noise_std": ("synth", {"noise_std": "nan"}, "bad_noise_std"),
    "synth-keys30-bad_noise_std": ("synth", {"noise_std": "inf"}, "bad_noise_std"),
    # non-finite numbers; floor alone may be -inf
    "ep-keys31-bad_linear_amplitude": ("ep", {**LINEAR_6x4, "linear_amplitude": "nan"}, "bad_linear_amplitude"),
    "ep-keys32-bad_sigma_bg": ("ep", {**LINEAR_6x4, "sigma_bg": "nan"}, "bad_sigma_bg"),
    "ep-keys33-bad_sigma_bg": ("ep", {**LINEAR_6x4, "sigma_bg": "inf"}, "bad_sigma_bg"),
    "ep-keys34-bad_floor": ("ep", {**LINEAR_6x4, "floor": "nan"}, "bad_floor"),
    "ep-keys35-bad_floor": ("ep", {**LINEAR_6x4, "floor": "inf"}, "bad_floor"),
    "ep-keys36-bad_lambda": ("ep", {**LINEAR_6x4, "lambda": "inf"}, "bad_lambda"),
    "ep-keys37-bad_alpha": ("ep", {**LINEAR_6x4, "alpha": "inf"}, "bad_alpha"),
    "synth-keys38-bad_amplitude": ("synth", {"amplitude": "nan"}, "bad_amplitude"),
    "synth-keys39-bad_radius": ("synth", {"radius": "nan"}, "bad_radius"),
    "synth-keys40-bad_impedances": ("synth", {"impedances": "inf " + "1e-4 " * 15}, "bad_impedances"),
    # disk geometry: radius > 0 and at least three electrodes
    "mesh-keys41-bad_radius": ("mesh", {"radius": 0}, "bad_radius"),
    "mesh-keys42-bad_radius": ("mesh", {"radius": -1}, "bad_radius"),
    "mesh-keys43-bad_radius": ("mesh", {"radius": "inf"}, "bad_radius"),
    "mesh-keys44-bad_electrodes": ("mesh", {"electrodes": 1}, "bad_electrodes"),
    "mesh-keys45-bad_electrodes": ("mesh", {"electrodes": 0}, "bad_electrodes"),
    "synth-keys46-bad_radius": ("synth", {"radius": 0}, "bad_radius"),
    "synth-keys47-bad_radius": ("synth", {"radius": -1}, "bad_radius"),
    "synth-keys48-bad_electrodes": ("synth", {"electrodes": 1}, "bad_electrodes"),
    # two electrodes leave no measurement: each pattern drives both
    "mesh-keys49-bad_electrodes": ("mesh", {"electrodes": 2}, "bad_electrodes"),
    "synth-keys50-bad_electrodes": ("synth", {"electrodes": 2}, "bad_electrodes"),
    "ep-keys51-bad_electrodes": ("ep", {"problem": "eit", "electrodes": 2, "mesh": TWO_ELECTRODE_MESH}, "bad_electrodes"),
    # zero current: synth wrote pure noise and ep returned the prior
    "synth-keys52-bad_amplitude": ("synth", {"amplitude": 0}, "bad_amplitude"),
    "synth-keys53-bad_amplitude": ("synth", {"amplitude": "-0.0"}, "bad_amplitude"),
    "ep-keys54-bad_amplitude": ("ep", {"problem": "eit", "amplitude": 0}, "bad_amplitude"),
    "mcmc-keys55-bad_amplitude": ("mcmc", {"problem": "eit", "amplitude": 0}, "bad_amplitude"),
    # a negative spread was read as none: every chain at the centre
    "mcmc-keys56-bad_mcmc_init_spread": ("mcmc", {**LINEAR_6x4, "mcmc_init_spread": -0.3}, "bad_mcmc_init_spread"),
}


@pytest.mark.parametrize("command, keys, code", list(BAD_USER_INPUT.values()), ids=list(BAD_USER_INPUT))
def test_bad_user_input_is_a_config_error(workspace, tmp_path, command, keys, code):
    _, mesh_path, data_path = workspace
    if keys.get("mesh") == TWO_ELECTRODE_MESH:
        keys = {**keys, **_two_electrode_inputs(tmp_path)}
    elif keys.get("problem") == "eit":
        keys = {**keys, "mesh": mesh_path, "data": _data_with_cell(data_path, tmp_path, keys.get("data"))}
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path / "c.cfg", **keys, out=out)]) == 2
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == code
    assert s["schema_version"] == 8


@pytest.mark.parametrize(
    "keys, detail",
    [
        ({"mcmc_chains": 1}, "key 'mcmc_chains' must be >= 2, got 1"),
        ({"mcmc_steps": 100, "mcmc_burn_in": 100}, "key 'mcmc_burn_in' must lie in [0, 100), got 100"),
        ({"mcmc_steps": 100, "mcmc_burn_in": -1}, "key 'mcmc_burn_in' must lie in [0, 100), got -1"),
    ],
)
def test_mcmc_range_errors_name_the_rule(tmp_path, keys, detail):
    out = tmp_path / "out"
    assert main(["mcmc", "--config", write_cfg(tmp_path / "c.cfg", **LINEAR_6x4, **keys, out=out)]) == 2
    assert load_summary(out)["error_detail"] == detail


# ---------------------------------------------------------------------------
# every declared key at extreme values
# ---------------------------------------------------------------------------

EXTREME_VALUES = ["nan", "inf", "-1", "0", "1e308", "", "word"]
INCLUSION = {"inclusion_cx": 0.05, "inclusion_cy": 0.02, "inclusion_radius": 0.035, "inclusion_value": 3.5e-4}
SMALL_MCMC = {"mcmc_chains": 2, "mcmc_steps": 40, "mcmc_burn_in": 4, "mcmc_thin": 2, "mcmc_pilot_steps": 20}
POSTERIOR_KEYS = ["alpha", "lambda", "floor", "sigma_bg"]
EP_KEYS = ["ep_max_sweeps", "ep_site_tol", "ep_sweep_mode", "ep_max_outer", "ep_outer_tol"]
CEM_KEYS = ["electrodes", "impedances", "patterns", "amplitude"]
DISK_KEYS = ["radius", "electrodes", "electrode_coverage"]
# (command, base keys, the keys it reads); "eit" in the base keys stands for
# the workspace's mesh and data
EXTREME_RUNS = {
    "mesh": ("mesh", {"target_nodes": 200}, ["seed", *DISK_KEYS, "target_nodes", "mesh_file"]),
    "synth": (
        "synth",
        {"fine_target_nodes": 200, **INCLUSION},
        ["seed", "noise_std", "alpha", "fine_mesh", "fine_target_nodes", *DISK_KEYS, *CEM_KEYS[1:],
         "sigma_bg", *INCLUSION],
    ),
    "ep_linear": (
        "ep",
        LINEAR_6x4,
        ["problem", "seed", *POSTERIOR_KEYS, "linear_m", "linear_n", "linear_sparsity", "linear_amplitude",
         "linear_diagonal", *EP_KEYS],
    ),
    "ep_eit": (
        "ep",
        {"problem": "eit", "ep_max_outer": 2, "ep_max_sweeps": 2},
        ["mesh", "data", *POSTERIOR_KEYS, *CEM_KEYS, *EP_KEYS],
    ),
    "mcmc": (
        "mcmc",
        {**LINEAR_6x4, **SMALL_MCMC},
        ["seed", *POSTERIOR_KEYS, *SMALL_MCMC, "mcmc_init_spread", "mcmc_proposal_std", "mcmc_same_seed", "case"],
    ),
}
LIBRARY_ERRORS = {
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.EpinverseError)
}


def _refuse_constant(name):
    raise ValueError(f"summary.json holds {name}")


def _finite_outputs(out: Path) -> bool:
    """Every number in the CSVs and summary.json of ``out`` is finite; the
    case label of table3.csv is text."""
    json.loads((out / "summary.json").read_text(), parse_constant=_refuse_constant)
    for path in out.glob("*.csv"):
        for row in path.read_text().splitlines():
            cells = row.split(",")[1:] if path.name == "table3.csv" else row.split(",")
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return False
    return True


def test_extreme_runs_cover_every_key_but_the_directories():
    read = {key for _, _, keys in EXTREME_RUNS.values() for key in keys}
    assert read == KEYS.keys() - {"out", "ep_dir", "mcmc_dir"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "run, key", [(run, key) for run, (_, _, keys) in EXTREME_RUNS.items() for key in keys]
)
def test_every_key_at_extreme_values_ends_in_a_named_outcome(workspace, tmp_path, run, key):
    """Each value ends in the key's own config error (exit 2), a library
    error (exit 1) or a run with finite outputs (exit 0); never ``internal``."""
    _, mesh_path, data_path = workspace
    command, base, _ = EXTREME_RUNS[run]
    if base.get("problem") == "eit":
        base = {**base, "mesh": mesh_path, "data": data_path}
    *_, not_found = KEYS[key]
    key_codes = {f"bad_{key}", not_found}
    wrong = []
    for k, value in enumerate(EXTREME_VALUES):
        out = tmp_path / f"v{k}"
        cfg = write_cfg(tmp_path / f"v{k}.cfg", **{**base, key: value})
        code = main([command, "--config", cfg, "--out", str(out)])
        s = load_summary(out)
        ok = (
            (code == 2 and s["error"] in key_codes)
            or (code == 1 and s["error"] in LIBRARY_ERRORS)
            or (code == 0 and _finite_outputs(out))
        )
        if not ok:
            wrong.append((value, code, s["error"], s.get("error_detail", "")[-200:]))
    assert not wrong


@pytest.mark.parametrize("command", ["ep", "synth", "mcmc"])
def test_negative_seed_flag_is_bad_seed(tmp_path, command):
    keys = {**LINEAR_6x4, **SMALL_MCMC} if command != "synth" else {"fine_target_nodes": 200}
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "c.cfg", **keys)
    assert main([command, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    s = load_summary(out)
    assert s["error"] == "bad_seed" and "seed" not in s


def test_mesh_file_outside_the_output_directory_is_refused(tmp_path):
    out = tmp_path / "a" / "b" / "out"
    cfg = write_cfg(tmp_path / "c.cfg", target_nodes=200, mesh_file="../../x.txt")
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 2
    assert load_summary(out)["error"] == "bad_mesh_file"
    assert not (tmp_path / "a" / "x.txt").exists() and sorted(p.name for p in out.iterdir()) == ["summary.json"]


def test_unknown_keys_are_listed_and_ignored(tmp_path):
    out = tmp_path / "typo"
    cfg = write_cfg(tmp_path / "typo.cfg", **LINEAR_6x4, ep_max_sweep=50, lamda=9)
    assert main(["ep", "--config", cfg, "--out", str(out)]) == 0
    s = load_summary(out)
    assert s["ok"] and s["ignored_keys"] == ["ep_max_sweep", "lamda"]
    plain = tmp_path / "plain"
    assert main(["ep", "--config", write_cfg(tmp_path / "plain.cfg", **LINEAR_6x4), "--out", str(plain)]) == 0
    assert load_summary(plain)["ignored_keys"] == []
    assert (out / "mean.csv").read_bytes() == (plain / "mean.csv").read_bytes()


def test_readme_key_table_lists_exactly_the_declared_keys():
    readme = Path(__file__).parents[1] / "README.md"
    rows = re.findall(r"^\| `([a-z_]+)` \|", readme.read_text(), flags=re.MULTILINE)
    assert len(rows) == len(set(rows)) and set(rows) == KEYS.keys()


@pytest.fixture(scope="module")
def eight_electrodes(tmp_path_factory):
    """An 8-electrode mesh and data laid out for 8 electrodes."""
    root = tmp_path_factory.mktemp("eight")
    mesh_cfg = write_cfg(root / "mesh.cfg", electrodes=8, target_nodes=200, out=root / "mesh")
    assert main(["mesh", "--config", mesh_cfg]) == 0
    synth_cfg = write_cfg(root / "synth.cfg", electrodes=8, fine_target_nodes=300, seed=1, out=root / "synth")
    assert main(["synth", "--config", synth_cfg]) == 0
    return root / "mesh" / "mesh.txt", root / "synth" / "data.csv"


MCMC_TINY = {"mcmc_steps": 20, "mcmc_burn_in": 2, "mcmc_thin": 1, "mcmc_pilot_steps": 10}


@pytest.mark.parametrize("command", ["ep", "mcmc", "synth"])
@pytest.mark.parametrize("mesh_electrodes", [16, 8])
def test_electrode_count_mismatch_is_a_config_error(
    workspace, eight_electrodes, tmp_path, command, mesh_electrodes
):
    # a 16-electrode mesh run as 8 electrodes used to fail with IndexError
    # (internal), an 8-electrode mesh run as 16 with SingularSystem
    _, mesh16, data16 = workspace
    mesh8, data8 = eight_electrodes
    if mesh_electrodes == 16:
        mesh, keys = mesh16, {"electrodes": 8, "data": data8}
    else:
        mesh, keys = mesh8, {"data": data16}
    if command == "synth":
        keys = {"electrodes": keys.get("electrodes", 16), "fine_mesh": mesh, "seed": 1}
    else:
        keys = {**keys, "problem": "eit", "mesh": mesh, **(MCMC_TINY if command == "mcmc" else {})}
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path / "c.cfg", **keys, out=out)]) == 2
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == "bad_electrodes"
    assert f"{mesh_electrodes} electrodes" in s["error_detail"]


def test_ep_skipped_sites_are_tagged_by_outer(tmp_path):
    # a Laplace prior of rate 1e308 overflows every site's tilted logZ to
    # -inf, in every sweep of every outer iteration; the mean then stops
    # moving, which is not convergence
    out = tmp_path / "skip"
    cfg = write_cfg(
        tmp_path / "skip.cfg", **LINEAR_6x4, **{"lambda": 1e308},
        ep_max_sweeps=2, ep_max_outer=2, out=out,
    )
    assert main(["ep", "--config", cfg]) == 0
    s = load_summary(out)
    assert s["outer_iterations"] == 2 and s["converged"] is False
    assert [(e["outer"], e["sweep"]) for e in s["skipped_sites"]] == [
        (k, j) for k in (1, 2) for j in (1, 2) for _ in range(4)
    ]
    assert all(e["reason"].startswith("DegenerateSupport") for e in s["skipped_sites"])


def test_a_finishing_ep_run_starts_from_the_last_snapshot(tmp_path, monkeypatch):
    # at --seed 2 outer iteration 2's EP run stops on the loosened tolerance
    # after 1 sweep and is finished at site_tol in 2 more: 2 + 8 snapshots,
    # one per EP run's entry and one per sweep, the finishing run's entry
    # being the loosened run's last
    from epinverse import ep

    calls = []
    snapshot = ep._snapshot
    monkeypatch.setattr(ep, "_snapshot", lambda *a: calls.append(a) or snapshot(*a))
    out = tmp_path / "out"
    assert main(["ep", "--config", write_cfg(tmp_path / "c.cfg", problem="linear", out=out), "--seed", "2"]) == 0
    s = load_summary(out)
    assert [(o["inner_sweeps"], o["site_tol"]) for o in s["outer"]] == [(5, 1e-4), (3, 1e-4)]
    assert len(calls) == s["outer_iterations"] + s["total_inner_sweeps"] == 10
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + s["total_inner_sweeps"]


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_ep_floor_within_rounding_of_sigma_bg_runs(tmp_path, mode):
    # the lower Laplace piece [floor, sigma_bg) is empty in floating point at
    # most cavities; it is dropped rather than ending the run
    out = tmp_path / mode
    cfg = write_cfg(
        tmp_path / f"{mode}.cfg", **LINEAR_6x4, sigma_bg=0.3, floor=0.29999999999999993,
        ep_sweep_mode=mode, seed=1, out=out,
    )
    assert main(["ep", "--config", cfg]) == 0
    s = load_summary(out)
    assert s["ok"] and s["ep_sweep_mode"] == mode
    _, mean = read_vec(out / "mean.csv")
    assert np.all(np.isfinite(mean))


def test_importing_the_cli_leaves_the_unused_modules_unloaded():
    # scipy.integrate (the quadrature oracle), scipy.spatial (mesh
    # generation) and the process pool (parallel chains) load on first use
    src = str(Path(epinverse.__file__).parents[1])
    code = (
        "import sys, epinverse.cli; "
        "print([m for m in ('scipy.integrate', 'scipy.spatial', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, where, detail",
    [
        (["ep", "--out", "o1"], "o1", "the following arguments are required: --config"),
        (["ep", "--config", "x.cfg", "--out", "o2", "--seed", "abc"], "o2", "argument --seed: invalid int value: 'abc'"),
        (["mcmc", "--out=o3", "--bogus"], "o3", "the following arguments are required: --config"),
        (["frob"], ".", "argument command: invalid choice: 'frob'"),
        ([], ".", "the following arguments are required: command"),
    ],
)
def test_usage_error_writes_bad_arguments(tmp_path, monkeypatch, argv, where, detail):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    s = load_summary(tmp_path / where)
    assert s["ok"] is False and s["error"] == "bad_arguments"
    assert s["error_detail"].startswith(detail)
    assert s["command"] == (argv[0] if argv and argv[0] in ("ep", "mcmc") else None)


def test_help_exits_zero_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["-h"], ["ep", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("threads", [0, -3])
def test_mcmc_threads_below_one_is_bad_threads(tmp_path, threads):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "c.cfg", **LINEAR_6x4, mcmc_steps=100, out=out)
    assert main(["mcmc", "--config", cfg, "--threads", str(threads)]) == 2
    s = load_summary(out)
    assert s["error"] == "bad_threads" and not (out / "table3.csv").exists()


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_ep_above_full_cov_max_n_keeps_only_diagonals(tmp_path, monkeypatch, mode):
    from epinverse import nonlinear

    cfg = write_cfg(tmp_path / "c.cfg", **LINEAR_6x4, ep_sweep_mode=mode)
    full, diag = tmp_path / "full", tmp_path / "diag"
    assert main(["ep", "--config", cfg, "--out", str(full)]) == 0

    # the one bound, read by the trace and by the CLI, moves below n = 4
    monkeypatch.setattr(nonlinear, "FULL_COV_MAX_N", 3)
    traces, diagonals = [], []

    class RecordingTrace(nonlinear._Trace):
        def __init__(self):
            super().__init__()
            traces.append(self)

        def add(self, sweep, snap):
            if sweep or not diagonals:  # the snapshots the rows read: every sweep's and the first entry one
                diagonals.append(np.diag(snap.C).copy())
            super().add(sweep, snap)

    monkeypatch.setattr(nonlinear, "_Trace", RecordingTrace)
    assert main(["ep", "--config", cfg, "--out", str(diag)]) == 0

    assert (full / "cov.csv").is_file() and not (diag / "cov.csv").exists()
    for name in ("mean.csv", "std.csv"):
        assert (diag / name).read_bytes() == (full / name).read_bytes()
    assert len(traces) == 1 and traces[0]._kept
    assert all(strict.size == 0 and d.shape == (4,) for *_, strict, d in traces[0]._kept)
    trace_full = np.loadtxt(full / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    trace_diag = np.loadtxt(diag / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.all(np.isfinite(trace_diag)) and trace_diag.shape == trace_full.shape
    assert np.array_equal(trace_diag[:, :4], trace_full[:, :4])  # outer, inner and the two mu columns

    # the C columns are the relative norms of the diagonal differences, bit for bit
    def rel(a, b):
        return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)

    want = [[rel(d, d_p), rel(d, diagonals[-1])] for d_p, d in zip(diagonals, diagonals[1:])]
    assert trace_diag[:, 4:].tolist() == want


def test_unexpected_failure_writes_internal_error(tmp_path, monkeypatch):
    import epinverse.cli as cli

    def broken(cfg, out, seed, threads):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "ep", broken)
    out = tmp_path / "internal"
    assert main(["ep", "--config", write_cfg(tmp_path / "i.cfg", **LINEAR_6x4, out=out)]) == 3
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == "internal"
    assert "Traceback" in s["error_detail"] and "boom" in s["error_detail"]


# ---------------------------------------------------------------------------
# output writers, BLAS threads and the default sweep mode
# ---------------------------------------------------------------------------

def _mirrored(upper):
    """The square matrix whose row i starts ``upper[i]`` at the diagonal,
    with each value copied bit for bit to its mirror cell."""
    n = len(upper)
    M = np.zeros((n, n))
    for i, row in enumerate(upper):
        M[i, i:] = row
        M[i:, i] = row
    return M


def _random_cov(n):
    from epinverse import chol

    A = np.random.default_rng(3).standard_normal((n, n))
    return chol.inverse(chol.cholesky(A @ A.T + n * np.eye(n)))


def test_matrix_csv_writer_matches_the_per_cell_format(tmp_path):
    # the writer formats only the upper triangle; the text must be that of
    # formatting every cell
    import epinverse.cli as cli

    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2250738585072014e-308, -1e300, 1.0 / 3.0]
    for M in (
        _mirrored([[-0.0]]),
        _mirrored([special[:2], special[2:3]]),
        _mirrored([special[3:6], special[6:8], [np.nan]]),
        _random_cov(400),
    ):
        cli._write_matrix_csv(tmp_path / "m.csv", M)
        want = "\n".join(",".join(f"{v:.17e}" for v in row) for row in M) + "\n"
        assert (tmp_path / "m.csv").read_bytes() == want.encode()


@pytest.mark.parametrize(
    "M",
    [
        np.zeros((3, 4)),
        np.zeros(3),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([[1.0, -0.0], [0.0, 1.0]]),
        np.array([[1.0, np.nan], [-np.nan, 1.0]]),
    ],
    ids=["3x4", "vector", "not_symmetric", "signed_zero_pair", "signed_nan_pair"],
)
def test_matrix_csv_writer_refuses_a_matrix_that_is_not_bitwise_symmetric(tmp_path, M):
    import epinverse.cli as cli

    with pytest.raises(ValueError):
        cli._write_matrix_csv(tmp_path / "m.csv", M)
    assert not (tmp_path / "m.csv").exists()


def test_matrix_csv_writer_streams_its_rows(tmp_path):
    # a writer that held all n^2 cells and the joined text peaked at 11.25 MB
    # on this matrix
    import tracemalloc

    import epinverse.cli as cli

    M = _random_cov(400)
    tracemalloc.start()
    try:
        cli._write_matrix_csv(tmp_path / "m.csv", M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_blas_runs_on_one_thread_after_main_when_unset(tmp_path, monkeypatch):
    import epinverse.cli as cli

    if not cli._openblas_entry_points():
        pytest.skip("no bundled OpenBLAS to pin")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "ep"
    assert main(["ep", "--config", write_cfg(tmp_path / "e.cfg", **LINEAR_6x4, out=out)]) == 0
    assert [int(get()) for _, get in cli._openblas_entry_points()] == [1] * len(cli._openblas_entry_points())
    s = load_summary(out)
    assert s["blas_threads"] == 1 and s["schema_version"] == 8


@pytest.mark.parametrize("var", [None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_blas_thread_environment_variables_override_the_pin(tmp_path, monkeypatch, var):
    import epinverse.cli as cli

    calls = []
    fake = ((calls.append, lambda: 4), (calls.append, lambda: 3))
    monkeypatch.setattr(cli, "_openblas_entry_points", lambda: fake)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if var:
        monkeypatch.setenv(var, "4")
    out = tmp_path / "ep"
    assert main(["ep", "--config", write_cfg(tmp_path / "e.cfg", **LINEAR_6x4, out=out)]) == 0
    assert calls == ([] if var else [1, 1])
    assert load_summary(out)["blas_threads"] == 4


def test_blas_threads_is_null_without_a_bundled_openblas(tmp_path, monkeypatch):
    import epinverse.cli as cli

    monkeypatch.setattr(cli, "_openblas_entry_points", lambda: ())
    out = tmp_path / "bad"
    assert main(["ep", "--config", write_cfg(tmp_path / "b.cfg", problem="nope", out=out)]) == 2
    s = load_summary(out)
    assert s["error"] == "bad_problem" and s["blas_threads"] is None


@pytest.fixture(scope="module")
def desk_scale(tmp_path_factory):
    """The criterion-7 inputs made through the CLI: a ~300-node inversion
    mesh, and data from a 1200-node mesh with one inclusion at a quarter of
    the background, noise seed 42."""
    from epinverse.eit import SIGMA_BG

    root = tmp_path_factory.mktemp("desk")
    assert main(["mesh", "--config", write_cfg(root / "mesh.cfg", target_nodes=300, out=root)]) == 0
    synth_cfg = write_cfg(
        root / "synth.cfg",
        fine_target_nodes=1200,
        inclusion_cx=0.05,
        inclusion_cy=0.02,
        inclusion_radius=0.035,
        inclusion_value=repr(0.25 * SIGMA_BG),
        seed=42,
        out=root / "synth",
    )
    assert main(["synth", "--config", synth_cfg]) == 0
    return root / "mesh.txt", root / "synth" / "data.csv"


def _desk_ep(tmp_path, desk_scale, name, **keys):
    mesh, data = desk_scale
    out = tmp_path / name
    assert main(["ep", "--config", write_cfg(tmp_path / f"{name}.cfg", problem="eit", mesh=mesh,
                                             data=data, out=out, **keys)]) == 0
    return out


def test_ep_desk_scale_default_keys_pass_criteria_7_and_9(tmp_path, desk_scale):
    from epinverse.eit import SIGMA_BG, TANK_RADIUS, read_mesh

    out = _desk_ep(tmp_path, desk_scale, "default")
    s = load_summary(out)
    assert s["ep_sweep_mode"] == "parallel"
    # criterion 7
    assert s["converged"] and s["outer_iterations"] <= 10 and s["total_inner_sweeps"] <= 50
    mesh = read_mesh(desk_scale[0])
    ids, mean = read_vec(out / "mean.csv")
    _, std = read_vec(out / "std.csv")
    center, rad = (0.05, 0.02), 0.035
    inside = set(np.nonzero(np.hypot(*(mesh.nodes - center).T) <= rad)[0].tolist())
    dilated = set(inside)
    for t in mesh.triangles.tolist():
        if inside.intersection(t):
            dilated.update(t)
    assert int(ids[np.argmax(np.abs(mean - SIGMA_BG))]) in dilated
    r = np.hypot(*mesh.nodes[ids].T)
    assert std[r < 0.25 * TANK_RADIUS].mean() > std[r > 0.75 * TANK_RADIUS].mean()
    # criterion 9
    rows = [ln.split(",") for ln in (out / "trace.csv").read_text().splitlines()[1:]]
    by_outer: dict[int, list[float]] = {}
    for row in rows:
        by_outer.setdefault(int(row[0]), []).append(float(row[2]))
    assert len(rows) == s["total_inner_sweeps"]
    assert all(e[-1] < e[0] for e in by_outer.values() if len(e) > 1)
    firsts = [by_outer[k][0] for k in sorted(by_outer) if k >= 2]
    assert all(b <= a for a, b in zip(firsts, firsts[1:]))

    # ep_sweep_mode = serial restores the serial schedule; the posteriors agree
    serial = _desk_ep(tmp_path, desk_scale, "serial", ep_sweep_mode="serial")
    s_ser = load_summary(serial)
    assert s_ser["ep_sweep_mode"] == "serial" and s_ser["converged"]
    _, mean_ser = read_vec(serial / "mean.csv")
    _, std_ser = read_vec(serial / "std.csv")
    assert np.linalg.norm(mean - mean_ser) / np.linalg.norm(mean_ser) <= 1e-4
    assert np.linalg.norm(std - std_ser) / np.linalg.norm(std_ser) <= 1e-3
