import json

import numpy as np
import pytest

from epinverse.cli import main


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

    model, data, alpha, lam, bg, floor, _ = _build_linear_problem(load_config(tmp_path / "lin.cfg"), seed)
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
    cfg = write_cfg(
        tmp_path / "bogus2.cfg", problem="linear", linear_m=6, linear_n=4,
        ep_on_downdate_failure="retry", out=out,
    )
    assert main(["ep", "--config", cfg]) == 2
    assert load_summary(out)["error"] == "bad_ep_on_downdate_failure"


def test_ep_truncated_mesh_writes_internal_error(workspace, tmp_path):
    _, mesh_path, data_path = workspace
    lines = mesh_path.read_text().splitlines()
    truncated = tmp_path / "truncated_mesh.txt"
    truncated.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    out = tmp_path / "trunc_out"
    cfg = write_cfg(tmp_path / "t.cfg", problem="eit", mesh=truncated, data=data_path, out=out)
    rc = main(["ep", "--config", cfg])
    assert rc != 0
    s = load_summary(out)
    assert s["ok"] is False and s["error"] == "internal"
    assert "Traceback" in s["error_detail"]
