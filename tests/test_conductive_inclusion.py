"""Stress test of `epinverse ep` on the desk-scale EIT case with a
conductive inclusion, with a moderately conductive and a strongly resistive
control, close to problems of the convergence map (tools/convergence_map.py).

The inputs are made as the benchmark's eit_ep inputs are: an inversion mesh
of ~300 target nodes, a data mesh of ~1200 with one inclusion at (0.05,
0.02) of radius 0.035, and noise seed 42 unless a test names another; the
inclusion value and the noise seed vary.  EP runs with default keys and
--seed 42 on one BLAS thread.
"""

import json

import pytest

from epinverse.cli import main
from epinverse.eit import SIGMA_BG

CONDUCTIVE = 0.0075  # about 5.3 sigma_bg


def _write_cfg(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


@pytest.fixture(scope="module")
def mesh_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("mesh")
    assert main(["mesh", "--config", _write_cfg(out / "mesh.cfg", target_nodes=300), "--out", str(out),
                 "--seed", "42"]) == 0
    return out / "mesh.txt"


def _data_path(root, value, noise_seed):
    out = root / f"synth_{value!r}_s{noise_seed}"
    if not (out / "data.csv").is_file():
        cfg = _write_cfg(root / f"{out.name}.cfg", fine_target_nodes=1200, inclusion_cx=0.05,
                         inclusion_cy=0.02, inclusion_radius=0.035, inclusion_value=repr(value))
        assert main(["synth", "--config", cfg, "--out", str(out), "--seed", str(noise_seed)]) == 0
    return out / "data.csv"


def _run_ep(tmp_path, monkeypatch, mesh_path, value, mode, noise_seed=42):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    data = _data_path(mesh_path.parent, value, noise_seed)
    out = tmp_path / "ep"
    cfg = _write_cfg(tmp_path / "ep.cfg", problem="eit", mesh=mesh_path, data=data, ep_sweep_mode=mode)
    code = main(["ep", "--config", cfg, "--out", str(out), "--seed", "42"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blas_threads"] in (1, None)
    return code, summary


def test_conductive_inclusion_serial_converges(tmp_path, monkeypatch, mesh_path):
    code, s = _run_ep(tmp_path, monkeypatch, mesh_path, CONDUCTIVE, "serial")
    assert code == 0 and s["converged"] is True and not s["skipped_sites"]


@pytest.mark.parametrize("noise_seed", [1, 2])
def test_conductive_inclusion_serial_converges_at_other_noise_seeds(tmp_path, monkeypatch, mesh_path, noise_seed):
    # these runs converge only since every site whose tilted moments are
    # finite is refit, however small its logZ: they skipped 210 and 243
    # sites and ran out of outer iterations while logZ < -745 was a skip
    code, s = _run_ep(tmp_path, monkeypatch, mesh_path, CONDUCTIVE, "serial", noise_seed)
    assert code == 0 and s["converged"] is True and not s["skipped_sites"]


def test_conductive_inclusion_parallel_converges(tmp_path, monkeypatch, mesh_path):
    code, s = _run_ep(tmp_path, monkeypatch, mesh_path, CONDUCTIVE, "parallel")
    assert code == 0 and s["converged"] is True


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: parallel EP ends in GlobalNotPD (exit 1) at a post-sweep snapshot of the first "
    "outer iteration (outer iteration 1, sweep 5) on a conductive inclusion at noise seed 1",
)
def test_conductive_inclusion_parallel_converges_at_noise_seed_1(tmp_path, monkeypatch, mesh_path):
    code, s = _run_ep(tmp_path, monkeypatch, mesh_path, CONDUCTIVE, "parallel", 1)
    assert code == 0 and s["converged"] is True


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_twice_the_background_converges(tmp_path, monkeypatch, mesh_path, mode):
    code, s = _run_ep(tmp_path, monkeypatch, mesh_path, 2.0 * SIGMA_BG, mode)
    assert code == 0 and s["converged"] is True


@pytest.mark.parametrize("mode", ["parallel", "serial"])
def test_a_strongly_resistive_inclusion_ends_unconverged(tmp_path, monkeypatch, mesh_path, mode):
    # 0.07 sigma_bg: neither mode converges within the 10 outer iterations,
    # and the run says so
    code, s = _run_ep(tmp_path, monkeypatch, mesh_path, 0.0001, mode)
    assert code == 0 and s["ok"] is True and s["converged"] is False
