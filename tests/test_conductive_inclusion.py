"""Stress test of `epinverse ep` on the desk-scale EIT case with a
conductive inclusion, with a moderately conductive and a strongly resistive
control, close to problems of the convergence map.

The inputs are made by the map's own builders (tools/convergence_map.py):
an inversion mesh of ~300 target nodes, a data mesh of ~1200 with one
inclusion at (0.05, 0.02) of radius 0.035, and noise seed 42 unless a test
names another; the inclusion value and the noise seed vary.  EP runs with
default keys and --seed 42 on one BLAS thread.
"""

import importlib.util
from pathlib import Path

import pytest

from epinverse.cli import main
from epinverse.eit import SIGMA_BG

_spec = importlib.util.spec_from_file_location(
    "convergence_map", Path(__file__).resolve().parent.parent / "tools" / "convergence_map.py"
)
convergence_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(convergence_map)

CONDUCTIVE = 0.0075  # about 5.3 sigma_bg


@pytest.fixture(scope="module")
def mesh_path(tmp_path_factory):
    return convergence_map.make_mesh(main, tmp_path_factory.mktemp("mesh"))


def _run_ep(tmp_path, monkeypatch, mesh_path, value, mode, noise_seed=42):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    data = convergence_map.make_data(main, mesh_path.parent, value, noise_seed)
    code, summary = convergence_map.run_ep(main, mesh_path, data, mode, tmp_path / "ep")
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
