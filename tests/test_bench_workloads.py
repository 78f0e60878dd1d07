"""Every benchmark workload runs on the package as it is: a change to the
package that breaks a workload's set-up, run or checks must fail here rather
than in the next benchmark run."""

import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads(monkeypatch):
    # compiled from its text, so that no bytecode is written next to it; the
    # dataclasses it defines look their module up in sys.modules
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["eit_ep", "linear_ep_mcmc", "eit_mcmc", "linear_ep_large"])
def test_workload_runs_and_passes_its_checks(name, tmp_path, monkeypatch):
    # the directories bench/run.py gives each step of one repeat
    workload = _load_workloads(monkeypatch).WORKLOADS[name]
    seed = 1
    prepared = workload.prepare(tmp_path / "configs", seed)
    inputs = workload.setup(tmp_path / "setup", seed, prepared)
    out = tmp_path / "out"
    timed = workload.run(inputs, out, seed)
    assert timed.work > 0
    gates = workload.check(inputs, out, timed)
    assert gates and all(gates.values()), gates
