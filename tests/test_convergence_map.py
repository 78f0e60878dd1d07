"""The convergence map's gate: a problem that converged before must not
crash or stop converging after.  The map itself takes a few seconds per
problem and is run by hand (tools/convergence_map.py)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "convergence_map", Path(__file__).resolve().parent.parent / "tools" / "convergence_map.py"
)
convergence_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(convergence_map)


def _record(ratio, mode, converged, exit_code=0):
    return {"ratio": ratio, "noise_seed": 42, "mode": mode, "converged": converged, "exit_code": exit_code,
            "error": None if exit_code == 0 else "GlobalNotPD"}


def test_the_gate_names_each_problem_that_stopped_converging_or_crashed():
    parent = [_record(0.25, "parallel", True), _record(0.25, "serial", True), _record(8.0, "serial", False),
              _record(4.0, "parallel", True)]
    after = [_record(0.25, "parallel", True), _record(0.25, "serial", False), _record(8.0, "serial", False),
             _record(4.0, "parallel", False, exit_code=1)]
    assert convergence_map.regressions(parent, after) == [after[1], after[3]]
    assert convergence_map.regressions(parent, parent) == []
    # a problem that did not converge before may do anything
    assert convergence_map.regressions(after, parent) == []


def test_the_grid_is_27_problems_in_both_modes():
    assert len(convergence_map.RATIOS) * len(convergence_map.NOISE_SEEDS) == 27
    assert convergence_map.MODES == ("parallel", "serial")
