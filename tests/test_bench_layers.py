"""The traced benchmark run (bench/run.py --trace 1) wraps package functions
by name; a rename in the package must fail here rather than in the next
traced run."""

import inspect
import types
from pathlib import Path

import numpy as np

from epinverse import EPOptions, LaplacePositivityFactor, NaturalGaussian, Site, ep, nonlinear
from epinverse.nonlinear import LinearModel, NonlinearOptions, run_nonlinear

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


class _Recorder:
    def __init__(self):
        self.targets = []

    def add(self, owner, attr, name, span=False, hook=None):
        self.targets.append((owner, attr, name))


def test_every_traced_target_resolves():
    layers = types.ModuleType("bench_layers")
    layers.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), layers.__dict__)
    rec = _Recorder()
    layers.register(rec)
    assert rec.targets
    missing = []
    for owner, attr, name in rec.targets:
        found = attr in vars(owner) if inspect.isclass(owner) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert not missing, f"traced targets no longer resolve: {missing}"
    assert {name for _, _, name in rec.targets} <= set(layers.LAYER_NAMES)


class _HookRecorder:
    def __init__(self):
        self.hooks = {}

    def add(self, owner, attr, name, span=False, hook=None):
        self.hooks[(owner, attr)] = hook


def test_run_ep_hook_reads_a_real_run_ep_call(monkeypatch):
    # the hook unpacks run_ep's arguments and result: a change to either must
    # fail here rather than in the next traced run
    layers = types.ModuleType("bench_layers")
    layers.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), layers.__dict__)
    rec = _HookRecorder()
    tally = layers.register(rec)

    calls = []
    real_run_ep = nonlinear.run_ep

    def recording_run_ep(*args, **kwargs):
        res = real_run_ep(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(nonlinear, "run_ep", recording_run_ep)
    rng = np.random.default_rng(4)
    n = 4
    model = LinearModel(rng.standard_normal((6, n)))
    # the last site's floor overflows its tilted logZ to -inf: DegenerateSupport
    sites = [Site(np.eye(1, n, i), LaplacePositivityFactor(1.0, 0.0, -1.0)) for i in range(n - 1)]
    sites.append(Site(np.eye(1, n, n - 1), LaplacePositivityFactor(1.0, 0.0, floor=1e308)))
    opts = NonlinearOptions(alpha=10.0, max_outer=2, outer_tol=1e-300, inner=EPOptions(max_sweeps=3))
    run_nonlinear(model, model.evaluate(np.full(n, 0.5)), sites, opts, np.zeros(n))
    assert len(calls) == 2
    for args, kwargs, res in calls:
        rec.hooks[(nonlinear, "run_ep")]("nonlinear.run_nonlinear", args, kwargs, res)

    # the same hook on a direct call that passes the sites by keyword
    base = NaturalGaussian(np.zeros(n), np.eye(n))
    res = ep.run_ep(base, sites=sites, opts=EPOptions(max_sweeps=2))
    rec.hooks[(ep, "run_ep")](None, (base,), {"sites": sites, "opts": EPOptions(max_sweeps=2)}, res)

    results = [c[2] for c in calls] + [res]
    sweeps = sum(r.sweeps_used for r in results)
    skipped = [sk for r in results for sk in r.skipped_sites]
    assert tally["ep.run_ep.sweeps"] == sweeps
    assert tally["ep.sites_visited"] == sweeps * n
    assert skipped and tally["ep.sites_skipped.DegenerateSupport"] == len(skipped)
