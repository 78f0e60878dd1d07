"""The traced benchmark run (bench/run.py --trace 1) wraps package functions
by name; a rename in the package must fail here rather than in the next
traced run."""

import inspect
import types
from pathlib import Path

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
