"""The entry points perfbench's layer tracer wraps must exist and come back.

``perfbench/tracer.py`` (outside this suite's collection) patches
``repro`` names at runtime: :class:`PathRecorder` is installed on every
perfbench run and wraps two of them, :class:`Tracer` wraps every layer
on ``--trace 1`` runs.  A target deleted or renamed in ``src/`` would
break those runs unseen until the benchmark runs, so this test loads the
tracer by path, installs and uninstalls both, and checks that every
target was patched and every patched attribute restored to the
identical object.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

_MISSING = object()


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layer_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def repro_namespaces():
    """Every loaded ``repro`` module and every class bound in one."""
    spaces = {}
    for name, mod in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        spaces[id(mod)] = mod
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("repro"):
                spaces[id(value)] = value
    return list(spaces.values())


def snapshot(spaces):
    return {(id(ns), key): value for ns in spaces for key, value in vars(ns).items()}


def targets(tracer, recorder_name):
    """``(owner, attribute)`` pairs the recorder must patch."""
    from repro.exp import runner
    from repro.hw import drawplan

    if recorder_name == "PathRecorder":
        return [(runner, "group_requests"), (drawplan, "attach")]
    return [(owner, attr) for _, owner, attr, _ in tracer.layer_targets()]


@pytest.mark.parametrize("recorder_name", ["PathRecorder", "Tracer"])
def test_install_patches_every_target_and_uninstall_restores(recorder_name):
    tracer = load_tracer()
    wanted = targets(tracer, recorder_name)  # imports every target module
    spaces = repro_namespaces()
    before = snapshot(spaces)
    originals = [(owner, attr, getattr(owner, attr, _MISSING)) for owner, attr in wanted]
    for owner, attr, original in originals:
        assert original is not _MISSING, f"{owner.__name__}.{attr} is gone"

    recorder = getattr(tracer, recorder_name)()
    recorder.install()
    try:
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not patched"
    finally:
        recorder.uninstall()

    after = snapshot(spaces)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original
