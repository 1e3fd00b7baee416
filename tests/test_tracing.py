"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps bergman functions by name; renaming or
deleting one of them breaks only the benchmark, so this suite checks
that every target resolves and that uninstalling restores each site.
"""
import importlib.util
import pathlib
import sys

import bergman.cli  # noqa: F401  (loads every bergman module)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(modname, attr):
    owner = sys.modules[modname]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _traced(originals):
    """Values at a bergman module or target class that wrap a target."""
    targets = [orig for _, _, orig in originals.values()]
    namespaces = [vars(m) for key, m in list(sys.modules.items())
                  if key.split(".")[0] == "bergman"]
    namespaces += [vars(owner) for owner, _, _ in originals.values()]
    return [v for ns in namespaces for v in ns.values()
            if any(getattr(v, "__wrapped__", None) is t for t in targets)]


def test_tracer_finds_every_target_and_restores_it():
    tracing = _load_tracing()
    originals = {}
    for name, modname, attr, _ in tracing.TARGETS:
        owner, key = _owner(modname, attr)
        originals[name] = (owner, key, getattr(owner, key))
    assert not _traced(originals)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, (owner, key, orig) in originals.items():
            wrapped = getattr(owner, key)
            assert getattr(wrapped, "__wrapped__", None) is orig, name
    finally:
        tracer.uninstall()
    for name, (owner, key, orig) in originals.items():
        assert getattr(owner, key) is orig, name
    assert not _traced(originals)
