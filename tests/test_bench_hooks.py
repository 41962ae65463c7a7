"""The benchmark's tracer patches package attributes by name; every name it
patches must exist, and uninstalling must restore each one."""

import importlib
import pkgutil
import types
from pathlib import Path

import kernel_lab

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # executed from its source text, so no bytecode is written under bench/
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def _owners(tracing):
    # the package, every module in it and every class whose methods the
    # tracer wraps
    modules = [kernel_lab] + [importlib.import_module(f"kernel_lab.{info.name}")
                              for info in pkgutil.iter_modules(kernel_lab.__path__)]
    classes = [getattr(importlib.import_module(f"kernel_lab.{mod}"), cls)
               for mod, cls, *_ in tracing._SPAN_METHODS + tracing._COUNT_METHODS]
    return modules + classes


def test_tracer_install_patches_and_uninstall_restores_every_attribute():
    tracing = _load_tracing()
    owners = _owners(tracing)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    # install raises if a name it patches is gone
    tracer.install()
    try:
        # the by-name hooks were replaced
        patched = {(id(owner), attr) for owner, attr, _ in tracer._patches}
        fracop = importlib.import_module("kernel_lab.fracop")
        assert (id(fracop), "quad") in patched
        for mod, cls, method, *_ in tracing._SPAN_METHODS + tracing._COUNT_METHODS:
            owner = getattr(importlib.import_module(f"kernel_lab.{mod}"), cls)
            assert (id(owner), method) in patched
    finally:
        tracer.uninstall()
    for owner, old in zip(owners, before):
        now = vars(owner)
        assert now.keys() == old.keys(), owner
        for attr, value in old.items():
            assert now[attr] is value, (owner, attr)
