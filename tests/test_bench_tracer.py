"""Every span binding of the benchmark tracer (bench/tracer.py) names a
function or method that gtbases still defines.

``Tracer.install`` raises on a missing binding, but only inside a traced
benchmark run; this test reads the binding tables without installing
anything, so that a refactor which removes or renames a traced name fails
here first.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "tracer.py")
_spec = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("modname,attr", [f[:2] for f in tracer.FUNCTIONS])
def test_function_binding_resolves(modname, attr):
    mod = importlib.import_module("gtbases." + modname)
    fn = vars(mod).get(attr)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__


@pytest.mark.parametrize("modname,cls,meth", [m[:3] for m in tracer.METHODS] + [
    ("liealg_bcd.construction", "HWModule", "realize")])
def test_method_binding_resolves(modname, cls, meth):
    klass = getattr(importlib.import_module("gtbases." + modname), cls)
    assert inspect.isfunction(klass.__dict__.get(meth))
