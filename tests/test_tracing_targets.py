"""The benchmark tracer's targets resolve against the program.

perfbench/tracing.py wraps addix from outside: a method through its own
class's __dict__, a function by module attribute.  A refactor that moves a
traced method onto a base class, or renames a traced function, must fail
here rather than only in the slow benchmark self-test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import addix
import addix.verify
from addix.analysis import is_permutation
from addix.field import Field
from addix.poly import parse_poly

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_tracer_target_resolves(target):
    _, module, path, _, _ = target
    owner = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(owner, cls_name)
        assert attr in cls.__dict__, f"{attr} is not defined on {cls_name} itself"
        assert callable(cls.__dict__[attr])
    else:
        assert callable(getattr(owner, path))


def test_tracer_installs_records_and_uninstalls():
    methods = [(getattr(importlib.import_module(m), path.split(".")[0]), path.split(".")[1])
               for _, m, path, _, _ in tracing.TARGETS if "." in path]
    before = [cls.__dict__[attr] for cls, attr in methods]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(cls.__dict__[attr] is not orig
                   for (cls, attr), orig in zip(methods, before))
        tracer.begin(0)
        assert not is_permutation(parse_poly("x^2+x", Field(2, 3))).is_pp
        tracer.end()
    finally:
        tracer.uninstall()
    assert [cls.__dict__[attr] for cls, attr in methods] == before
    assert addix.verify.maximal_decomposition is addix.maximal_decomposition
    assert tracer.calls["decompose.maximal_decomposition"] == 1
    assert tracer.calls["poly.eval"] > 0 and tracer.extra["poly.eval"] > 0
