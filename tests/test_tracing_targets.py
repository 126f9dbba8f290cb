"""The benchmark tracer's targets resolve against the program.

perfbench/tracing.py wraps addix from outside: a method through its own
class's __dict__, a function by module attribute.  A refactor that moves a
traced method onto a base class, or renames a traced function, must fail
here rather than only in the slow benchmark self-test.  The workloads keep
their own copy of criterion 9's refutation text, which must match verify's.
"""

import importlib
import types
from pathlib import Path

import pytest

import addix
import addix.verify
from addix.analysis import construct_prescribed_cycles, is_permutation
from addix.field import Field
from addix.poly import parse_poly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py run as a fresh module; nothing is written beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module


tracing = _load("tracing")


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
        field = Field(2, 3)
        tracer.begin(0)
        assert not is_permutation(parse_poly("x^2+x", field)).is_pp
        # the certificate reads the decomposition's value table, and the
        # cycle construction decomposes nothing and interpolates on codes,
        # so Poly.eval is called here by name
        perm = construct_prescribed_cycles(field, 4)
        assert perm.degree > 1 and perm.eval(field.zero) == field.zero
        tracer.end()
    finally:
        tracer.uninstall()
    assert [cls.__dict__[attr] for cls, attr in methods] == before
    assert addix.verify.maximal_decomposition is addix.maximal_decomposition
    assert tracer.calls["decompose.maximal_decomposition"] == 1
    assert tracer.calls["poly.eval"] > 0 and tracer.extra["poly.eval"] > 0


def test_workloads_refutation_text_matches_verify():
    # the acceptance workload recognises criterion 9's documented failure by
    # its own copy of this text; a rewording must not mark every answer wrong
    assert _load("workloads").REFUTATION_EVENT == addix.verify.REFUTATION_EVENT
