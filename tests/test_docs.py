"""The documentation keeps its promises: README's code runs and prints what
its comments say, and every public name states its contract in a
docstring."""

import inspect
import math
import re
import warnings
from pathlib import Path

import pytest

import adgd
from adgd import diagnostics, linalg, manifolds, optimizers, problems, trace_io

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run_and_print_what_they_say(tmp_path, monkeypatch, capsys):
    blocks = _readme_python_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    outputs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
            outputs.append(capsys.readouterr().out)
    assert outputs[0].split()[0] == "converged"
    status, radius = outputs[1].split()
    assert status == "converged"
    # The second block's comment gives the radius it prints.
    assert "3.814345482180452" in blocks[1]
    assert math.isclose(float(radius), 3.814345482180452, rel_tol=1e-9)


def _public_members(cls):
    for name, member in vars(cls).items():
        if not name.startswith("_") and (inspect.isfunction(member) or isinstance(member, property)):
            yield f"{cls.__name__}.{name}", getattr(cls, name)


def _documented_names():
    """Every name whose docstring is part of the package's contract."""
    names = {}
    for module in (adgd, linalg, diagnostics, manifolds):
        for name in module.__all__:
            names[f"{module.__name__}.{name}"] = getattr(module, name)
    for module in (problems, trace_io, optimizers):
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
            ):
                names[f"{module.__name__}.{name}"] = obj
    for obj in list(names.values()):
        if inspect.isclass(obj):
            for member, attr in _public_members(obj):
                names[f"{obj.__module__}.{member}"] = attr
    return names


DOCUMENTED = _documented_names()


@pytest.mark.parametrize("name", sorted(DOCUMENTED))
def test_public_name_has_a_docstring(name):
    # getdoc counts a docstring inherited from the base class.
    assert inspect.getdoc(DOCUMENTED[name])
