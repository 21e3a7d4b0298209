"""Static check: the package never rebinds a tensor's ``data`` attribute.

Every model parameter's ``data`` is a view into the model's one flat
vector, so rebinding it would detach the parameter from snapshots,
checkpoints and Adam without any error. Writes go through the views in
place (``p.data[...] = ...``). Only the places that create a tensor's
storage may assign the attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mambatab"
ALLOWED = {"tensor.py:Tensor.__init__", "tensor.py:_make"}


def data_rebinds(source: str, filename: str) -> list[tuple[str, int]]:
    """(``file:qualified function``, line) of every assignment or deletion of
    an attribute named ``data``, and of every ``setattr(x, "data", ...)``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            stored = (isinstance(child, ast.Attribute) and child.attr == "data"
                      and not isinstance(child.ctx, ast.Load))
            via_setattr = (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                           and child.func.id == "setattr" and len(child.args) > 1
                           and isinstance(child.args[1], ast.Constant)
                           and child.args[1].value == "data")
            if stored or via_setattr:
                found.append((f"{filename}:{'.'.join(scope)}", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_package_rebinds_data_only_where_storage_is_made():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in data_rebinds(path.read_text(encoding="utf-8"), path.name)]
    assert [hit for hit in found if hit[0] not in ALLOWED] == []
    assert {where for where, _ in found} == ALLOWED   # no stale exception


def test_checker_finds_every_form_of_rebinding():
    source = (
        "def f(p, q, x):\n"
        "    p.data = x\n"
        "    p.data -= x\n"
        "    p.data, q = x, 1\n"
        "    setattr(p, 'data', x)\n"
        "    del p.data\n"
        "    p.data[...] -= x\n"      # in place: allowed
        "    p.data[:] = x\n"         # in place: allowed
        "    y = p.data\n"            # a read: allowed
        "class C:\n"
        "    def g(self, x):\n"
        "        self.data: int = x\n"
    )
    assert data_rebinds(source, "m.py") == [
        ("m.py:f", 2), ("m.py:f", 3), ("m.py:f", 4), ("m.py:f", 5), ("m.py:f", 6),
        ("m.py:C.g", 12)]
