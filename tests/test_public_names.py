"""Every public name in the package is used by the package or kept on purpose.

A public function, class, method or property that nothing in src/sjb
references is either part of the library's surface, and listed in KEPT with
its reason, or a second way to do something the package already does.  A
method or property is referenced only by an attribute access (``x.name``):
a local variable of the same name does not call it.
"""

import ast
from pathlib import Path

import sjb

SRC = Path(sjb.__file__).parent

KEPT = {
    "embed": "the paper's notation",
    "lift": "the paper's notation",
    "down": "the paper's notation: up's adjoint in the sl(2) pair",
    "to_document": "the documented codec (README, Documents)",
    "from_document": "the documented codec (README, Documents)",
    "serialize": "the documented codec (README, Documents)",
    "deserialize": "the documented codec (README, Documents)",
    "load": "the documented codec (README, Documents)",
    "build_sjb": "the whole-object API, and a perfbench/traced.py target",
    "build_scd": "the whole-object API, and a perfbench/traced.py target",
    "verify_sjb": "the whole-object API, and a perfbench/traced.py target",
    "check_ratio_uniformity": "the whole-object API, and a perfbench/traced.py target",
    "Vector.coeff": "one subset's coefficient, read without sorting every term as items() does",
}


def _public(trees):
    """(qualified name, name, whether it is a class member) of each public
    module-level function and class, and each public method and property of
    those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            yield node.name, node.name, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name, True


def unreferenced(src: Path) -> list[str]:
    """The public names under src that nothing under src references: a
    module-level name by a Name or an Attribute, a member by an Attribute."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))]
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return [qual for qual, name, member in _public(trees)
            if name not in attrs and (member or name not in names)]


def test_every_unreferenced_public_name_is_kept_with_a_reason():
    stray = [q for q in unreferenced(SRC) if q not in KEPT]
    assert not stray, f"public, used nowhere in src/sjb, and not in KEPT: {stray}"


def test_every_kept_name_is_public_and_unreferenced():
    stale = sorted(set(KEPT).difference(unreferenced(SRC)))
    assert not stale, f"in KEPT, but used in src/sjb or not a public name: {stale}"


def test_scan_sees_methods_properties_and_references(tmp_path):
    (tmp_path / "a.py").write_text(
        "class C:\n"
        "    @property\n"
        "    def p(self): return 1\n"
        "    def m(self): return self.p\n"
        "    def _hidden(self): pass\n"
        "def f(): return C\n"
        "def _g(): pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import f\n", encoding="utf-8")
    assert unreferenced(tmp_path) == ["C.m", "f"]


def test_a_local_variable_does_not_reference_a_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class C:\n"
        "    def m(self): return 1\n"
        "    def k(self): return 2\n"
        "def f(m):\n"
        "    k = m + 1\n"
        "    return k, C().k()\n", encoding="utf-8")
    assert unreferenced(tmp_path) == ["C.m", "f"]
