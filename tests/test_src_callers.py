"""Every public module-level function and every public method of a public
class in copcd has a caller outside the tests: in src/, in the benchmark
harness or in scripts/. Code that only tests call belongs in tests/, the
way ``copula_oracle.py`` holds the densities and CDFs that verify the log
densities. Every private module-level function is named by src/ code
outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = {"cli.main"}  # the console script of pyproject.toml


def _uncalled(modules: dict, callers: list) -> list:
    """'module.function' for each public module-level function and
    'module.Class.method' for each public method of `modules` (module name
    -> source) that no source in `modules` or `callers` names."""
    named = set().union(*(_names(ast.parse(source))
                           for source in [*modules.values(), *callers]))
    return sorted(f"{module}.{name}" for module, source in modules.items()
                  for name in _public_functions(ast.parse(source).body)
                  if name.rsplit(".", 1)[-1] not in named)


def _uncalled_private(modules: dict) -> list:
    """'module._function' for each private module-level function of
    `modules` (module name -> source) that no other top-level statement of
    `modules` names."""
    trees = {module: ast.parse(source).body for module, source in modules.items()}
    names = {id(stmt): _names(stmt) for body in trees.values() for stmt in body}
    return sorted(
        f"{module}.{fn.name}" for module, body in trees.items() for fn in body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
        and not any(fn.name in named for key, named in names.items() if key != id(fn)))


def _names(root) -> set:
    """The names and attribute names that occur under `root`."""
    named = set()
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def _public_functions(body: list) -> list:
    """'function' for each public function of a module body and
    'Class.method' for each public method of its public classes."""
    names = []
    for node in body:
        if _is_public(node, ast.FunctionDef):
            names.append(node.name)
        elif _is_public(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if _is_public(m, ast.FunctionDef)]
    return names


def _is_public(node, kind) -> bool:
    return isinstance(node, kind) and not node.name.startswith("_")


def test_every_public_function_has_a_caller_outside_the_tests():
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "copcd").glob("*.py"))}
    callers = [p.read_text() for pattern in ("perfbench/*.py", "scripts/*.py")
               for p in sorted(ROOT.glob(pattern))]
    uncalled = _uncalled(modules, callers)
    assert [name for name in uncalled if name not in ENTRY_POINTS] == []


def test_every_private_function_has_a_caller_in_src():
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "copcd").glob("*.py"))}
    assert _uncalled_private(modules) == []


def test_checker_flags_a_private_function_only_it_names():
    # _f and _h name only themselves and _j nothing; k's call keeps _g, and
    # a name in another module counts.
    modules = {"m": "def _f():\n    return _f()\n\ndef _g():\n    pass\n\n"
                    "def _h():\n    return _h\n\ndef k():\n    return _g()\n",
               "n": "import m\n\ndef _j():\n    pass\n"}
    assert _uncalled_private(modules) == ["m._f", "m._h", "n._j"]
    modules["n"] += "\nX = m._f\n_j()\n"
    assert _uncalled_private(modules) == ["m._h"]


def test_checker_flags_a_function_nothing_calls():
    modules = {"m": "def f():\n    pass\n\ndef g():\n    f()\n\ndef _h():\n    pass\n",
               "n": "import m\n\ndef k():\n    return m.g\n"}
    assert _uncalled(modules, []) == ["n.k"]
    assert _uncalled(modules, ["from n import k\nk()\n"]) == []


def test_checker_flags_a_method_nothing_calls():
    modules = {"m": "class A:\n    def f(self):\n        return self.g()\n\n"
                    "    def g(self):\n        pass\n\n    def _h(self):\n        pass\n\n"
                    "class _B:\n    def k(self):\n        pass\n"}
    assert _uncalled(modules, []) == ["m.A.f"]
    assert _uncalled(modules, ["from m import A\nA().f()\n"]) == []
