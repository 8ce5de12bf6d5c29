"""The package's settable options, counted with `ast`, stay within a
recorded budget: every defaulted parameter of a module-level function or
of a method, plus every field of a dataclass.  Deleting an option lowers the
count; lower the budget with it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "youngbsde"

OPTION_BUDGET = 141


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted(function) -> int:
    args = function.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def count_options(package: Path = PACKAGE) -> tuple[int, int]:
    """(defaulted parameters, dataclass fields) over the package's
    modules."""
    params = fields = 0
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                params += _defaulted(node)
            elif isinstance(node, ast.ClassDef):
                params += sum(_defaulted(item) for item in node.body
                              if isinstance(item, functions))
                if _is_dataclass(node):
                    fields += sum(isinstance(item, ast.AnnAssign)
                                  for item in node.body)
    return params, fields


def test_settable_options_within_budget():
    params, fields = count_options()
    assert params + fields <= OPTION_BUDGET, (
        f"{params} defaulted parameters + {fields} dataclass fields = "
        f"{params + fields} settable options, above the budget of "
        f"{OPTION_BUDGET}; a raise must be declared in CHANGES.md with the "
        f"option it adds")


def test_counts_defaults_and_fields(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c, d=2):\n"
        "    def inner(e=3):\n"
        "        pass\n"
        "class K:\n"
        "    def m(self, g=4):\n"
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: float = 0.0\n")
    assert count_options(tmp_path) == (3, 2)
