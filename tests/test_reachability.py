"""Every module under ``src/repro`` must be reachable from an entry point.

A static walk of the import graph starts at the console scripts in
``pyproject.toml``, every ``__main__`` module and every ``ALL_EXPERIMENTS``
entry, and follows every import statement, including function-level ones.
A name in a package's ``lazy_exports`` table leads to its module only when
some import names it.  A module that nothing reaches is code no result
needs: delete it, or use it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: unreached on purpose, each until the ROADMAP item named beside it
ALLOWED_UNREACHED = {
    "repro.arch.reference": "item 2: oracles move to test support",
    "repro.kernels.reference": "item 2: oracles move to test support",
    "repro.partition.reference": "item 2: oracles move to test support",
    "repro.graph.stats": "item 2: oracles move to test support",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def _table(module: str, func: str) -> dict:
    """The literal dict passed to ``func(__name__, {...})`` in ``module``."""
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == func:
            return ast.literal_eval(node.args[1])
    return {}


def _resolve(package: str, name: str) -> str:
    return package + name if name.startswith(".") else name


#: package -> {lazily exported name: the module that provides it}
LAZY = {
    package: {
        name: _resolve(package, module)
        for module, names in _table(package, "lazy_exports").items()
        for name in names
    }
    for package, path in MODULES.items()
    if path.name == "__init__.py"
}


def _imports(module: str):
    """Modules the import statements of ``module`` load."""
    package = module if module in LAZY else module.rpartition(".")[0]
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            yield base
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                if submodule in MODULES:
                    yield submodule
                else:
                    yield LAZY.get(base, {}).get(alias.name, base)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "import_module"
            and isinstance(node.args[0], ast.Constant)
        ):
            yield node.args[0].value


def _roots():
    text = (SRC.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]")[1].split("\n[")[0]
    for line in filter(None, scripts.strip().splitlines()):
        yield line.split("=")[1].strip().strip('"').partition(":")[0]
    yield from (name for name in MODULES if name.endswith(".__main__"))
    for ref in _table("repro.experiments", "LazyRegistry").values():
        yield _resolve("repro.experiments", ref.partition(":")[0])


def _reached() -> set:
    seen, todo = set(), list(_roots())
    while todo:
        name = todo.pop()
        # Importing a.b.c runs a/__init__ and a/b/__init__ first.
        for prefix in (name.rsplit(".", k)[0] for k in range(name.count(".") + 1)):
            if prefix in MODULES and prefix not in seen:
                seen.add(prefix)
                todo.extend(_imports(prefix))
    return seen


def test_every_module_is_reached_from_an_entry_point():
    unreached = set(MODULES) - _reached()
    allowed = set(ALLOWED_UNREACHED)
    assert not unreached - allowed, f"unreached: {sorted(unreached - allowed)}"
    assert not allowed - unreached, f"reached now: {sorted(allowed - unreached)}"
