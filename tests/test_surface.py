"""The library surface, and a gate against code in ``src/`` that it does not reach.

The surface is:

- the names that ``privmetrics/__init__.py`` imports;
- every call and loader named in ``compute._SPECS`` and ``compute._KINDS``;
- the click commands in ``cli``;
- the statements a module runs on import other than definitions;
- whatever those reach.

The test walks the syntax trees of ``src/privmetrics/`` from those roots and
fails, naming ``file:line``, on every function, class, method or module-level
constant that nothing reaches.

Reachability goes by name, since the class of an object is not known without
running the code. Reached code reaches:

- each name it reads, defined in its own module or imported from the package;
- ``module.name`` for an attribute read on a package module, and for a string
  ``"module.name"``, the form in which ``compute`` names a call it looks up
  on first use; such a string also reads the global ``module``;
- every method named ``attr``, in any class, for each attribute ``.attr`` it
  reads. So a method counts as reached when reached code reads an attribute
  with that name, even on an object of another class.

A reached class reaches its base classes, decorators, class-level statements
and dunder methods, which Python calls without naming them; a reached
subclass of a ``click`` class also reaches its ``main``, which click's
``__call__`` and its test runner call without naming it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privmetrics"
_DOTTED = re.compile(r"(\w+)\.(\w+)")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bound_names(target: ast.expr) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


class _Module:
    """One source file: its top-level definitions, methods and package imports."""

    def __init__(self, path: Path):
        self.name = path.stem
        self.file = path.relative_to(PACKAGE.parents[1]).as_posix()
        self.tree = ast.parse(path.read_text(), str(path))
        self.defs: dict[str, ast.AST] = {}
        self.methods: dict[tuple[str, str], ast.AST] = {}
        self.run_on_import: list[ast.stmt] = []
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.methods[node.name, item.name] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in _bound_names(target):
                        self.defs[name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.run_on_import.append(node)
        # local name -> (module, name), or (module, None) for the module itself
        self.imports: dict[str, tuple[str, str | None]] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.imports[local] = (alias.name, None)
                    else:
                        self.imports[local] = (node.module, alias.name)


class _Surface:
    """The fixed point of reachability over every module of the package."""

    def __init__(self):
        self.modules = {p.stem: _Module(p) for p in sorted(PACKAGE.glob("*.py"))}
        self.methods_by_name: dict[str, list[tuple[str, str, str]]] = {}
        for mod in self.modules.values():
            for cls, meth in mod.methods:
                self.methods_by_name.setdefault(meth, []).append((mod.name, cls, meth))
        self.reached: set[tuple] = set()
        self._todo: list[tuple] = []
        for root in self._roots():
            self._reach(root)
        while self._todo:
            self._walk(*self._todo.pop())

    def _roots(self):
        init = self.modules["__init__"]
        for local, (module, name) in init.imports.items():
            yield from self._resolve(module, name or local)
        yield ("def", "compute", "_SPECS")
        yield ("def", "compute", "_KINDS")
        cli = self.modules["cli"]
        for name, node in cli.defs.items():
            decorators = getattr(node, "decorator_list", [])
            if any(
                isinstance(d, ast.Call)
                and isinstance(d.func, ast.Attribute)
                and d.func.attr in ("command", "group")
                for d in decorators
            ):
                yield ("def", "cli", name)
        for mod in self.modules.values():
            for stmt in mod.run_on_import:
                yield ("stmt", mod.name, stmt)

    def _resolve(self, module: str, name: str):
        """The definition that ``name`` read in ``module`` stands for, if any."""
        mod = self.modules.get(module)
        if mod is None:
            return
        if name in mod.defs:
            yield ("def", module, name)
        elif name in mod.imports:
            source, imported = mod.imports[name]
            if imported is not None:
                yield from self._resolve(source, imported)

    def _module_named(self, module: str, name: str) -> str | None:
        """The package module a name read in ``module`` stands for, if any."""
        imported = self.modules[module].imports.get(name)
        if imported is not None and imported[1] is None:
            return imported[0]
        return name if name in self.modules and name != "__init__" else None

    def _reach(self, key: tuple):
        if key not in self.reached:
            self.reached.add(key)
            self._todo.append(key)

    def _walk(self, kind: str, module: str, *rest):
        mod = self.modules[module]
        if kind == "stmt":
            nodes = [rest[0]]
        elif kind == "method":
            nodes = [mod.methods[rest]]
        else:
            node = mod.defs[rest[0]]
            if isinstance(node, ast.ClassDef):
                nodes = [*node.bases, *node.keywords, *node.decorator_list]
                nodes += [s for s in node.body if not isinstance(s, ast.FunctionDef)]
                of_click = any(isinstance(b, ast.Attribute) and isinstance(b.value, ast.Name)
                               and b.value.id == "click" for b in node.bases)
                for cls, meth in mod.methods:
                    if cls == node.name and (_is_dunder(meth) or of_click and meth == "main"):
                        self._reach(("method", module, cls, meth))
            elif isinstance(node, ast.Assign):
                nodes = [node.value]
            elif isinstance(node, ast.AnnAssign):
                nodes = [n for n in (node.annotation, node.value) if n is not None]
            else:
                nodes = [node]
        for node in nodes:
            for sub in ast.walk(node):
                for key in self._reads(module, sub):
                    self._reach(key)

    def _reads(self, module: str, node: ast.AST):
        if isinstance(node, ast.Name):
            yield from self._resolve(module, node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                target = self._module_named(module, node.value.id)
                if target is not None:
                    yield from self._resolve(target, node.attr)
            for mod_name, cls, meth in self.methods_by_name.get(node.attr, ()):
                yield ("method", mod_name, cls, meth)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _DOTTED.fullmatch(node.value)
            if match:
                yield from self._resolve(module, match[1])  # the global it is looked up by
                if match[1] in self.modules:
                    yield from self._resolve(match[1], match[2])

    def unreached(self) -> list[str]:
        """``file:line: module.name`` for every definition nothing reaches."""
        out = []
        for mod in self.modules.values():
            for name, node in mod.defs.items():
                if not _is_dunder(name) and ("def", mod.name, name) not in self.reached:
                    out.append((mod.file, node.lineno, f"{mod.name}.{name}"))
            for (cls, meth), node in mod.methods.items():
                class_reached = ("def", mod.name, cls) in self.reached
                if class_reached and ("method", mod.name, cls, meth) not in self.reached:
                    out.append((mod.file, node.lineno, f"{mod.name}.{cls}.{meth}"))
        return [f"{file}:{line}: {name}" for file, line, name in sorted(out)]


def test_every_definition_in_src_is_reached_from_the_surface():
    unreached = _Surface().unreached()
    assert not unreached, "unreached from the library surface:\n" + "\n".join(unreached)


def test_the_surface_walk_reaches_through_each_kind_of_root():
    reached = _Surface().reached
    assert ("def", "core", "parse_distribution") in reached  # imported by __init__
    assert ("def", "uncertainty", "shannon_entropy") in reached  # named in a spec string
    assert ("def", "indist", "parse_neighbor_relation") in reached  # named by a loader
    assert ("def", "cli", "export") in reached  # a click command
    assert ("def", "registry", "ADVISOR_QUESTIONS") in reached  # read by the advise command
    assert ("method", "core", "FiniteMechanism", "__post_init__") in reached  # a dunder
    assert ("method", "cli", "_Group", "main") in reached  # the entry point click calls
    assert ("method", "registry", "AdvisorAnswers", "from_json_dict") in reached  # an attribute
