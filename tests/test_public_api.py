"""The package's public surface: imports, exports, docstrings, reach."""

import ast
import importlib
import pathlib
import re

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
REPO = SRC.parent

PACKAGES = [
    "repro",
    "repro.crypto",
    "repro.sim",
    "repro.cyclon",
    "repro.core",
    "repro.adversary",
    "repro.metrics",
    "repro.experiments",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports_and_is_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_top_level_convenience_exports():
    import repro

    assert repro.__version__
    overlay = repro.build_secure_overlay(
        n=10, config=repro.SecureCyclonConfig(view_length=3, swap_length=2)
    )
    assert isinstance(overlay, repro.Overlay)


def test_public_classes_have_docstrings():
    from repro.core.node import SecureCyclonNode
    from repro.core.descriptor import SecureDescriptor
    from repro.cyclon.node import CyclonNode
    from repro.sim.engine import Engine

    for cls in (SecureCyclonNode, SecureDescriptor, CyclonNode, Engine):
        assert cls.__doc__
        public_methods = [
            getattr(cls, name)
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        ]
        for method in public_methods:
            assert method.__doc__, f"{cls.__name__}.{method.__name__}"


def test_every_module_has_a_docstring():
    """Documentation deliverable: every module in the package explains
    itself."""
    import importlib
    import pathlib

    import repro

    package_root = pathlib.Path(repro.__file__).parent
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root.parent)
        module_name = ".".join(relative.with_suffix("").parts)
        if module_name.endswith(".__init__"):
            module_name = module_name[: -len(".__init__")]
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


def test_top_level_exports_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package_of(path: pathlib.Path) -> str:
    module = _module_name(path)
    return module if path.name == "__init__.py" else module.rpartition(".")[0]


def _module_files(name: str):
    """The files importing ``name`` executes: every package
    ``__init__`` on the way down, then the module itself."""
    parts = name.split(".")
    for depth in range(1, len(parts) + 1):
        base = SRC.joinpath(*parts[:depth])
        for candidate in (base / "__init__.py", base.with_suffix(".py")):
            if candidate.is_file():
                yield candidate
                break


def _imported_names(source: str, package: str):
    """Every dotted name an import statement in ``source`` may load:
    ``from pkg import name`` yields both ``pkg`` and ``pkg.name``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_every_src_module_is_reachable_from_an_entry_point():
    """The static import closure of what actually runs — the experiments
    and ops CLIs, the gate benchmark worker, the golden capture script,
    check.sh's inline Python and every example — covers ``src/repro``.
    A module none of them reaches is dead code."""
    check_sh = (REPO / "scripts" / "check.sh").read_text(encoding="utf-8")
    # Each item: (source, package for relative imports, directory
    # searched for top-level script imports).
    pending = [
        (code, "", REPO)
        for code in re.findall(r"<<'PY'\n(.*?)\nPY\n", check_sh, re.DOTALL)
    ]
    pending.append(
        ("import repro.experiments.__main__, repro.ops.__main__", "", REPO)
    )
    seen = {
        REPO / "benchmarks" / "suite" / "worker.py",
        REPO / "scripts" / "capture_figures.py",
        *(REPO / "examples").glob("*.py"),
    }
    pending += [
        (path.read_text(encoding="utf-8"), "", path.parent) for path in seen
    ]
    while pending:
        source, package, script_dir = pending.pop()
        for name in _imported_names(source, package):
            top = name.partition(".")[0]
            if top == "repro":
                files = _module_files(name)
            else:
                files = [script_dir / f"{top}.py"]
            for path in files:
                if path in seen or not path.is_file():
                    continue
                seen.add(path)
                in_src = path.is_relative_to(SRC)
                pending.append(
                    (
                        path.read_text(encoding="utf-8"),
                        _package_of(path) if in_src else "",
                        path.parent,
                    )
                )
    reached = {
        _module_name(path) for path in seen if path.is_relative_to(SRC)
    }
    every = {_module_name(path) for path in (SRC / "repro").rglob("*.py")}
    assert sorted(every - reached) == []
