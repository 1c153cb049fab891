"""Top-level package surface: lazy exports, error hierarchy, CPE counters,
that every module has a caller outside the tests, and that every imported
name is read."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.common.errors import (
    BusProtocolError,
    LDMOverflowError,
    PlanError,
    RegisterPressureError,
    ReproError,
    SimulationError,
)
from repro.hw.cpe import CPE


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_attributes_resolve(self):
        assert repro.ConvParams(ni=1, no=1, ri=1, ci=1, kr=1, kc=1, b=1)
        assert callable(repro.conv_forward)
        assert callable(repro.plan_convolution)
        assert repro.PerformanceModel is not None
        assert repro.ConvolutionEngine is not None

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_all_list_matches_lazy_table(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            LDMOverflowError,
            RegisterPressureError,
            PlanError,
            SimulationError,
            BusProtocolError,
        ):
            assert issubclass(exc, ReproError)

    def test_bus_error_is_simulation_error(self):
        assert issubclass(BusProtocolError, SimulationError)

    def test_catchable_as_library_failure(self):
        from repro.core.params import ConvParams

        with pytest.raises(ReproError):
            ConvParams(ni=1, no=1, ri=1, ci=1, kr=1, kc=1, b=1).with_rows(5)


class TestCPECounters:
    def test_fma_tile_accounts_flops(self, rng):
        cpe = CPE(0, 0)
        acc = np.zeros((2, 3))
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((4, 3))
        cpe.fma_tile(acc, a, b)
        assert np.allclose(acc, a @ b)
        assert cpe.stats.flops == 2 * 2 * 3 * 4

    def test_ldm_counters(self):
        cpe = CPE(1, 2)
        cpe.count_ldm_load(64)
        cpe.count_ldm_store(32)
        assert cpe.stats.ldm_bytes_loaded == 64
        assert cpe.stats.ldm_bytes_stored == 32
        cpe.stats.reset()
        assert cpe.stats.flops == 0

    def test_coords(self):
        assert CPE(3, 5).coords == (3, 5)


ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: The trees whose imports count: the library, and everything that runs it.
CALLER_TREES = ("src", "examples", "swbench", "scripts", "benchmarks")

#: Modules that no caller imports yet, each with the reason it stays.
UNIMPORTED = {
    "repro.core.aux_ops": (
        "prices pooling, activation and bias; it stays for the per-layer "
        "ledger's non-conv rows, which will check the paper's >90% "
        "convolution share"
    ),
    "repro.isa.executor": (
        "runs a kernel on CPE state; whether it stays is decided with the "
        "derived Section VI kernel schedule"
    ),
    "repro.isa.verifier": (
        "checks a kernel's register use; whether it stays is decided with "
        "the derived Section VI kernel schedule"
    ),
    "repro.isa.scheduler": (
        "its dependence analysis and list scheduler are where the derived "
        "Section VI kernel schedule starts"
    ),
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_entry_point(path, tree):
    """A ``__main__`` module, or one guarded for ``python -m``."""
    if path.name == "__main__.py":
        return True
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in tree.body
    )


def _imported_names(tree):
    """Every dotted name an import statement in ``tree`` may load."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _unimported_modules():
    """Modules under ``src/repro`` that no other caller file imports.

    A package counts as imported when one of its modules is; entry points
    run with ``python -m`` need no importer.  The ``__init__`` of a package
    that holds the module is no caller, since re-exporting a name runs
    nothing; a caller that imports the name through the package is.
    """
    reexports = {}
    for init in (SRC / "repro").rglob("__init__.py"):
        package = _module_name(init)
        for node in ast.walk(ast.parse(init.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    reexports[f"{package}.{alias.asname or alias.name}"] = node.module
    imports = {}
    for tree_root in CALLER_TREES:
        for path in sorted((ROOT / tree_root).rglob("*.py")):
            names = _imported_names(ast.parse(path.read_text()))
            imports[path] = names | {reexports[n] for n in names if n in reexports}
    unimported = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = _module_name(path)
        if _is_entry_point(path, ast.parse(path.read_text())):
            continue
        if not any(
            other != path
            and not (other.name == "__init__.py" and other.parent in path.parents)
            and any(n == name or n.startswith(name + ".") for n in names)
            for other, names in imports.items()
        ):
            unimported.append(name)
    return unimported


class TestEveryModuleHasACaller:
    def test_no_unimported_module(self):
        stray = [m for m in _unimported_modules() if m not in UNIMPORTED]
        assert stray == [], (
            f"nothing under {', '.join(CALLER_TREES)} imports {stray}: "
            f"wire each into a caller or delete it with its tests"
        )

    def test_exceptions_are_still_unimported(self):
        stale = sorted(set(UNIMPORTED) - set(_unimported_modules()))
        assert stale == [], f"{stale} now have a caller; drop them from UNIMPORTED"


def _string_annotation_names(annotation):
    """Names inside the string annotations of one annotation expression."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _unread_imports(tree):
    """``(line, name)`` of every name an import binds that nothing reads.

    A name counts as read when it is loaded, appears in a string
    annotation, or is listed in ``__all__``; ``__future__`` imports bind
    nothing.
    """
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(
                n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)
            )
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if annotation is not None:
            read |= _string_annotation_names(annotation)
    return sorted((line, name) for name, line in bound.items() if name not in read)


class TestEveryImportIsRead:
    def test_no_unread_import(self):
        """Package ``__init__`` modules re-export what they import; every
        other module, in the library, its tests and everything that runs
        it, must read each name it imports."""
        stray = [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for tree_root in CALLER_TREES + ("tests",)
            for path in sorted((ROOT / tree_root).rglob("*.py"))
            if path.name != "__init__.py"
            for line, name in _unread_imports(ast.parse(path.read_text()))
        ]
        assert stray == [], f"imported but never read: {stray}"

    def test_scan_sees_reads_in_annotations_and_all(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "import numpy as np\n"
            "from typing import List, Optional\n"
            "from os import path, sep\n"
            "__all__ = ['sep']\n"
            "def f(x: 'Optional[int]') -> List[int]:\n"
            "    return []\n"
        )
        assert _unread_imports(tree) == [(2, "np"), (4, "path")]
