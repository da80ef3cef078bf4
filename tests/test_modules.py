"""The modules of the package read each other through public names only."""

import ast
import pathlib

import hwcover

SOURCES = sorted(pathlib.Path(hwcover.__file__).parent.glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _sibling(node: ast.ImportFrom) -> str | None:
    """The sibling module that a from-import reads names of, or "" for the package itself."""
    module = node.module or ""
    if node.level == 0:
        head, _, module = module.partition(".")
        if head != "hwcover":
            return None
    elif node.level > 1:
        return None
    return module if module in MODULES or not module else None


def private_reads(path: pathlib.Path) -> list[str]:
    """Each 'file: sibling._name' that the file reads, and each private name it imports."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> sibling module
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == "hwcover" and module in MODULES and alias.asname:
                    bound[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and (module := _sibling(node)) is not None:
            for alias in node.names:
                if not module and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    bad.append(f"{path.name}: from {module or '.'} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            bad.append(f"{path.name}: {bound[node.value.id]}.{node.attr}")
    return bad


def test_modules_read_no_private_name_of_a_sibling():
    assert [bad for path in SOURCES for bad in private_reads(path)] == []


def test_the_reader_finds_each_kind_of_private_read(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import catalog, oracle as o\n"
                      "from .lattice import Hnf3, _hnf_columns\n"
                      "from hwcover.group import _private\n"
                      "import hwcover.arith as ar\n"
                      "catalog._shown(o._search(1), ar._sieve, catalog.shown, o.__doc__)\n")
    assert sorted(private_reads(source)) == [
        "probe.py: arith._sieve", "probe.py: catalog._shown",
        "probe.py: from group import _private", "probe.py: from lattice import _hnf_columns",
        "probe.py: oracle._search"]
