"""No module of the package or of the test suite imports a name it never
reads: a leftover import of a deleted call fails here, with no linter
installed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src" / "compatflow").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name (an
    attribute chain a.b.c reads its root a)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c\nimport x.y\nx.y.z\n") == [
        "line 1: os", "line 2: c"]


def package_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of every name a module imports from the package,
    module relative to it ("" for the package itself, name "*" for a plain
    import)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("compatflow")):
            module = (node.module or "").removeprefix("compatflow").lstrip(".")
            out += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name.removeprefix("compatflow").lstrip("."), "*")
                    for alias in node.names if alias.name.split(".")[0] == "compatflow"]
    return out


def test_the_oracle_shares_no_operator_with_the_pipeline():
    """The reference takes only the field and profile types and the error
    classes from the package: no stage of compat, poisson, search or
    modes, and no fieldops operator."""
    from compatflow import errors

    allowed = {("fieldops", "FlowParams"), ("fieldops", "HarmonicScalar"),
               ("fieldops", "WaveField"), ("spectral", "ChebGrid"), ("spectral", "YProfile")}
    allowed |= {("errors", n) for n, v in vars(errors).items()
                if isinstance(v, type) and issubclass(v, Exception)}
    got = package_imports((ROOT / "src" / "compatflow" / "oracle.py").read_text())
    assert got and set(got) <= allowed, set(got) - allowed


def test_the_guard_sees_a_pipeline_import():
    assert package_imports(
        "import numpy\nfrom .fieldops import curl\nfrom . import compat\n"
        "import compatflow.poisson\nfrom compatflow.spectral import YProfile\n") == [
        ("fieldops", "curl"), ("", "compat"), ("poisson", "*"), ("spectral", "YProfile")]
