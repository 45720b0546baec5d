"""The library's surface stays what the CLI and the benchmark use.

Every public function and method in `src/groupcover` is referenced from
somewhere in the package or the benchmark other than its own body, or is a
named referee kept for the tests to compare against.  Every function the
benchmark's tracer names still exists, since `bench/test_bench.py` lies
outside the tier-1 test paths.  README's list of the package exports
names what `groupcover/__init__.py` imports, module by module.  And every
module parses at the Python floor that `pyproject.toml` declares.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "groupcover"
BENCH = ROOT / "bench"

# second implementations kept as the referee of a faster route: the lattice
# for the G^ab route to maximal normal subgroups in the tests, and for the
# nonsolvable route under --verify as well; the quotient table G/G' for the
# coset route to G^ab, the plain surjection search for the orbit-pruned one,
# and the SNF oracle
REFEREES = {
    ("fingroup", "normal_subgroups"),
    ("fingroup", "abelianisation"),
    ("witness", "enumerate_surjections"),
    ("snf", "smith_diagonal_reference"),
}


def bench_layers():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pair for pairs in module.LAYERS.values() for pair in pairs]


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def public_definitions(tree):
    """(name, node) of each public module-level function and each public
    method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}
    used = [name for tree in trees.values() for name in references(tree)]
    for path in BENCH.glob("*.py"):
        used += references(ast.parse(path.read_text()))
    used += [name for _, name in bench_layers()]
    unused = []
    for module, tree in sorted(trees.items()):
        for qualname, node in public_definitions(tree):
            name = node.name
            own = list(references(node)).count(name)
            if used.count(name) <= own and (module, qualname) not in REFEREES:
                unused.append(f"{module}.{qualname}")
    assert unused == []


def test_referees_exist():
    for module, name in sorted(REFEREES):
        assert callable(getattr(importlib.import_module(f"groupcover.{module}"), name))


def test_bench_layers_resolve():
    for module, name in bench_layers():
        assert callable(getattr(importlib.import_module(f"groupcover.{module}"), name))
    from groupcover.snf import smith_diagonal_reference  # noqa: F401  (bench/checks.py)


def readme_exports():
    """module -> the backticked names of its bullet under "The package
    exports, by module" in README.md."""
    text = (ROOT / "README.md").read_text()
    section = text.split("The package exports, by module:", 1)[1].lstrip("\n")
    bullets = re.split(r"^- ", section.split("\n\n", 1)[0], flags=re.M)[1:]
    exports = {}
    for bullet in bullets:
        module, *names = re.findall(r"`([^`]*)`", bullet)
        exports[module] = set(names)
    return exports


def init_exports():
    """module -> the names groupcover/__init__.py imports from it."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        node.module: {alias.name for alias in node.names}
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_readme_lists_the_package_exports():
    assert readme_exports() == init_exports()


def test_sources_parse_at_the_declared_python_floor():
    tomllib = pytest.importorskip("tomllib")
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    version = tuple(map(int, re.fullmatch(r">=(\d+)\.(\d+)", floor).groups()))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def readme_harness_checks():
    """The check names listed under "Theorem harness checks" in README.md."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Theorem harness checks", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^- `([^`]*)`", section, flags=re.M)


def check_names(report):
    """The report's check names in order, each nfa check as its template."""
    names = (re.sub(r"^nfa\d+_iff_ab_weight_ge_\d+$", "nfa{n}_iff_ab_weight_ge_{n+1}", name)
             for name in report.checks)
    return list(dict.fromkeys(names))


def test_readme_lists_the_harness_checks(monkeypatch):
    from groupcover import alternating_group, build_from_cayley_table, covering

    listed = readme_harness_checks()
    passing = covering.verify_finite_theorems(alternating_group(5))
    assert passing.passed
    assert check_names(passing) == [name for name in listed if name != "maximal_match_lattice"]
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    table[1], table[2] = table[2], table[1]
    corrupt = covering.verify_finite_theorems(build_from_cayley_table(table, "t", validate=False))
    assert check_names(corrupt) == listed[:1] == ["group_axioms"]
    monkeypatch.setattr(covering, "_referee_cover", lambda group, cap: ())
    refused = covering.verify_finite_theorems(alternating_group(5))
    assert refused.failing() == ["maximal_match_lattice"]
    assert check_names(refused) == listed
