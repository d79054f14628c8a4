import ast
import dataclasses
import importlib.util
import pathlib
import warnings

import quermass

SOURCES = sorted(pathlib.Path(quermass.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_sources_compile_without_warnings():
    # invalid escapes and similar compile-time warnings are errors here
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names that a module imports and never reads.

    In a package ``__init__`` an import counts as used only if ``__all__``
    lists it, since re-exporting is its one job there.
    """
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    if path.name == "__init__.py":
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used = {elt.value for elt in node.value.elts}
    else:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    # no linter is a dependency, so the check is a plain AST scan
    assert TESTS and pathlib.Path(__file__).resolve() in TESTS
    unused = [entry for path in SOURCES + TESTS for entry in _unused_imports(path)]
    assert not unused, unused


def _settable_private_fields(package) -> list[str]:
    """``Class.field`` for each dataclass field named ``_...`` that ``__init__`` takes."""
    found = []
    for path in sorted(pathlib.Path(package.__file__).parent.glob("*.py")):
        name = package.__name__ if path.stem == "__init__" else f"{package.__name__}.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == name):
                found += [f"{obj.__name__}.{f.name}" for f in dataclasses.fields(obj)
                          if f.init and f.name.startswith("_")]
    return found


def test_private_dataclass_state_is_not_a_constructor_parameter():
    # a caller-supplied cache or jet would skip the checks __post_init__ makes
    assert not _settable_private_fields(quermass)


def test_benchmark_span_entry_points_resolve():
    # the benchmark's traced runs patch these names; a renamed or deleted one
    # would break them without failing any other test
    path = BENCH / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for target, attr, _ in spans.ENTRY_POINTS:
        mod_name, _, cls_name = target.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), f"{target}.{attr}"


#: Names that the benchmark binds to the package (``q``, ``quermass``,
#: ``self.q``) or to its counterexamples module (``cx``).
_BENCH_ROOTS = {"q": (), "quermass": (), "cx": ("counterexamples",)}


def _package_chain(node: ast.Attribute):
    """(attribute, ...) from the package for a chain rooted at a bench root, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.reverse()
    if isinstance(node, ast.Name) and node.id == "self" and parts[:1] == ["q"]:
        return tuple(parts[1:])
    if isinstance(node, ast.Name) and node.id in _BENCH_ROOTS:
        return _BENCH_ROOTS[node.id] + tuple(parts)
    return None


def test_benchmark_package_names_resolve():
    # the benchmark calls the package through these attribute chains; a
    # deleted or renamed name would fail only a benchmark run
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in inner:
                chain = _package_chain(node)
                if chain:
                    chains.add(chain)
    assert ("wulff_support_upper",) in chains and ("TestFunction", "quadratic") in chains
    importlib.import_module("quermass.cli")  # launch.py calls quermass.cli.main
    for chain in sorted(chains):
        owner = quermass
        for attr in chain:
            assert hasattr(owner, attr), "quermass." + ".".join(chain)
            owner = getattr(owner, attr)
