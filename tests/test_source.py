import ast
import dataclasses
import importlib.util
import os
import pathlib
import subprocess
import sys
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


def _is_fixture(decorator: ast.expr) -> bool:
    """``@pytest.fixture`` or ``@fixture``, bare or called."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Attribute) and target.attr == "fixture"
            or isinstance(target, ast.Name) and target.id == "fixture")


def _unused_fixtures(paths: list[pathlib.Path]) -> list[str]:
    """``conftest.py:line name`` for each conftest fixture that no test or
    fixture among ``paths`` takes as a parameter."""
    fixtures, taken = {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            is_fixture = any(_is_fixture(d) for d in node.decorator_list)
            if is_fixture and path.name == "conftest.py":
                fixtures[node.name] = f"{path.name}:{node.lineno} {node.name}"
            if is_fixture or node.name.startswith("test"):
                args = node.args
                taken.update(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs)
    return [entry for name, entry in sorted(fixtures.items()) if name not in taken]


def test_no_unused_fixtures():
    # pytest never reports a fixture that nothing requests, so this is a plain AST scan
    assert any(path.name == "conftest.py" for path in TESTS)
    unused = _unused_fixtures(TESTS)
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


_TRACED_ROUNDS = """
from spans import Tracer, install
from workloads import WORKLOADS

tracer = Tracer()
install(tracer)
for name in ("scan", "certify", "identities"):
    wl = WORKLOADS[name](0)
    records = [(label, fn()) for label, fn in wl.round(0)]
    errors = wl.check([(label, out) for label, out in records if label is not None])
    assert not errors, (name, errors)
assert tracer.spans and tracer.counters["second_cofactor_bytes"] > 0
"""


def test_benchmark_traced_rounds_run(tmp_path):
    # a traced run wraps the entry points and its counters read their results
    # (the second-cofactor counter reads .nbytes), so a changed return type
    # breaks it; round 0 of each in-process workload must run and check clean
    src = pathlib.Path(quermass.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(src)]),
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _TRACED_ROUNDS], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


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
