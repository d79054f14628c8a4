import importlib.util
import pathlib
import warnings

import quermass

SOURCES = sorted(pathlib.Path(quermass.__file__).parent.glob("*.py"))


def test_sources_compile_without_warnings():
    # invalid escapes and similar compile-time warnings are errors here
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_benchmark_span_entry_points_resolve():
    # the benchmark's traced runs patch these names; a renamed or deleted one
    # would break them without failing any other test
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
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
