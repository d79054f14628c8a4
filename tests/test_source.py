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
