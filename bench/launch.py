"""Run one ``quermass.cli`` command with the layer wrappers installed.

Usage: python -X importtime bench/launch.py SPANS_JSON -- CLI_ARGS...

Times ``import quermass.cli`` as the ``cli.import`` span, installs the same
wrappers as the in-process workloads, runs ``quermass.cli.main`` and writes
the spans to SPANS_JSON before exiting with the command's exit code.
"""

import sys

from spans import Tracer, install


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import quermass.cli

    tracer.end(idx)
    install(tracer)
    try:
        code = quermass.cli.main(argv)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
