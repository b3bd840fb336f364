"""Run one ``cyclegas`` CLI command with layer spans recorded.

Behaves like ``python -m cyclegas.cli ARGS...`` (same output, same exit
code) and writes the spans of the run to SPANS_PATH as JSON:

    python3 perfbench/clitrace.py SPANS_PATH ARGS...
"""

import sys

import spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.task = "cli"
    from cyclegas import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
