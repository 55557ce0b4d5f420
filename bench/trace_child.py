"""Run the galab CLI with every layer traced, then save the aggregates.

Usage: python3 bench/trace_child.py TRACE_JSON <galab CLI arguments>

The traced cli-suite items run through this script instead of
``python -m galab.cli``; the exit code is the CLI's.
"""

import json
import sys

import galab.cli

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = galab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
