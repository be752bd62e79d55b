"""Traced stand-in for ``python -m crownminor.cli`` in the cli workload's
traced passes.

    python3 perfbench/clichild.py SUMMARY_OUT CLI_ARGS...

Imports ``crownminor.cli`` inside a ``cli.import`` span, installs the
tracer, runs ``main(CLI_ARGS)``, writes the per-span summary to
SUMMARY_OUT as JSON and exits with the command's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    idx = t.open_span("cli.import")
    import crownminor.cli as cli
    t.close_span(idx)
    t.install(sys.modules["crownminor"])
    try:
        code = cli.main(argv)
    finally:
        t.uninstall()
        with open(out, "w") as fh:
            json.dump({"summary": t.summary(), "hits": t.hits}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
