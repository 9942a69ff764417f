"""Run one ``repro`` CLI command with the per-layer wrappers installed.

    PYTHONPATH=src python3 -X importtime perfbench/launcher.py DUMP.json ARGS...

Installs the wrappers from :mod:`layertrace`, turns on the
``repro.obs`` counters, calls ``repro.cli.main(ARGS)`` and writes the span
and counter dump to ``DUMP.json`` when the command returns (a daemon
returns after SIGTERM).  The exit code is the command's.
"""

from __future__ import annotations

import sys

import layertrace


def main(argv) -> int:
    dump_path, args = argv[0], argv[1:]
    tracer = layertrace.start()
    try:
        import repro.cli

        return repro.cli.main(args)
    finally:
        layertrace.dump(tracer, dump_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
