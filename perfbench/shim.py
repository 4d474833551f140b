"""Run one stasys command-line query with layer spans recorded.

Usage: python3 perfbench/shim.py SPANS_OUT ARG...

Installs the span wrappers, then calls ``stasys.cli.main(ARG...)`` exactly
as ``python -m stasys.cli ARG...`` would, so each query stays cold.  The
spans, the wall-clock start of this interpreter and the import time of
``stasys.cli`` are written to SPANS_OUT as JSON, and the process exits
with the command's own exit code (or its traceback).
"""

import time

T_START = time.time()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import stasys.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"t_start": T_START, "import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
