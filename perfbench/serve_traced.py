"""Run ``repro`` (the CLI) with the benchmark's layer tracer installed.

Usage: ``python serve_traced.py TRACE_OUT serve MODEL [options]``.  When
the CLI returns (``serve`` returns after SIGINT drains the server), the
trace is written to ``TRACE_OUT`` as JSON.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer, install


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    out.write_text(json.dumps(tracer.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
