"""Run one ``pms`` command with the benchmark's tracer installed, then write
the spans it recorded as JSON.

Usage: python3 perfbench/cli_launcher.py SPANS_FILE OP_INDEX PMS_ARGS...
"""

import json
import sys
from pathlib import Path

from tracer import Tracer
from workloads import load_library

if __name__ == "__main__":
    lib = load_library()
    tracer = Tracer()
    tracer.install(lib)
    tracer.current_op = int(sys.argv[2])
    rc = lib.cli.run_command(sys.argv[3:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.to_json()))
    sys.exit(rc)
