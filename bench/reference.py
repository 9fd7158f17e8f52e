"""Times the frozen reference copy of locclab; started by ``bench/worker.py``.

``bench/reference/locclab`` is a byte-identical copy of locclab as it was when
this benchmark was written.  This process imports it in place of the program
under test, because the worker puts ``bench/reference`` on its PYTHONPATH.
The worker runs every iteration of a workload through both, alternating
which goes first, and reports the program's times at the speed the host had
while the reference ran; see README.md, "Steadiness".

Protocol: one command line, as a JSON list, per input line; one JSON object
``{"cpu_seconds": ..., "code": exit code}`` per output line.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from locclab import cli  # the frozen copy: PYTHONPATH is bench/reference


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        cpu_seconds = time.process_time() - start
        print(json.dumps({"cpu_seconds": cpu_seconds, "code": code}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
