"""Run ``repro-serve`` and report the server's CPU time when asked.

``python3 perfbench/serve_host.py CPU_FILE [repro-serve arguments]``
starts the server exactly as ``python -m repro.service.server`` would.
On ``SIGUSR1`` it appends the CPU seconds the process has used so far
(every thread) to ``CPU_FILE``, so the load process can charge the
server's work to the part of the sweep it sent.
"""

import signal
import sys
import time


def main() -> int:
    cpu_file = sys.argv[1]

    def report(signum, frame):
        with open(cpu_file, "a") as handle:
            handle.write(f"{time.process_time()}\n")

    signal.signal(signal.SIGUSR1, report)
    from repro.service.server import main as serve

    return serve(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
