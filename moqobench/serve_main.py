"""Run ``repro-moqo serve`` for the serve_zipf workload.

    python3 moqobench/serve_main.py [--ledger-dir DIR] -- <serve arguments>

The process asks the kernel to send it SIGTERM when its parent dies, so a
killed benchmark never leaves a server (and, through the shards' pipe EOF,
never leaves shards) behind.  With ``--ledger-dir`` the per-layer wrappers
are installed before the worker pool forks, so every shard inherits them
together with two signal handlers: SIGUSR1 zeroes the ledger (start of the
timed window) and SIGUSR2 writes it to ``DIR/<pid>.json`` (end of the window).
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

PR_SET_PDEATHSIG = 1


def main(argv) -> int:
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    ledger_dir = None
    if argv[:1] == ["--ledger-dir"]:
        ledger_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if ledger_dir is not None:
        from ledger import Ledger, install, install_scheduler_probe

        ledger = Ledger()
        install(ledger)
        install_scheduler_probe(ledger)
        signal.signal(signal.SIGUSR1, lambda signum, frame: ledger.reset())
        signal.signal(
            signal.SIGUSR2,
            lambda signum, frame: ledger.dump(
                os.path.join(ledger_dir, f"{os.getpid()}.json")
            ),
        )
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
