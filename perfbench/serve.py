"""Start the bound service for the benchmark.

    python3 perfbench/serve.py [--spans PATH | --speed PATH] \
        <python -m repro.service.api args>

Runs the program's own entrypoint (``repro.service.api.__main__``).
With ``--spans PATH`` the layer wrappers of ``spans.py`` are installed
before the entrypoint runs, and the recorded spans are written to PATH
as JSON when the server has shut down.  With ``--speed PATH`` the
solver's ``coalescer.solve_spec`` is wrapped instead: before a solve,
on the solver's own thread, it probes the host speed when the last
probe is ``PROBE_GAP_S`` old; the probes go to PATH at shutdown.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from common import PROBE_GAP_S, probe


def install_speed(probes: list) -> None:
    """Wrap the solver with host-speed probes (see the module docstring).

    Solves run one at a time on the solver thread, so a probe there
    measures the core the solver runs on and never overlaps a solve.
    """
    from repro.service.api import coalescer

    solve = coalescer.solve_spec

    def probed_solve_spec(*args, **kwargs):
        start = time.perf_counter()
        if not probes or start - probes[-1][1] >= PROBE_GAP_S:
            speed = probe()
            probes.append([start, time.perf_counter(), speed])
        return solve(*args, **kwargs)

    coalescer.solve_spec = probed_solve_spec


def main(argv: list[str]) -> int:
    option = path = None
    if argv[:1] in (["--spans"], ["--speed"]):
        option, path, argv = argv[0], argv[1], argv[2:]
    entry = importlib.import_module("repro.service.api.__main__")
    if option == "--spans":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        record = recorder.spans
    elif option == "--speed":
        record = []
        install_speed(record)
    rc = entry.main(argv)
    if path is not None:
        with open(path, "w") as handle:
            json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
