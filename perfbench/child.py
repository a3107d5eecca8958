"""Fresh-interpreter helpers that run.py spawns.

    python perfbench/child.py cli TRACE_OUT -- ARGV...   traced ``repro ARGV``
    python perfbench/child.py setup -- ARGV...           set-up probe of ``repro ARGV``

``cli`` runs the real CLI entry point in-process with every layer
wrapped by :mod:`tracer` and writes the spans to ``TRACE_OUT``; the
traced serve worker is ``cli ... -- work --connect URL``.  ``setup``
runs the real CLI too, and exits at the first call that would run
cells (:data:`SETUP_ENDS`), so run.py, timing it from spawn to exit,
times exactly the set-up the command does.  A command that finishes
without reaching that call exits 3.
"""

from __future__ import annotations

import importlib
import os
import sys

from tracer import Tracer, import_layers, install, patch

#: Subcommand -> (module, function) whose first call ends its set-up:
#: the sweep runner, the coordinator's HTTP server (space, run directory
#: and coordinator are built by then) and the model checker's exploration.
SETUP_ENDS = {
    "sweep": ("repro.runtime.sweep", "SweepRunner.run"),
    "serve": ("repro.serve.api", "CoordinatorServer.start"),
    "mc": ("repro.mc.checker", "explore"),
}


def _traced_cli(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    root = tracer.begin("run")
    code = 1
    try:
        with tracer.span("cli.import"):
            import_layers()
        install(tracer)
        from repro.cli.main import main

        code = main(argv)
    finally:
        tracer.end(root)
        tracer.dump(out)
    return code


def _setup(argv: list[str]) -> int:
    from repro.cli.main import main

    module, path = SETUP_ENDS[argv[0]]
    importlib.import_module(module)

    def stop(func):
        def end_of_setup(*args, **kwargs):
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)  # interpreter teardown is not set-up

        return end_of_setup

    patch(module, path, stop)
    main(argv)
    print(f"set-up probe: `repro {argv[0]}` never called {path}", file=sys.stderr)
    return 3


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return _traced_cli(argv[1], argv[3:])
    if mode == "setup":
        return _setup(argv[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
