"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py SPEC OUT [--trace SPANS]

SPEC is a JSON file ``{"commands": [argv, ...]}``.  Each argv is run
through ``toricreg.cli.main`` in this process, in order, so module-level
caches start cold for the pass just as they do for a CLI user.  OUT
receives the import time and, per command, its exit code, stdout and
stderr.  With ``--trace`` the layers are wrapped in spans first
(see tracer.py) and the spans are written to SPANS at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    spec_path, out_path = argv[0], argv[1]
    spans_path = argv[3] if argv[2:3] == ["--trace"] else None
    with open(spec_path) as fh:
        commands = json.load(fh)["commands"]

    start = time.perf_counter()
    cli = importlib.import_module("toricreg.cli")
    import_s = time.perf_counter() - start

    tracer = None
    if spans_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(command)
        except Exception:  # recorded as a failed instance, the pass goes on
            rc = None
            err.write(traceback.format_exc())
        results.append({"rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})

    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "results": results}, fh)
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
