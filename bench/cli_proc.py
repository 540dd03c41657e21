"""Run one ``advmatch`` command in this fresh process and report its costs.

Usage: ``cli_proc.py RESULT.json MODE -- <advmatch arguments>``, where MODE
is ``-`` (run untouched), ``capture`` (keep the items of each ``run_match``
call for the output checker) or the path to write a full trace to.

The parent passes ``BENCH_SPAWNED``, its ``time.monotonic()`` just before
starting this process, so that the time from interpreter start to
``import advmatch`` done can be measured here.  The command runs through
``advmatch.cli.main``, the function behind the ``advmatch`` console script.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_proc.py RESULT MODE -- ARGS...")
    spawned = float(os.environ["BENCH_SPAWNED"])
    import advmatch
    setup_s = time.monotonic() - spawned
    import advmatch.cli
    import numpy
    import scipy

    tracer = None
    if mode != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(("pipeline.match",) if mode == "capture" else None)
    code = advmatch.cli.main(argv)
    returned = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "exit": code,
        "setup_s": setup_s,
        "peak_rss_mb": own.ru_maxrss / 1024,
        "worker_peak_rss_mb": workers.ru_maxrss / 1024,
        "advmatch_file": advmatch.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        from advmatch import write_items
        result["layers"] = tracer.layers()
        result["missing"] = tracer.missing
        result["match_items"] = [write_items(items).splitlines()
                                 for items in tracer.match_items]
    if mode not in ("-", "capture"):
        with open(mode, "w", encoding="utf-8") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "bucket"],
                       "spans": tracer.span_records()}, f)
    # the parent takes this bookkeeping out of the command's wall time
    result["post_s"] = time.monotonic() - returned
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
