"""One fresh benchmark process: a set-up probe or a workload run.

    python3 perfbench/worker.py setup SPEC.json
    python3 perfbench/worker.py run SPEC.json

SPEC is written by run.py. The set-up probe times importing pulsescope,
loading the config and certifying the spectrum, and prints one JSON
line. A workload run repeats passes of CLI commands until the requested
seconds have elapsed and writes what it saw to SPEC["result"]; checking
the outputs is left to run.py. Standard library only until pulsescope
is imported, so the set-up probe times the package's own imports.
"""

import contextlib
import io
import json
import os
import sys
import time


def _load_spec():
    with open(sys.argv[2]) as fh:
        return json.load(fh)


def _import_package(src):
    import pulsescope
    where = os.path.realpath(pulsescope.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"pulsescope imported from {where}, not from {src}")


def setup(spec):
    t0 = time.perf_counter()
    _import_package(spec["src"])
    from pulsescope.config import load_config
    load_config(spec["config"]).build()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _one_pass(cli, spec, outdir):
    ops = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for command in spec["commands"]:
        argv = ["--config", spec["config"], "--out", outdir] + command
        buf = io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # a failed operation, counted by run.py
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"command": command, "code": code, "error": error,
                    "stdout": buf.getvalue()})
    return {"wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "outdir": outdir, "ops": ops}


def run(spec):
    _import_package(spec["src"])
    import resource

    from pulsescope import cli
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes
        traced = tracer is not None and len(passes) % 2 == 1
        outdir = os.path.join(spec["workdir"], f"pass{len(passes)}")
        if traced:
            tracer.reset()
            tracer.install()
            try:
                record = _one_pass(cli, spec, outdir)
            finally:
                tracer.uninstall()
            record["layers"] = tracer.summary()
            spans.append(tracer.spans)
        else:
            record = _one_pass(cli, spec, outdir)
        record["traced"] = traced
        passes.append(record)
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= spec["seconds"]:
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
        "missing_layers": tracer.missing if tracer else [],
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    if spans:
        with open(os.path.join(spec["workdir"], "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "traced_passes": spans}, fh)


if __name__ == "__main__":
    {"setup": setup, "run": run}[sys.argv[1]](_load_spec())
