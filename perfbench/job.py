"""One benchmark job, run in a fresh interpreter so that it starts cold.

    python3 perfbench/job.py '<spec json>'

The spec names the checkout root, the job kind and its arguments:

  cli    {"argv": [...]}     emax.cli.main(argv) with stdout captured
  sweep  {"genera": [...]}   claim1_consistency for each genus, plus the
                             lambda enclosure (the analytic side has no
                             subcommand)
  probe  {}                  set-up only: interpreter start and imports

With "trace" set to a file path, the job installs the tracer before its
call and appends its spans there when the call returns.  The job prints
one JSON record on stdout: monotonic clock readings (comparable with the
parent's, since CLOCK_MONOTONIC is system-wide), the exit code, the
captured output, the peak resident size, and the size of every
functools cache in emax before the call, which must all be empty.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    """This process's own peak resident size.  VmHWM belongs to the
    address space made at exec; ru_maxrss would also count the parent's
    resident size at fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cache_sizes() -> dict:
    sizes = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "emax" or modname.startswith("emax."):
            for attr, obj in vars(mod).items():
                info = getattr(obj, "cache_info", None)
                if callable(info):
                    sizes[f"{modname}.{attr}"] = info().currsize
    return sizes


def _sweep(genera) -> int:
    import emax.bounds as bounds

    reports = [bounds.claim1_consistency(g) for g in genera]
    lam = bounds.lambda_interval()
    out = {"reports": reports, "lambda": [str(lam.lo), str(lam.hi)]}
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import emax
    import emax.cli

    if not os.path.abspath(emax.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"emax imported from {emax.__file__}, not {src}")
    caches = _cache_sizes()
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    rc, error = 0, None
    ready = start = end = _clock()
    if spec["kind"] != "probe":
        start = _clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if spec["kind"] == "cli":
                    rc = emax.cli.main(spec["argv"])
                else:
                    rc = _sweep(spec["genera"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, error = "exception", traceback.format_exc()
        end = _clock()
    if tracer is not None:
        tracer.dump(spec["trace"], spec["job"])
    record = {
        "ready": ready,
        "start": start,
        "end": end,
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "rss_kb": _peak_rss_kb(),
        "caches": caches,
        "counts": dict(tracer.counts) if tracer is not None else {},
    }
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
