"""Cold-start benchmark of emax's user-facing paths.

    python3 perfbench/run.py --workload tables|schemes|census \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats whole rounds of its
workload's jobs (see workloads.py), as many as fit S seconds best.  Every
job runs in its own interpreter (job.py), one at a time, so no cache the
program keeps is warm from an earlier job or round.  Outputs are checked
in this process, untimed.

The last line of stdout is one JSON object: whether every output was
correct, the jobs attempted and failed, and the metrics.  With --trace 0
these are the end-to-end metrics: set-up time, summed call time and peak
resident size; the time of each path is printed on the line before.
With --trace 1 every job runs under the tracer (tracer.py) and the
metrics are the per-layer ones.  Each run also writes its record, with
the machine facts, under perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # set-up-only processes per run, so set-up has a median
JOB_TIMEOUT_S = 150


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class JobFailed(Exception):
    pass


class Context:
    """One run: spawns the jobs, keeps their timings, collects the checks."""

    def __init__(self, work: Path, seed: int, trace: bool):
        self.work = work
        self.seed = seed
        self.trace = trace
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("EMAX_PRECISION_BITS", "PYTHONPATH")}
        self.env["PYTHONHASHSEED"] = "0"
        self.jobs = 0
        self.setups = []
        self.errors = []
        self.correct = True
        self.round = None

    def rng(self, label: str) -> random.Random:
        return random.Random(f"{self.seed}:{label}")

    def spawn(self, spec: dict) -> dict:
        spec = dict(spec, root=str(ROOT), job=self.jobs)
        self.jobs += 1
        if self.trace and spec["kind"] != "probe":
            spec["trace"] = str(self.work / "spans.jsonl")
        t0 = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise JobFailed(f"job {spec} timed out")
        if proc.returncode != 0 or not proc.stdout:
            raise JobFailed(f"job {spec} died: {proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        self.setups.append(rec["ready"] - t0)
        return rec

    def probe(self) -> None:
        self.spawn({"kind": "probe"})

    def job(self, path, argv=None, genera=None, ok=(0,)) -> dict:
        """Run one job: `argv` for emax's command line, `genera` for the
        analytic sweep.  `path` names the path metric it counts to."""
        if argv is not None:
            rec = self.spawn({"kind": "cli", "argv": argv})
        else:
            rec = self.spawn({"kind": "sweep", "genera": genera})
        what = " ".join(argv) if argv is not None else "analytic sweep"
        if rec["rc"] not in ok:
            raise JobFailed(f"{what}: exit {rec['rc']} {rec['error'] or ''}"
                            f"{rec['stderr'][-2000:]}")
        warm = {k: v for k, v in rec["caches"].items() if v}
        self.check(not warm, f"{what} started with warm caches {warm}")
        self.round["jobs"].append({
            "path": path, "what": what, "call_s": rec["end"] - rec["start"],
            "rss_kb": rec["rss_kb"],
        })
        for name, n in rec["counts"].items():
            self.round["counts"][name] += n
        return rec

    @contextlib.contextmanager
    def inputs(self):
        t0 = _clock()
        yield
        self.round["inputs_s"] += _clock() - t0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.errors.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def read_text(self, name: str) -> str:
        return (self.work / name).read_text(encoding="utf-8")

    def read_json(self, name: str):
        return json.loads(self.read_text(name))

    def write_text(self, name: str, text: str) -> None:
        (self.work / name).write_text(text, encoding="utf-8")

    def write_json(self, name: str, doc) -> None:
        self.write_text(name, json.dumps(doc))

    def run_round(self, workload: str) -> dict:
        self.round = {"jobs": [], "inputs_s": 0.0, "counts": Counter(),
                      "failed": 0}
        try:
            WORKLOADS[workload].run(self)
        except JobFailed as exc:
            print(f"job failed: {exc}", file=sys.stderr)
            self.errors.append(str(exc)[:500])
            self.round["failed"] = WORKLOADS[workload].jobs - len(self.round["jobs"])
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            # an output the checks cannot read is a wrong output; the
            # jobs that would have read it are not run
            self.check(False, f"unreadable output: {exc!r}")
            self.round["failed"] = WORKLOADS[workload].jobs - len(self.round["jobs"])
        if len(self.round["jobs"]) + self.round["failed"] != WORKLOADS[workload].jobs:
            raise RuntimeError("round ran a different number of jobs than declared")
        return self.round


def _median_sum(rounds, pick) -> float:
    return statistics.median(sum(pick(j) for j in r["jobs"]) for r in rounds)


def _take_spans(path: Path, keep: Path) -> list:
    """Read a round's spans and move them to the run's trace file."""
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as src, open(keep, "a", encoding="utf-8") as dst:
        spans = []
        for line in src:
            spans.append(tuple(json.loads(line)))
            dst.write(line)
    path.unlink()
    return spans


def _git_sha() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "emax" / "__init__.py").is_file():
        print(f"error: no emax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = HERE / "results"
    work = results / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_file = results / f"trace-{args.workload}.jsonl"
    if args.trace:
        trace_file.unlink(missing_ok=True)
    ctx = Context(work, args.seed, bool(args.trace))
    rounds, layer_rounds = [], []
    calls = Counter()
    try:
        for _ in range(SETUP_PROBES):
            ctx.probe()
        t0 = _clock()
        # whole rounds, as many as come nearest to the run length: stop
        # once another round would end over half a round past it
        while not rounds or (_clock() - t0) * (1 + 0.5 / len(rounds)) <= args.seconds:
            rnd = ctx.run_round(args.workload)
            rounds.append(rnd)
            if args.trace:
                spans = _take_spans(work / "spans.jsonl", trace_file)
                values, round_calls = tracer.layer_metrics(spans, rnd["counts"])
                layer_rounds.append(values)
                calls += round_calls
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(rounds) * WORKLOADS[args.workload].jobs
    failed = sum(r["failed"] for r in rounds)
    if failed == attempted:
        print("error: every job failed; nothing was measured", file=sys.stderr)
        return 1
    done = [r for r in rounds if not r["failed"]] or rounds
    jobs_per_round = WORKLOADS[args.workload].jobs
    setup_s = (jobs_per_round * statistics.median(ctx.setups)
               + statistics.median(r["inputs_s"] for r in rounds))
    wall_s = _median_sum(done, lambda j: j["call_s"])
    paths = {
        p: {"value": _median_sum(done, lambda j, p=p: j["call_s"] * (j["path"] == p)),
            "unit": "s"}
        for p in WORKLOADS[args.workload].paths
    }
    rss_mb = max(j["rss_kb"] for r in rounds for j in r["jobs"]) / 1024
    if args.trace:
        metrics = {
            name: {"value": statistics.median(v[name] for v in layer_rounds),
                   "unit": tracer.unit_of(name)}
            for name in tracer.METRICS
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": _git_sha(),
        },
        "rounds": len(rounds),
        "correct": ctx.correct,
        "attempted": attempted,
        "failed": failed,
        "errors": ctx.errors[:50],
        "wall_s": wall_s,
        "paths": paths,
        "setup_s": setup_s,
        "setup_samples": ctx.setups,
        "per_round": [
            {"inputs_s": r["inputs_s"], "failed": r["failed"],
             "jobs": [{k: j[k] for k in ("what", "path", "call_s", "rss_kb")}
                      for j in r["jobs"]]}
            for r in rounds
        ],
        "metrics": metrics,
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"workload": args.workload, "rounds": len(rounds),
                      "wall_s": wall_s, "paths": paths,
                      "record": str(out.relative_to(ROOT))}))

    if args.trace:
        idle = [m for m in WORKLOADS[args.workload].exercised
                if not metrics[m]["value"]
                or not sum(calls[n] for n in tracer.METRICS[m][1])]
        if idle:
            print(f"error: traced run recorded no calls for {idle}",
                  file=sys.stderr)
            return 1
    print(json.dumps({"correct": ctx.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
