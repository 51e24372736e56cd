"""Child process of the benchmark: one sweep pass, or one CLI call.

    python3 perfbench/worker.py sweep --budget SECONDS [--trace] < jobs.json
    python3 perfbench/worker.py cli [--trace] -- <veralg command line>

``sweep`` first builds every algebra the jobs use, untimed, as a caller
using veralg as a library would keep them; then it runs the jobs one after
another in this process, with a wall-clock budget per job enforced by
SIGALRM (no helper thread).  It prints one JSON line: per job its status,
seconds and certificate digest and the time of the NEAREST_UNITS reference
units nearest to it, plus the warm-up time, reference and trace.

``cli`` runs ``veralg.cli.main`` on the given arguments, copies the
command's standard output unchanged, and appends one line holding its
seconds, the reference and the trace after RESULT_MARKER.

Both time the reference computation inside the process: one unit of
reference.py before and one after the ops, and one every SAMPLE_EVERY_S of
CPU time while veralg runs, from SIGPROF.  The units run with the cyclic
garbage collector off, so that no collection of veralg's heap is charged to
the reference.  The time of the units is taken off the op they interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import signal
import sys
import time

import reference

RESULT_MARKER = "#perfbench-result "
SAMPLE_EVERY_S = 0.2
NEAREST_UNITS = 5  # reference units that scale one sweep job

VERDICTS = ("not_geometrically_equivalent", "no_falsification", "inconclusive")


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException so no handler in veralg eats it."""


def _alarm(signum, frame):
    raise OverBudget()


class ReferenceSampler:
    """Runs and times reference units: on entry, on exit and every SAMPLE_EVERY_S."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0
        self.samples = []  # (start, seconds) of each unit

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference.unit()
            spent = time.perf_counter() - start
            self.seconds += spent
            self.units += 1
            self.samples.append((start, spent))
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._tick(None, None)  # so that even a short op has units around it
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._tick(None, None)
        return False

    def mark(self):
        return time.perf_counter(), self.seconds

    def since(self, mark):
        """Seconds since `mark`, without the reference units run since."""
        start, spent = mark
        return time.perf_counter() - start - (self.seconds - spent)

    def nearest(self, start, end):
        """[seconds, units] of the NEAREST_UNITS units nearest to [start, end]."""
        near = sorted(self.samples, key=lambda u: max(start - u[0], u[0] - end, 0.0))
        near = near[:NEAREST_UNITS]
        return [sum(spent for _, spent in near), len(near)]

    def report(self):
        return [self.seconds, self.units]


def certificate_digest(cert) -> str:
    text = json.dumps(cert.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def certificate_sane(cert) -> bool:
    """Checks that hold for every equation-ideal certificate."""
    d = cert.as_dict()
    details = d["details"]
    witness = details["witness"]
    return (
        d["verdict"] in VERDICTS
        and (d["verdict"] == "inconclusive") == (details["stuck_count"] > 0)
        and (witness is not None) == (d["verdict"] == "not_geometrically_equivalent")
        and all(isinstance(v, bool) for v in details["kernel"].values())
    )


def warm_up(jobs):
    """Build each algebra the jobs use, so no job pays for a first build."""
    from veralg import GeneratorSet, build_truncated, builtin_variety

    start = time.perf_counter()
    for variety, gens, bound in sorted({(j["variety"], j["gens"], j["bound"]) for j in jobs}):
        build_truncated(builtin_variety(variety), GeneratorSet.default(gens), bound)
    return time.perf_counter() - start


def run_jobs(jobs, budget, sampler):
    """[[status, seconds, certificate digest], ...] and the spans of the jobs."""
    from veralg import cases

    def budgeted(job):
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            return cases.falsify_job(job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    signal.signal(signal.SIGALRM, _alarm)
    results, spans = [], []
    for job in jobs:
        cert, digest = None, None
        mark = sampler.mark()
        try:
            cert = budgeted(job)
            status = "ok"
        except OverBudget:
            status = "over_budget"
        except Exception as exc:  # a job that raises is counted, not fatal
            status = f"raised:{type(exc).__name__}"
        seconds = sampler.since(mark)
        spans.append((mark[0], time.perf_counter()))
        if cert is not None:
            digest = certificate_digest(cert)
            if not certificate_sane(cert):
                status = "wrong"
        results.append([status, seconds, digest])
    return results, spans


def _tracer(enabled):
    if not enabled:
        return None
    from layers import Tracer

    return Tracer().install()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cli")
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "sweep":
        jobs = json.load(sys.stdin)
        warm_up_s = warm_up(jobs)
        tracer = _tracer(args.trace)
        with ReferenceSampler() as sampler:
            results, spans = run_jobs(jobs, args.budget, sampler)
        print(json.dumps({
            "jobs": results,
            "job_reference": [sampler.nearest(*span) for span in spans],
            "warm_up_s": warm_up_s,
            "reference": sampler.report(),
            "trace": tracer.report() if tracer else None,
        }))
        return 0

    from veralg import cli

    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = _tracer(args.trace)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), ReferenceSampler() as sampler:
        mark = sampler.mark()
        rc = cli.main(cli_argv)
        seconds = sampler.since(mark)
    sys.stdout.write(captured.getvalue())
    sys.stdout.write(RESULT_MARKER + json.dumps({
        "seconds": seconds,
        "reference": sampler.report(),
        "trace": tracer.report() if tracer else None,
    }) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
