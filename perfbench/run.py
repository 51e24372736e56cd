"""The veralg benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload {repro,basis,sweep} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports veralg from ./src and
fails (exit 2, no result line) when that is missing.  Workloads:

  repro  ``veralg repro --all --json``, a fresh process per pass.
  basis  ``veralg basis --json`` for BASIS_SPECS, a fresh process per build.
  sweep  a fixed corpus of equation-ideal jobs, in seed order, in one
         worker process per pass.

A pass is repeated until the next one would not end within --seconds.
With --trace 0 the last stdout line carries the end-to-end metrics (per-op
medians over passes, scaled by the reference computation timed alongside);
with --trace 1 untraced and traced passes alternate and it carries the
per-layer metrics of the traced ones.  The sweep's time metrics cover the
jobs that finished at the recording commit; a job over its budget counts at
the budget.  Every output is checked
against digests recorded at a known-good commit and, for basis, against
closed-form dimension formulas.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import sweep_jobs
from worker import RESULT_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 3
# Seconds per unit of reference.py on the machine NOTES.md describes.  Times
# are scaled by this over the reference's seconds per unit timed inside the
# processes that ran them, which takes out the machine's drift between fast
# and slow spells.
REFERENCE_UNIT_S = 0.003
SWEEP_BUDGET_S = 2.5  # the slowest job that ends takes under 1 s
MIN_PASSES = 3  # untraced: the medians need three passes to drop a slow one

# (variety, generators, bound) built by the basis workload.
BASIS_SPECS = (
    ("lie", 2, 7),
    ("alternative", 2, 6),
    ("jordan", 2, 6),
    ("powerassociative", 2, 5),
    ("lie", 3, 5),
    ("alternative", 3, 5),
    ("alllinear", 2, 6),
)

# Predicted dominant layer (largest self time) per workload.
PREDICTED = {
    "repro": ("verbal.check_op2",),
    "basis": ("variety.insert",),
    "sweep": ("scalars.gcd", "scalars.reduce"),
}


# ---------------------------------------------------------------------------
# Independent dimension formulas.


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def witt(gens, d):
    """Dimension of degree d of the free Lie algebra on `gens` generators."""
    return sum(_mobius(k) * gens ** (d // k) for k in range(1, d + 1) if d % k == 0) // d


def catalan(n):
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


def formula_dims(variety, gens, bound):
    """Dimensions per degree from a closed formula, or None when there is none."""
    degrees = range(1, bound + 1)
    if variety == "lie":
        return [witt(gens, d) for d in degrees]
    if variety == "alllinear":
        return [gens ** d * catalan(d - 1) for d in degrees]
    if variety == "alternative" and gens == 2:
        # Artin: 2-generated alternative algebras are associative
        return [2 ** d for d in degrees]
    return None


# ---------------------------------------------------------------------------
# Processes.


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def spawn(argv, stdin_bytes=None):
    """Run a child to completion: (exit code, stdout, wall seconds, peak RSS MB).

    stdin is written and stdout read to the end before the child is reaped
    with wait4, which also gives this child's own peak resident set size.
    stderr is inherited.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=ENV,
        stdin=subprocess.PIPE if stdin_bytes is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    try:
        if stdin_bytes is not None:
            proc.stdin.write(stdin_bytes)
            proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def cli_argv(args, traced):
    argv = [sys.executable, str(HERE / "worker.py"), "cli"]
    return argv + (["--trace"] if traced else []) + ["--", *args]


def run_cli(args, traced):
    """One CLI op: (ok exit, its stdout, seconds, peak RSS MB, worker result)."""
    rc, out, wall, rss = spawn(cli_argv(args, traced))
    cut = out.rfind(RESULT_MARKER.encode())
    if cut < 0:
        return False, out, wall, rss, {"reference": [0.0, 0], "trace": None}
    result = json.loads(out[cut + len(RESULT_MARKER):])
    return rc == 0, out[:cut], result["seconds"], rss, result


SETUP_ARGV = [sys.executable, "-c", "import veralg, time; print(time.monotonic_ns())"]


def setup_sample():
    """Seconds from spawning an interpreter to `import veralg` done."""
    start = time.monotonic_ns()
    rc, out, _, _ = spawn(SETUP_ARGV)
    if rc != 0:
        raise SystemExit("error: `import veralg` failed in a child interpreter")
    return (int(out.split()[-1]) - start) / 1e9


# ---------------------------------------------------------------------------
# Workloads.  Every pass of a run executes the same ops (one op is one CLI
# process, or one sweep job) in the same order.  A pass returns a dict:
#   ops    [[status, seconds, output digest], ...]; status is "ok",
#          "wrong", "over_budget" or "raised:<exception>"
#   rss    peak resident set size in MB of the largest process of the pass
#   reference  per op, [seconds, units] of the reference.py units that scale
#          it: those of the process that ran a CLI op, the ones timed
#          nearest to a sweep job
#   trace  combined layer report (traced passes only)
#   digest_checked  ops whose output was compared with a recorded digest


def load_expected():
    with open(HERE / "data" / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


class Repro:
    name = "repro"
    timed = None  # every op counts in the time metrics

    def __init__(self, seed, expected):
        self.expected = expected["repro_sha256"]

    def run_pass(self, traced):
        ok, out, seconds, rss, result = run_cli(["repro", "--all", "--json"], traced)
        digest = _sha(out)
        ok = ok and digest == self.expected
        return {
            "ops": [["ok" if ok else "wrong", seconds, digest]],
            "rss": rss,
            "reference": [result["reference"]],
            "trace": result["trace"],
            "digest_checked": 1,
        }


class Basis:
    name = "basis"
    timed = None

    def __init__(self, seed, expected):
        self.specs = list(BASIS_SPECS)
        random.Random(f"veralg-basis/{seed}").shuffle(self.specs)
        self.expected = expected["basis_sha256"]

    def run_pass(self, traced):
        ops, traces, rss_max, ref = [], [], 0.0, []
        for variety, gens, bound in self.specs:
            argv = ["basis", "--variety", variety, "--gens", str(gens),
                    "--max-deg", str(bound), "--json"]
            ok, out, seconds, rss, result = run_cli(argv, traced)
            digest = _sha(out)
            ok = ok and digest == self.expected[f"{variety}/{gens}/{bound}"]
            if ok:
                want = formula_dims(variety, gens, bound)
                ok = want is None or json.loads(out)["dims"] == want
            ops.append(["ok" if ok else "wrong", seconds, digest])
            rss_max = max(rss_max, rss)
            ref.append(result["reference"])
            if result["trace"] is not None:
                traces.append(result["trace"])
        return {
            "ops": ops,
            "rss": rss_max,
            "reference": ref,
            "trace": layers.combine(traces) if traces else None,
            "digest_checked": len(ops),
        }


class Sweep:
    name = "sweep"

    def __init__(self, seed, expected):
        jobs = sweep_jobs.corpus(sweep_jobs.CORPUS_SEED, sweep_jobs.load_top_basis())
        self.positions = sweep_jobs.order(seed, len(jobs))
        self.jobs = [jobs[k] for k in self.positions]
        self.recorded = [expected["sweep"][k] for k in self.positions]
        # A job that did not finish at the recording commit (its digest is
        # null) still runs and counts as failed, but not in the time metrics.
        self.timed = [want is not None for want in self.recorded]
        self.overran = set()  # jobs that overran their budget

    def run_pass(self, traced):
        """One worker process runs the jobs.

        A job that overran its budget in an earlier pass is not run again:
        it counts as over budget in every later pass.
        """
        todo = [k for k in range(len(self.jobs)) if k not in self.overran]
        argv = [sys.executable, str(HERE / "worker.py"), "sweep",
                "--budget", str(SWEEP_BUDGET_S)]
        if traced:
            argv.append("--trace")
        payload = json.dumps([self.jobs[k] for k in todo]).encode()
        rc, out, _, rss = spawn(argv, payload)
        if rc != 0:
            raise SystemExit(f"error: sweep worker exited with {rc}")
        result = json.loads(out.splitlines()[-1])
        ops = [["over_budget", None, None] for _ in self.jobs]
        references = [[0.0, 0] for _ in self.jobs]
        for k, op, ref in zip(todo, result["jobs"], result["job_reference"]):
            ops[k], references[k] = op, ref
            if op[0] == "over_budget":
                self.overran.add(k)
        checked = 0
        for op, want in zip(ops, self.recorded):
            if op[0] == "ok" and want is not None:
                checked += 1
                if op[2] != want:
                    op[0] = "wrong"
        return {
            "ops": ops,
            "rss": rss,
            "reference": references,
            "trace": result["trace"],
            "digest_checked": checked,
        }


WORKLOADS = {w.name: w for w in (Repro, Basis, Sweep)}


# ---------------------------------------------------------------------------
# Statistics and the run loop.


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list (q in [0, 1])."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    if lo == pos:
        return data[lo]
    return data[lo] + (data[lo + 1] - data[lo]) * (pos - lo)


def per_unit(references):
    """Seconds per reference unit over [[seconds, units], ...]."""
    seconds = sum(s for s, _ in references)
    units = sum(u for _, u in references)
    return seconds / units if units else REFERENCE_UNIT_S


def pass_reference(p):
    return per_unit(p["reference"])


def pass_wall(p):
    """Seconds of the ops of a pass that succeeded."""
    return sum(op[1] for op in p["ops"] if op[0] == "ok")


def run_passes(workload, seconds, traced_too):
    """Passes (or untraced/traced pairs) until the next would overrun.

    Before each pass, SETUP_PER_PASS set-up samples are taken and stored
    with the pass, so that they spread over the run.  The next pass is
    expected to take as long as the last one; the first can take longer, as
    it alone runs the sweep jobs that overrun.  An untraced run makes at
    least MIN_PASSES passes, however long they take.
    """
    start = time.perf_counter()
    setup_sample()  # unmeasured: writes the bytecode caches once
    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        setup = [setup_sample() for _ in range(SETUP_PER_PASS)]
        plain.append(workload.run_pass(False))
        plain[-1]["setup"] = setup
        if traced_too:
            traced.append(workload.run_pass(True))
        now = time.perf_counter()
        enough = traced_too or len(plain) >= MIN_PASSES
        if enough and now - start + (now - t0) > seconds:
            return plain, traced


def cross_check(passes):
    """Mark as wrong an op whose output differs from its first pass."""
    first = [op[2] for op in passes[0]["ops"]]
    for p in passes[1:]:
        for op, want in zip(p["ops"], first):
            if op[0] == "ok" and want is not None and op[2] != want:
                op[0] = "wrong"


def tally(passes):
    statuses = [op[0] for p in passes for op in p["ops"]]
    wrong = statuses.count("wrong")
    raised = sum(s.startswith("raised") for s in statuses)
    over = statuses.count("over_budget")
    return {
        "attempted": len(statuses),
        "failed": wrong + raised + over,
        "wrong": wrong,
        "raised": raised,
        "over_budget": over,
        "correct": wrong == 0 and raised == 0,
        "digest_checked": sum(p["digest_checked"] for p in passes),
    }


def op_time(op, scale):
    """An op's time at reference speed; a job over budget counts at the budget."""
    return SWEEP_BUDGET_S if op[0] == "over_budget" else op[1] * scale


def end_to_end(passes, timed=None, scaled=True):
    """Per op, the median of its times over the passes; then the metrics.

    Each time is first multiplied by REFERENCE_UNIT_S over the op's own
    reference, and set-up by the same over the mean of its pass's (unless
    `scaled` is false).  Only the ops that
    `timed` marks (all when it is None) enter the time metrics.  wall_s sums
    their per-op medians, so a slow spell of the machine during one pass
    moves it only where it hit the median; jobs_per_s divides the number of
    them that succeeded in every pass by wall_s.  An op that fails can
    therefore only make both worse.
    """
    def scale(references):
        return REFERENCE_UNIT_S / per_unit(references) if scaled else 1.0

    count = len(passes[0]["ops"])
    keep = [k for k in range(count) if timed is None or timed[k]]
    per_op = [
        statistics.median(op_time(p["ops"][k], scale([p["reference"][k]])) for p in passes)
        for k in keep
    ]
    good = sum(all(p["ops"][k][0] == "ok" for p in passes) for k in keep)
    wall = sum(per_op)
    setup = statistics.median(scale(p["reference"]) * t for p in passes for t in p["setup"])
    values = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (good / wall, "1/s"),
        "job_p50_ms": (1000 * quantile(per_op, 0.5), "ms"),
        "job_p90_ms": (1000 * quantile(per_op, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def trace_overhead(plain, traced):
    """Per pair of passes, (traced, untraced) seconds of the ops ok in both."""
    pairs = []
    for p, t in zip(plain, traced):
        both = [(t_op[1], p_op[1]) for p_op, t_op in zip(p["ops"], t["ops"])
                if p_op[0] == t_op[0] == "ok"]
        pairs.append((sum(a for a, _ in both), sum(b for _, b in both)))
    return pairs


def per_layer(plain, traced):
    values = {}
    for p in traced:
        for name, (value, unit) in layers.layer_metrics(p["trace"]).items():
            values.setdefault(name, (unit, []))[1].append(value)
    metrics = {
        name: {"value": statistics.median(vals), "unit": unit}
        for name, (unit, vals) in values.items()
    }
    # a pair with no op ok in both has no ratio; such a run is not correct
    ratios = [a / b for a, b in trace_overhead(plain, traced) if b] or [1.0]
    ratio = statistics.median(ratios)
    metrics["trace_time_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def pin_to_one_cpu():
    """Run this process and its children on one CPU; return the CPU set before.

    The machine's speed drifts, and not always on both CPUs at once; a
    worker that stays on one CPU keeps its reference units and the ops they
    scale on the same CPU.  This changes nothing but the affinity of the
    benchmark's own processes.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def machine_facts(allowed):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(allowed),
        "cpu_count": os.cpu_count(),
        "pinned_cpu": min(allowed),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "veralg" / "__init__.py").is_file():
        print(f"error: no veralg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    allowed = pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed, load_expected())
    plain, traced = run_passes(workload, args.seconds, bool(args.trace))
    cross_check(plain + traced)
    counts = tally(plain + traced)
    e2e = end_to_end(plain, workload.timed)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(allowed),
        "load": "closed loop, one client, no threads",
        "passes": len(plain),
        "pass_wall_s": [pass_wall(p) for p in plain],
        "pass_rss_mb": [p["rss"] for p in plain],
        "fail_ratio": counts["failed"] / counts["attempted"],
        "pass_reference_s": [pass_reference(p) for p in plain],
        "unscaled": {
            name: m["value"] for name, m in end_to_end(plain, workload.timed, False).items()
        },
        **counts,
    }
    if args.trace:
        metrics = per_layer(plain, traced)
        ranked = layers.dominant(layers.combine([p["trace"] for p in traced]))
        detail["dominant_layers"] = ranked
        detail["prediction_holds"] = ranked[0] in PREDICTED[args.workload]
        detail["traced_wall_s"] = statistics.median(pass_wall(p) for p in traced)
        detail["untraced_wall_s"] = statistics.median(pass_wall(p) for p in plain)
        detail["trace_overhead_s"] = statistics.median(
            a - b for a, b in trace_overhead(plain, traced)
        )
    else:
        metrics = e2e
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
