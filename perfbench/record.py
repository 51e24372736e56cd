"""Record the reference data the benchmark checks against.

    python3 perfbench/record.py top-basis        # data/top_basis.json
    python3 perfbench/record.py cli              # repro and basis digests
    python3 perfbench/record.py sweep            # sweep certificate digests

Run from the root of a checkout of a known-good commit.  ``top-basis``
lists the top-degree basis monomials the sweep generator draws from;
``cli`` stores the sha256 of ``repro --all --json`` and of every
``basis --json`` output; ``sweep`` stores the digest of the certificate of
every job of the corpus ``sweep_jobs.CORPUS_SEED`` draws, in corpus order
(null for a job that did not finish in budget).
The results go into data/expected.json, keeping entries not re-recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import sweep_jobs

EXPECTED = run.HERE / "data" / "expected.json"


def _load():
    if EXPECTED.exists():
        return run.load_expected()
    return {"repro_sha256": None, "basis_sha256": {}, "sweep": []}


def _save(data):
    EXPECTED.parent.mkdir(exist_ok=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record_top_basis():
    sys.path.insert(0, str(run.SRC))
    from veralg import GeneratorSet, build_truncated, builtin_variety

    table = {}
    for variety, gens, bound, _ in sweep_jobs.STRATA:
        alg = build_truncated(builtin_variety(variety), GeneratorSet.default(gens), bound)
        table[sweep_jobs.stratum_key(variety, gens, bound)] = [
            m.encode() for m in alg.basis_of_degree(bound)
        ]
    with open(sweep_jobs.DATA / "top_basis.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record_cli(data):
    ok, out, _, _, _ = run.run_cli(["repro", "--all", "--json"], False)
    assert ok, "repro --all failed"
    data["repro_sha256"] = run._sha(out)
    for variety, gens, bound in run.BASIS_SPECS:
        argv = ["basis", "--variety", variety, "--gens", str(gens),
                "--max-deg", str(bound), "--json"]
        ok, out, _, _, _ = run.run_cli(argv, False)
        assert ok, f"basis {variety} {gens} {bound} failed"
        data["basis_sha256"][f"{variety}/{gens}/{bound}"] = run._sha(out)


def record_sweep(data):
    count = len(sweep_jobs.corpus(sweep_jobs.CORPUS_SEED, sweep_jobs.load_top_basis()))
    workload = run.Sweep(0, {"sweep": [None] * count})
    digests = [None] * count
    for k, op in zip(workload.positions, workload.run_pass(False)["ops"]):
        digests[k] = op[2]
    data["sweep"] = digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py")
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("top-basis")
    sub.add_parser("cli")
    sub.add_parser("sweep")
    args = parser.parse_args(argv)

    if args.what == "top-basis":
        record_top_basis()
        return 0
    data = _load()
    if args.what == "cli":
        record_cli(data)
    else:
        record_sweep(data)
    _save(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
