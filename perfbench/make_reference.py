#!/usr/bin/env python3
"""Remake reference.json: full-detail cycles/txn for apache-sampled.

    python3 perfbench/make_reference.py

apache-sampled checks its sampled estimate against the full-detail
mean cycles/txn of the same perturbation seeds over the same
transactions (its first round). This script simulates each seed of the
pool in full detail with the workload's own configuration and run
length, and writes the results with the host fingerprint. A run of
apache-sampled draws its 8 seeds from this pool.
"""

import json
import sys

import run

POOL = range(7001, 7025)


def main():
    run.build()
    out = run.OUT / "reference.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    run.run_bench(["--reference", "--seeds", ",".join(map(str, POOL)),
                   "--out", str(out)], timeout=1800)
    recs = run.read_jsonl(out)
    out.unlink()
    ref = {
        "workload": "apache-sampled",
        "made_by": "python3 perfbench/make_reference.py",
        "host": run.fingerprint(),
        "txns": recs[0]["txns"],
        "cpt": {str(r["seed"]): r["cpt"] for r in recs},
    }
    if any(r["txns"] != ref["txns"] for r in recs):
        sys.exit("reference runs measured different transaction counts")
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {run.REFERENCE} ({len(recs)} seeds)")


if __name__ == "__main__":
    main()
