#!/usr/bin/env python3
"""varsim's benchmark: host time per conclusion and simulator throughput.

Run from the root of a varsim checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds varsim_bench (varsim's libraries plus varsim_bench.cc) into
.bench_build/, runs the workload for S seconds of timed phase in one
process, checks every output (checks.py), and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1
varsim_bench records spans around every call into varsim and the
metrics are the per-layer ones. README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BENCH_BIN = BUILD / "varsim_bench"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402

SEEDS_PER_RUN = 8
CAMPAIGN_THREADS = 2  # varsim_bench's CampaignOptions::hostThreads
MB = float(1 << 20)

# Workload and metric names and units live in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ----------------------------------------------------------------
# Build and host fingerprint.

def build():
    """Configure (once) and build varsim_bench; compile output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no varsim sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and \
            f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "varsim_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=880).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def fingerprint():
    """Core count, CPU model, git sha (or a digest of the sources)."""
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode() + b"\0")
                digest.update(p.read_bytes())
    return {"cores": os.cpu_count(), "cpu_model": model, "git_sha": sha,
            "source_sha256": digest.hexdigest()[:16]}


# ----------------------------------------------------------------
# Inputs.

def reference():
    if not REFERENCE.is_file():
        raise BenchError(f"{REFERENCE} is missing; "
                         "run python3 perfbench/make_reference.py")
    return json.loads(REFERENCE.read_text())


def seeds_for(workload, seed):
    """The perturbation seeds of one run, drawn from --seed.

    Full-detail workloads draw 8 fresh seeds; the sampled workload draws
    8 of the seeds its full-detail reference covers. The campaign's
    seeds are fixed in varsim_bench.cc: adaptive stopping makes its
    amount of work depend on them.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "apache-sampled":
        pool = sorted(int(s) for s in reference()["cpt"])
        return rng.sample(pool, SEEDS_PER_RUN)
    if workload == "table5-campaign":
        return []
    return rng.sample(range(1, 1 << 31), SEEDS_PER_RUN)


def run_bench(args, timeout):
    res = subprocess.run([str(BENCH_BIN)] + args, stdout=sys.stderr,
                         stderr=sys.stderr, timeout=timeout)
    if res.returncode != 0:
        raise BenchError(f"varsim_bench exited with {res.returncode}")


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


# ----------------------------------------------------------------
# Traces.

def span_table(spans):
    """Per span name: calls, total and self seconds."""
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += s["end"] - s["start"]
    table = {}
    for s, child in zip(spans, children):
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child
    return table


def under(spans, name, ancestor):
    """Durations of spans called `name` below a span called `ancestor`."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != ancestor:
            p = spans[p]["parent"]
        if p >= 0:
            out.append(s["end"] - s["start"])
    return out


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


# ----------------------------------------------------------------
# Counters.

COUNTERS = ("events", "txns", "fabric_txns", "nacks", "l2_misses", "dram",
            "instructions", "lock_spins", "dispatches")


def counters(stats):
    fab = checks.fabric_prefix(stats)
    return {
        "events": stats["sim.events_dispatched"],
        "txns": stats["sim.txns"],
        "fabric_txns": stats[fab + "transactions"],
        "nacks": stats[fab + "nacks"],
        "l2_misses": stats[fab + "l2_misses"],
        "dram": stats[fab + "dram_accesses"],
        "instructions": checks.sum_matching(stats,
                                            r"system\.cpu\d+\.instructions"),
        "lock_spins": stats["system.kernel.lock_spins"],
        "dispatches": stats["system.kernel.dispatches"],
    }


def delta(after, before):
    a, b = counters(after), counters(before)
    return {k: a[k] - b[k] for k in COUNTERS}


def layer_counts(total, measure_s):
    """Per-layer ratios from summed counter deltas."""
    t = total["txns"]
    return {
        "sim.events_per_txn": total["events"] / t,
        "sim.host_ns_per_event": 1e9 * measure_s / total["events"],
        "mem.fabric.transactions_per_txn": total["fabric_txns"] / t,
        "mem.fabric.nacks_per_txn": total["nacks"] / t,
        "mem.fabric.useful_ratio": 1.0 - total["nacks"] / total["fabric_txns"],
        "mem.l2.misses_per_txn": total["l2_misses"] / t,
        "mem.dram.accesses_per_txn": total["dram"] / t,
        "cpu.instructions_per_txn": total["instructions"] / t,
        "cpu.host_mips": total["instructions"] / measure_s / 1e6,
        "os.lock_spins_per_txn": total["lock_spins"] / t,
        "os.dispatches_per_txn": total["dispatches"] / t,
    }


def add(total, d):
    for k in COUNTERS:
        total[k] = total.get(k, 0) + d[k]


# ----------------------------------------------------------------
# Evaluation of one varsim_bench output.

class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []     # workload-level: make `correct` false
        self.end_to_end = {}
        self.per_layer = {k: 0.0 for k in PER_LAYER}

    def run_checked(self, run_problems, label):
        self.attempted += 1
        if run_problems:
            self.failed += 1
            for p in run_problems:
                log(f"FAILED {label}: {p}")


def evaluate_single(workload, recs, spans):
    res = Result()
    by_type = {}
    for r in recs:
        by_type.setdefault(r["type"], []).append(r)
    base = {b["seed"]: b["stats"] for b in by_type["base"]}
    runs_by_round = {}
    first = {}
    total = {}
    txns = 0
    for run in by_type["run"]:
        res.run_checked(checks.run_problems(run),
                        f"round {run['round']} seed {run['seed']}")
        runs_by_round.setdefault(run["round"], []).append(run)
        res.problems += checks.round_repeats(
            first.setdefault(run["seed"], run), run)
        add(total, delta(run["stats"], base[run["seed"]]))
        txns += run["txns"]
    rounds = by_type["round"]
    for rnd in rounds:
        cpts = [r["cpt"] for r in runs_by_round[rnd["round"]]]
        res.problems += checks.seeds_differ(cpts)
        res.problems += checks.program_ci(rnd, cpts)
    res.problems += checks.rerun(by_type.get("rerun", []))

    if workload == "apache-sampled":
        ref = reference()
        round0 = runs_by_round[0]
        if any(r["requested"] != ref["txns"] for r in round0):
            res.problems.append("reference was made for another run length")
        res.problems += checks.sampled_fidelity(
            [r["cpt"] for r in round0],
            [ref["cpt"][str(r["seed"])] for r in round0])

    res.end_to_end = {
        "conclusion_s": statistics.median(r["time_s"] for r in rounds),
        "txns_per_s": txns / sum(r["time_s"] for r in rounds),
        "setup_s": by_type["setup"][0]["setup_s"],
        "peak_rss_mb": by_type["phase_end"][0]["maxrss_kb"] / 1024.0,
    }
    if spans is not None:
        measure = under(spans, "core.measure", "phase")
        runs = by_type["run"]
        res.per_layer.update(layer_counts(total, sum(measure)))
        res.per_layer.update({
            "core.construct_s": mean(under(spans, "core.construct", "setup")),
            "core.warmup_s": mean(under(spans, "core.warmup", "setup")),
            "core.measure_s": mean(measure),
            "sample.fast_txn_share": sum(r["fast_txns"] for r in runs) / txns,
            "sample.windows_per_run": mean([r["windows"] for r in runs]),
        })
    return res


def evaluate_campaign(recs, spans):
    res = Result()
    by_type = {}
    for r in recs:
        by_type.setdefault(r["type"], []).append(r)
    base = {b["group"]: b["stats"] for b in by_type["ckpt_base"]}
    total = {}
    txns = 0
    stored = None
    for camp in by_type["camp"]:
        runs, metrics = checks.export_runs(camp["export"])
        by_group = {}
        for key in sorted(runs):
            run = runs[key]
            st = metrics.get(key)
            label = f"round {camp['round']} group {key[0]} run {key[1]}"
            if st is None:
                res.run_checked(["no metrics record"], label)
                continue
            res.run_checked(checks.run_problems({
                "stats": st, "cpt": run["cycles_per_txn"], "txns": run["txns"],
                "requested": camp["measure_txns"], "ended": 0}), label)
            add(total, delta(st, base[key[0]]))
            txns += run["txns"]
            by_group.setdefault(key[0], []).append(run["cycles_per_txn"])
        if len(runs) != camp["runs_executed"]:
            res.problems.append(f"round {camp['round']}: store holds "
                                f"{len(runs)} runs, campaign ran "
                                f"{camp['runs_executed']}")
        if not camp["complete"]:
            res.problems.append(f"round {camp['round']} did not complete")
        cpts = [by_group[g] for g in sorted(by_group)]
        res.problems += checks.report_matches(camp["report"], cpts)
        for xs in cpts:
            res.problems += checks.seeds_differ(xs)
        stored = runs
    res.problems += checks.resume(by_type["resume"][0])
    restore = by_type["restore"][0]
    res.problems += checks.restore(
        restore, stored[(restore["group"], 0)]["cycles_per_txn"])

    rounds = by_type["camp"]
    setup = by_type["setup"][0]
    res.end_to_end = {
        "conclusion_s": statistics.median(r["time_s"] for r in rounds),
        "txns_per_s": txns / sum(r["time_s"] for r in rounds),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": by_type["phase_end"][0]["maxrss_kb"] / 1024.0,
    }
    if spans is not None:
        # Host rates come from the serial restore+measure of one run
        # per configuration, the only runs timed on this thread.
        g0 = restore["group"]
        serial_s = sum(s["end"] - s["start"] for s in spans
                       if (s["name"], s["run"]) == ("core.measure",
                                                    f"g{g0}.lib"))
        serial = {}
        add(serial, delta(json.loads(restore["jsonl_library"]), base[g0]))
        rates = layer_counts(serial, serial_s)
        counts = layer_counts(total, 1.0)
        for k in ("sim.host_ns_per_event", "cpu.host_mips"):
            counts[k] = rates[k]
        res.per_layer.update(counts)
        restore_s = under(spans, "ckpt.restore", "check.restore")
        measure = under(spans, "core.measure", "check.restore")
        run_s = [s["end"] - s["start"] for s in spans
                 if s["name"] == "campaign.run" and s["run"].startswith("r")]
        # What each pooled run does: restore an in-memory checkpoint,
        # then measure; timed serially once per configuration and
        # weighted by the runs each configuration got.
        busy = 0.0
        for g, xs in enumerate(cpts):
            tag = f"g{g}"
            one = sum(s["end"] - s["start"] for s in spans
                      if (s["name"], s["run"]) in (("core.restore", tag),
                                                   ("core.measure",
                                                    tag + ".lib")))
            busy += len(xs) * one
        res.per_layer.update({
            "core.construct_s": mean(under(spans, "core.construct",
                                           "check.restore")),
            "core.warmup_s": mean(under(spans, "core.warmup",
                                        "check.restore")),
            "core.measure_s": mean(measure),
            "ckpt.warm_s": mean(under(spans, "ckpt.warm", "setup")),
            "ckpt.restore_s": mean(restore_s),
            "ckpt.library_mb": setup["library_bytes"] / MB,
            "campaign.run_s": mean(run_s),
            "campaign.report_s": mean(
                [s["end"] - s["start"] for s in spans
                 if s["name"] == "campaign.report"
                 and s["run"].startswith("r")]),
            "campaign.runs": mean([r["runs_recorded"] for r in rounds]),
            "campaign.pool_busy_ratio": busy / (mean(run_s)
                                                * CAMPAIGN_THREADS),
            "campaign.store_mb": mean([r["store_bytes"] for r in rounds]) / MB,
        })
    return res


# ----------------------------------------------------------------

def collect(workload, seed, seconds, trace):
    """Run varsim_bench; its records, and its spans when tracing."""
    work = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "records.jsonl"
    spans_file = work / "spans.jsonl"
    args = ["--workload", workload, "--seconds", str(seconds),
            "--out", str(out), "--workdir", str(work)]
    seeds = seeds_for(workload, seed)
    if seeds:
        args += ["--seeds", ",".join(map(str, seeds))]
    if trace:
        args += ["--trace", str(spans_file)]
    try:
        run_bench(args, timeout=170)
        return read_jsonl(out), read_jsonl(spans_file) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def evaluate(workload, recs, spans):
    if workload == "table5-campaign":
        res = evaluate_campaign(recs, spans)
    else:
        res = evaluate_single(workload, recs, spans)
    if spans is not None:
        res.problems += checks.spans_nest(spans)
    return res


def bench(workload, seed, seconds, trace):
    recs, spans = collect(workload, seed, seconds, trace)
    res = evaluate(workload, recs, spans)
    if trace:
        # Kept for reading: the spans, a per-name table with self
        # times, and this traced run's own end-to-end figures (their
        # difference from untraced runs is the tracing overhead).
        base = OUT / "trace" / f"{workload}-seed{seed}"
        base.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{base}.spans.jsonl", "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in spans)
        table = span_table(spans)
        Path(f"{base}.summary.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "spans": table,
             "traced_end_to_end": res.end_to_end}, indent=1) + "\n")
        log(f"{'span':<18}{'calls':>7}{'total s':>11}{'self s':>11}")
        for name, row in sorted(table.items()):
            log(f"{name:<18}{row['calls']:>7}{row['total_s']:>11.4f}"
                f"{row['self_s']:>11.4f}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        host = fingerprint()
        print(json.dumps({"host": host, "workload": a.workload,
                          "seed": a.seed}), flush=True)
        res = bench(a.workload, a.seed, a.seconds, a.trace == 1)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    for p in res.problems:
        log(f"CHECK FAILED: {p}")
    metrics = res.per_layer if a.trace else res.end_to_end
    log(json.dumps(res.end_to_end))
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
