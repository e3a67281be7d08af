#!/usr/bin/env python3
"""Show that every output check fails when fed a corrupted result.

    python3 perfbench/selftest.py

Runs each workload once for a single round, confirms the untouched
result passes, then corrupts one thing at a time (a counter, a run
length, a dump, the program's CI, the campaign report's numbers or
decision, a span) and confirms the benchmark's evaluation reports it,
as a failed operation or a failed check. Exits non-zero if any
corruption goes unnoticed.
"""

import copy
import json
import sys

import run

missed = []


def expect(workload, recs, spans, what, corrupt):
    recs, spans = copy.deepcopy(recs), copy.deepcopy(spans)
    corrupt(recs, spans)
    res = run.evaluate(workload, recs, spans)
    caught = res.failed > 0 or bool(res.problems)
    how = res.problems[0] if res.problems else f"{res.failed} failed run(s)"
    print(f"  {'caught' if caught else 'MISSED'}: {what}"
          + (f" -> {how}" if caught else ""))
    if not caught:
        missed.append(f"{workload}: {what}")


def first(recs, kind):
    return next(r for r in recs if r["type"] == kind)


def bump(stats, name, by=1):
    stats[name] += by


def single_cases(w, recs, spans):
    def stats0(rs):
        return first(rs, "run")["stats"]
    fab = run.checks.fabric_prefix(stats0(recs))
    yield "one node's l2.retries +1", lambda r, s: bump(
        stats0(r), "system.mem.node3.l2.retries")
    yield "fabric nacks +1", lambda r, s: bump(stats0(r), fab + "nacks")
    yield "one cpu's mem_ops +1", lambda r, s: bump(
        stats0(r), "system.cpu5.mem_ops")
    yield "one node's l1d.hits -1", lambda r, s: bump(
        stats0(r), "system.mem.node0.l1d.hits", -1)
    yield "a run one transaction short", lambda r, s: bump(
        first(r, "run"), "txns", -1)
    yield "a run whose workload ended", lambda r, s: first(
        r, "run").update(ended=1)

    def same_cpt(r, s):
        for x in r:
            if x["type"] == "run" and x["round"] == 0:
                x["cpt"] = 12345.0
    yield "every seed with the same cycles/txn", same_cpt
    yield "program CI upper bound off by 1e-4", lambda r, s: first(
        r, "round").update(ci_hi=first(r, "round")["ci_hi"] * 1.0001)
    yield "program mean off by 1e-4", lambda r, s: first(
        r, "round").update(ci_mean=first(r, "round")["ci_mean"] * 1.0001)
    yield "re-run dump differs in one digit", lambda r, s: first(
        r, "rerun").update(jsonl=first(r, "rerun")["jsonl"].replace(
            '"sim.ticks":', '"sim.ticks":1', 1))

    def later_round(r, s):
        runs = [x for x in r if x["type"] == "run"]
        runs[-1]["cpt"] += 1.0
        runs[-1]["round"] = 1
    yield "a later round differing from round 0", later_round
    if w == "apache-sampled":
        def skew(factor):
            def f(r, s):
                for x in r:
                    if x["type"] == "run" and x["round"] == 0:
                        x["cpt"] *= factor
            return f
        yield "sampled estimates 5% high against full detail", skew(1.05)
        yield "sampled estimates 5% low against full detail", skew(0.95)


def campaign_cases(recs, spans):
    def report_edit(old, new):
        def f(r, s):
            camp = first(r, "camp")
            assert old in camp["report"], old
            camp["report"] = camp["report"].replace(old, new, 1)
        return f
    camp = first(recs, "camp")
    groups, verdict = run.checks.parse_report(camp["report"])
    g = groups[0]
    yield "report n of a group -1", report_edit(
        f"n={g['n']} ", f"n={g['n'] - 1} ")
    yield "report CI lower bound +2", report_edit(
        f"[{g['lo']}, ", f"[{g['lo'] + 2}, ")
    yield "report mean changed", report_edit(
        f"mean={camp['report'].split('mean=')[1].split()[0]}",
        "mean=1.111e+04")
    bound = camp["report"].split("t-test bound ")[1].split(")")[0]
    yield "report t-test level changed", report_edit(
        f"t-test bound {bound})", "t-test bound 0.1)")
    yield "report winner swapped", report_edit("B is better", "A is better")

    def export_edit(r, s):
        c = first(r, "camp")
        lines = c["export"].splitlines()
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["type"] == "run":
                rec["cycles_per_txn"] *= 1.5
                lines[i] = json.dumps(rec)
                break
        c["export"] = "\n".join(lines)
    yield "one exported run's cycles/txn x1.5", export_edit

    def metric_edit(r, s):
        c = first(r, "camp")
        lines = c["export"].splitlines()
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["type"] == "metrics":
                rec["m:system.mem.node2.l2.retries"] += 1
                lines[i] = json.dumps(rec)
                break
        c["export"] = "\n".join(lines)
    yield "one exported run's l2.retries +1", metric_edit
    yield "second runCampaign executed a run", lambda r, s: first(
        r, "resume").update(runs_executed=1)
    yield "report changed after a second runCampaign", lambda r, s: first(
        r, "resume").update(report=first(r, "resume")["report"] + " ")
    yield "library-restored dump differs", lambda r, s: first(
        r, "restore").update(jsonl_library=first(r, "restore")[
            "jsonl_library"].replace('"sim.ticks":', '"sim.ticks":1', 1))
    yield "library-restored cycles/txn differs", lambda r, s: first(
        r, "restore").update(cpt_library=first(r, "restore")[
            "cpt_library"] + 1)


def span_cases():
    def outlive(r, s):
        child = next(x for x in s if x["parent"] >= 0)
        child["end"] = s[child["parent"]]["end"] + 1.0
    yield "a span ending after its parent", outlive

    def early(r, s):
        child = next(x for x in s if x["parent"] >= 0)
        child["start"] = s[child["parent"]]["start"] - 1.0
    yield "a span starting before its parent", early


def main():
    run.build()
    for w in run.WORKLOADS:
        print(f"{w}:")
        recs, spans = run.collect(w, 1, 0, True)
        res = run.evaluate(w, recs, spans)
        if res.failed or res.problems:
            print(f"  the untouched result fails: {res.problems}")
            missed.append(f"{w}: untouched result fails")
            continue
        print("  untouched result passes")
        cases = campaign_cases(recs, spans) if w == "table5-campaign" \
            else single_cases(w, recs, spans)
        for what, corrupt in list(cases) + list(span_cases()):
            expect(w, recs, spans, what, corrupt)
    if missed:
        print("corruptions not caught:\n  " + "\n  ".join(missed))
        return 1
    print("every corruption was caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
