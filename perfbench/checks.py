"""Output checks for the benchmark's runs.

Each check takes parsed varsim_bench records and returns a list of problems
(empty when the check passes). Checks compare the program's outputs
with independent counters, with properties the paper's method
guarantees, and with statistics recomputed in tstat.py; none compares
against a stored copy of earlier output, except the sampled workload's
full-detail reference, which make_reference.py remakes.

selftest.py feeds each check a corrupted result and shows it fails.
"""

import json
import math
import re

import tstat

# CI bounds are compared to this relative tolerance: the program and
# tstat.py invert the t distribution by different iterations.
CI_RTOL = 1e-6

# apache-sampled passes when the full-detail mean of its seeds lies in
# the CI of the sampled estimates, or within this share of it.
SAMPLED_REL_BOUND = 0.03

# The levels the program reports as its "t-test bound".
ALPHA_LEVELS = (0.10, 0.05, 0.025, 0.01, 0.005)


def fabric_prefix(stats):
    """'system.mem.bus.' or 'system.mem.dir.', whichever exists."""
    for p in ("system.mem.bus.", "system.mem.dir."):
        if p + "nacks" in stats:
            return p
    raise KeyError("no fabric counters in the registry dump")


def sum_matching(stats, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in stats.items() if rx.fullmatch(k))


def run_problems(run):
    """Per-run checks on one measured run record."""
    problems = []
    st = run["stats"]
    nacks = st[fabric_prefix(st) + "nacks"]
    retries = sum_matching(st, r"system\.mem\.node\d+\.l2\.retries")
    if retries != nacks:
        problems.append(f"sum of l2.retries {retries} != fabric nacks {nacks}")
    mem_ops = sum_matching(st, r"system\.cpu\d+\.mem_ops")
    l1d = sum_matching(st, r"system\.mem\.node\d+\.l1d\.(hits|misses)")
    if mem_ops != l1d:
        problems.append(f"sum of cpu mem_ops {mem_ops} != l1d accesses {l1d}")
    if run["txns"] != run["requested"] or run["ended"]:
        problems.append(
            f"ran {run['txns']} of {run['requested']} txns"
            + (" (workload ended)" if run["ended"] else ""))
    if not math.isfinite(run["cpt"]) or run["cpt"] <= 0:
        problems.append(f"cycles/txn {run['cpt']} is not a positive number")
    return problems


def seeds_differ(cpts):
    """Space variability: distinct seeds do not all agree."""
    if len(set(cpts)) < 2:
        return [f"all {len(cpts)} seeds gave cycles/txn {cpts[0]}"]
    return []


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def program_ci(round_rec, cpts):
    """The program's mean and 95% CI against tstat.mean_ci."""
    m, lo, hi = tstat.mean_ci(cpts)
    problems = []
    for name, mine in (("mean", m), ("lo", lo), ("hi", hi)):
        theirs = round_rec["ci_" + name]
        if not close(mine, theirs, CI_RTOL):
            problems.append(
                f"round {round_rec['round']}: program CI {name} {theirs!r}"
                f" != recomputed {mine!r}")
    return problems


def rerun(records):
    """Re-simulating a seed from construction reproduces its dump."""
    if len(records) != 1:
        return [f"expected one re-run record, got {len(records)}"]
    r = records[0]
    if r["jsonl"] != r["original"]:
        return [f"re-run of seed {r['seed']} gave a different stats dump"]
    return []


def round_repeats(first, run):
    """Every round restores the same warm state, so repeats round 0."""
    if run["stats"] != first["stats"] or run["cpt"] != first["cpt"]:
        return [f"seed {run['seed']}: round {run['round']} differs from "
                f"round {first['round']}"]
    return []


def sampled_fidelity(cpts, reference):
    """Sampled estimates of round 0 against full detail, same seeds."""
    full = tstat.mean_var(reference)[0]
    m, lo, hi = tstat.mean_ci(cpts)
    if lo <= full <= hi or abs(m - full) <= SAMPLED_REL_BOUND * full:
        return []
    return [f"sampled mean {m:.1f} CI [{lo:.1f}, {hi:.1f}] misses the "
            f"full-detail mean {full:.1f} by more than "
            f"{100 * SAMPLED_REL_BOUND:.0f}%"]


# ----------------------------------------------------------------
# Campaign report.

_GROUP = re.compile(
    r"^(?P<name>\S+) @ckpt0:\n  n=(?P<n>\d+) mean=(?P<mean>\S+) .*\n"
    r"  95% CI for the mean: \[(?P<lo>-?\d+), (?P<hi>-?\d+)\]$",
    re.M)
_VERDICT = re.compile(
    r"^    (?P<winner>[AB]) is better; confidence intervals do not "
    r"overlap \(.*t-test bound (?P<bound>\S+)\)$"
    r"|^    (?P<winner2>[AB]) is likely better; intervals overlap but "
    r"the t-test rejects equality at alpha=(?P<bound2>\S+)$"
    r"|^    (?P<none>no statistically significant difference)", re.M)


def parse_report(text):
    """Groups (name, n, mean, lo, hi) and the one verdict."""
    groups = [dict(name=g["name"], n=int(g["n"]), mean=float(g["mean"]),
                   lo=int(g["lo"]), hi=int(g["hi"]))
              for g in _GROUP.finditer(text)]
    v = _VERDICT.search(text)
    if v is None:
        return groups, None
    if v["none"]:
        verdict = dict(winner=None, overlap=True, bound=1.0)
    elif v["winner"]:
        verdict = dict(winner=v["winner"], overlap=False,
                       bound=float(v["bound"]))
    else:
        verdict = dict(winner=v["winner2"], overlap=True,
                       bound=float(v["bound2"]))
    return groups, verdict


def decide(a, b):
    """tstat's own comparison of config A and B, as the report states it."""
    ma, la, ha = tstat.mean_ci(a)
    mb, lb, hb = tstat.mean_ci(b)
    b_better = mb <= ma
    worse, better = (a, b) if b_better else (b, a)
    if len(worse) == len(better):
        t, df = tstat.pooled_t(worse, better)
    else:
        t, df = tstat.welch_t(worse, better)
    p = tstat.p_one_sided(t, df)
    bound = 1.0
    for alpha in ALPHA_LEVELS:
        if p < alpha:
            bound = alpha
    overlap = not (ha < lb or hb < la)
    if not overlap or bound < 1.0:
        winner = "B" if b_better else "A"
    else:
        winner = None
    return dict(winner=winner, overlap=overlap, bound=bound, t=t, df=df,
                p=p)


def report_matches(text, cpts_by_group):
    """The program's campaign report against tstat on the exported runs."""
    problems = []
    groups, verdict = parse_report(text)
    if len(groups) != len(cpts_by_group):
        return [f"report lists {len(groups)} groups, store has "
                f"{len(cpts_by_group)}"]
    for g, xs in zip(groups, cpts_by_group):
        m, lo, hi = tstat.mean_ci(xs)
        if g["n"] != len(xs):
            problems.append(f"{g['name']}: report n={g['n']}, store {len(xs)}")
        # The report prints the mean to 4 significant digits and the
        # CI rounded to whole cycles.
        if float(f"{m:.4g}") != g["mean"]:
            problems.append(f"{g['name']}: report mean {g['mean']} != {m:.4g}")
        for name, mine in (("lo", lo), ("hi", hi)):
            if abs(g[name] - mine) > 0.5 + 1e-6 * abs(mine):
                problems.append(
                    f"{g['name']}: report CI {name} {g[name]} != {mine:.3f}")
    if verdict is None:
        return problems + ["report states no comparison"]
    if len(cpts_by_group) == 2:
        mine = decide(*cpts_by_group)
        for k in ("winner", "overlap", "bound"):
            if mine[k] != verdict[k]:
                problems.append(f"report decision {k}={verdict[k]!r}, "
                                f"recomputed {mine[k]!r} (t={mine['t']:.4f}"
                                f", df={mine['df']:.2f}, p={mine['p']:.3g})")
    return problems


def export_runs(export_text):
    """Run and metrics records of a `campaign export` journal."""
    runs, metrics = {}, {}
    for line in export_text.splitlines():
        rec = json.loads(line)
        if rec.get("type") == "run":
            runs[(rec["group"], rec["run"])] = rec
        elif rec.get("type") == "metrics":
            metrics[(rec["group"], rec["run"])] = {
                k[2:]: v for k, v in rec.items() if k.startswith("m:")}
    return runs, metrics


def resume(rec):
    """A second runCampaign on a finished store changes nothing."""
    problems = []
    if rec["runs_executed"] != 0:
        problems.append(f"second runCampaign executed {rec['runs_executed']} runs")
    if rec["report"] != rec["original"]:
        problems.append("report changed after a second runCampaign")
    return problems


def restore(rec, stored_cpt):
    """A library-restored run equals the in-memory warm-up's and the store's."""
    problems = []
    if rec["jsonl_library"] != rec["jsonl_memory"]:
        problems.append("library-restored run's stats dump differs from the "
                        "in-memory warm-up's")
    if rec["cpt_library"] != rec["cpt_memory"]:
        problems.append(f"cycles/txn {rec['cpt_library']!r} (library) != "
                        f"{rec['cpt_memory']!r} (in memory)")
    if rec["cpt_library"] != stored_cpt:
        problems.append(f"cycles/txn {rec['cpt_library']!r} (restored) != "
                        f"{stored_cpt!r} (campaign store)")
    return problems


def spans_nest(spans):
    """Every span lies inside its parent, and parents come first."""
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        p = s["parent"]
        if p < 0:
            continue
        if p >= s["id"]:
            problems.append(f"span {s['id']} has a later parent {p}")
            continue
        par = spans[p]
        if s["start"] < par["start"] or s["end"] > par["end"]:
            problems.append(f"span {s['id']} {s['name']} is not inside its "
                            f"parent {p} {par['name']}")
    return problems
