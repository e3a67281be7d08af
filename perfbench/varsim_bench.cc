/**
 * @file
 * The benchmark's simulation program: runs one named workload through
 * varsim's public API and writes every raw result to a JSONL file.
 * perfbench/run.py builds and runs it, derives the metrics, recomputes
 * the statistics and checks the outputs.
 *
 * Usage:
 *   varsim_bench --workload NAME --seconds S --out FILE
 *                    [--seeds a,b,...] [--trace FILE]
 *                    [--workdir DIR]
 *   varsim_bench --reference --seeds a,b,... --out FILE
 *
 * Every workload measures whole rounds until S seconds of its timed
 * phase have passed. Set-up warms each seed's simulation once and
 * checkpoints it in memory. A round of a single-configuration
 * workload restores every seed's warm state, measures the same block
 * of transactions on each, one seed after another on this thread,
 * then asks the program for the mean and 95% CI of cycles/txn. So
 * every round repeats the same simulated work. A round of the
 * campaign runs the Table 5 campaign to its decision in a fresh store
 * and reports it. With --trace, spans around every call into the
 * program are written to FILE when the run ends.
 *
 * Output records (one JSON object per line, "type" first):
 *   setup     set-up time from process start
 *   base      a seed's registry dump as restored, before measuring
 *   run       one measured run: cycles/txn, txns, sampling counts,
 *             and its RunResult::stats registry dump
 *   round     one conclusion: its time and the program's CI
 *   camp      one campaign round: outcome, report text and the
 *             store's `campaign export` journal
 *   rerun     one seed re-simulated from scratch (determinism check)
 *   resume, restore, ckpt_base
 *             the campaign's post-phase checks and per-config
 *             registry baselines (see runCampaignWorkload)
 *   phase_end peak resident set over set-up and the timed phase
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "ckpt/library.hh"
#include "core/runner.hh"
#include "core/simulation.hh"
#include "sim/jsonl.hh"
#include "sample/runner.hh"
#include "stats/inference.hh"

namespace
{

using namespace varsim;
using Clock = std::chrono::steady_clock;

/** Taken during static initialization, before main() runs. */
const Clock::time_point kProcessStart = Clock::now();

double
sinceStart()
{
    return std::chrono::duration<double>(Clock::now() - kProcessStart)
        .count();
}

/** Peak resident set of this process so far, in KiB. */
std::uint64_t
maxRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// ---------------------------------------------------------------
// Spans around the benchmark's calls into the program.

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    /** Closes its span when it goes out of scope. */
    class Span
    {
      public:
        Span(Tracer *t, int idx) : t_(t), idx_(idx) {}
        ~Span()
        {
            if (t_)
                t_->close(idx_);
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *t_;
        int idx_;
    };

    Span
    span(const char *name, const std::string &run = "")
    {
        if (!on_)
            return Span(nullptr, -1);
        recs_.push_back({name, run, sinceStart(), 0.0, open_});
        open_ = static_cast<int>(recs_.size()) - 1;
        return Span(this, open_);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            const Rec &r = recs_[i];
            os << "{\"id\":" << i << ",\"name\":\"" << r.name
               << "\",\"run\":\"" << r.run << "\",\"parent\":"
               << r.parent << ",\"start\":" << fmt(r.start)
               << ",\"end\":" << fmt(r.end) << "}\n";
        }
        if (!os)
            throw std::runtime_error("cannot write trace " + path);
    }

    static std::string
    fmt(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

  private:
    void
    close(int idx)
    {
        recs_[idx].end = sinceStart();
        open_ = recs_[idx].parent;
    }

    struct Rec
    {
        std::string name;
        std::string run;
        double start;
        double end;
        int parent;
    };

    bool on_;
    std::vector<Rec> recs_;
    int open_ = -1;
};

// ---------------------------------------------------------------
// Output.

class Out
{
  public:
    explicit Out(const std::string &path) : os_(path)
    {
        if (!os_)
            throw std::runtime_error("cannot open " + path);
    }

    /** Start a record; fields follow, then end(). */
    Out &
    rec(const char *type)
    {
        os_ << "{\"type\":\"" << type << "\"";
        return *this;
    }

    Out &
    num(const char *key, double v)
    {
        os_ << ",\"" << key << "\":" << Tracer::fmt(v);
        return *this;
    }

    Out &
    u64(const char *key, std::uint64_t v)
    {
        os_ << ",\"" << key << "\":" << v;
        return *this;
    }

    Out &
    str(const char *key, const std::string &v)
    {
        os_ << ",\"" << key << "\":\"" << sim::jsonEscape(v) << "\"";
        return *this;
    }

    /** A registry dump as a nested object of name: value. */
    Out &
    dump(const char *key, const sim::statistics::StatDump &d)
    {
        os_ << ",\"" << key << "\":{";
        for (std::size_t i = 0; i < d.size(); ++i)
            os_ << (i ? "," : "") << "\"" << d[i].name
                << "\":" << Tracer::fmt(d[i].value);
        os_ << "}";
        return *this;
    }

    void
    end()
    {
        os_ << "}\n";
        os_.flush();
        if (!os_)
            throw std::runtime_error("write failed");
    }

  private:
    std::ofstream os_;
};

// ---------------------------------------------------------------
// Workloads. Every one has 16 simulated CPUs (the paper's target).

constexpr std::size_t kCpus = 16;

struct SingleWorkload
{
    workload::WorkloadKind kind;
    core::SystemConfig sys;
    std::uint64_t warmupTxns; ///< per seed, in set-up
    std::uint64_t roundTxns;  ///< per seed, per round
    std::string sample;       ///< sampling design, empty = full detail
};

core::SystemConfig
ooo(mem::CoherenceProtocol protocol)
{
    core::SystemConfig sys = core::SystemConfig::paperDefault();
    sys.cpu.model = cpu::CpuConfig::Model::OutOfOrder;
    sys.mem.protocol = protocol;
    return sys;
}

bool
singleWorkload(const std::string &name, SingleWorkload &w)
{
    if (name == "apache-snoop") {
        // The paper's default target: snooping bus, simple CPUs.
        w = {workload::WorkloadKind::Apache,
             core::SystemConfig::paperDefault(), 1000, 3000, ""};
    } else if (name == "specjbb-ooo-dir") {
        w = {workload::WorkloadKind::SpecJbb,
             ooo(mem::CoherenceProtocol::Directory), 1000, 3000, ""};
    } else if (name == "apache-sampled") {
        // The stratified design of BENCH_sampling.json's headline
        // case (U=2000, W=16, M=64) on the same configuration.
        w = {workload::WorkloadKind::Apache,
             ooo(mem::CoherenceProtocol::Directory), 100, 16000,
             "stratified:2000:16:64"};
    } else {
        return false;
    }
    return true;
}

core::RunConfig
roundConfig(const SingleWorkload &w, std::uint64_t seed)
{
    core::RunConfig rc;
    rc.warmupTxns = 0; // warmed in set-up
    rc.measureTxns = w.roundTxns;
    rc.perturbSeed = seed;
    if (!w.sample.empty() &&
        !core::SampleConfig::parse(w.sample, rc.sample))
        throw std::runtime_error("bad sampling design " + w.sample);
    return rc;
}

core::RunResult
measureOnce(const SingleWorkload &w, core::Simulation &simn,
            std::uint64_t seed)
{
    const core::RunConfig rc = roundConfig(w, seed);
    return w.sample.empty() ? core::measure(simn, rc, kCpus)
                            : sample::measure(simn, rc, kCpus);
}

/** Construct, warm up and checkpoint one seed's simulation. */
core::Checkpoint
warmCheckpoint(const SingleWorkload &w, std::uint64_t seed, Tracer &tr,
               const std::string &run)
{
    workload::WorkloadParams wl;
    wl.kind = w.kind;
    std::unique_ptr<core::Simulation> simn;
    {
        auto s = tr.span("core.construct", run);
        simn = std::make_unique<core::Simulation>(w.sys, wl);
        simn->seedPerturbation(seed);
    }
    {
        auto s = tr.span("core.warmup", run);
        const auto p = simn->runTransactions(w.warmupTxns);
        if (p.txns != w.warmupTxns)
            throw std::runtime_error("warm-up ended early");
    }
    auto s = tr.span("core.checkpoint", run);
    return simn->checkpoint();
}

/** The warm state again; the snapshot carries the seed's RNG. */
std::unique_ptr<core::Simulation>
restoreWarm(const SingleWorkload &w, const core::Checkpoint &cp,
            Tracer &tr, const std::string &run)
{
    auto s = tr.span("core.restore", run);
    workload::WorkloadParams wl;
    wl.kind = w.kind;
    return core::Simulation::restore(w.sys, wl, cp);
}

void
writeRun(Out &out, std::size_t round, std::uint64_t seed,
         std::uint64_t requested, const core::RunResult &r)
{
    out.rec("run")
        .u64("round", round)
        .u64("seed", seed)
        .num("cpt", r.cyclesPerTxn)
        .u64("txns", r.txns)
        .u64("requested", requested)
        .u64("ended", r.workloadEnded ? 1 : 0)
        .u64("fast_txns", r.sampled.fastTxns)
        .u64("windows", r.sampled.windows)
        .dump("stats", r.stats)
        .end();
}

void
runSingle(const SingleWorkload &w, const std::vector<std::uint64_t> &seeds,
          double seconds, Tracer &tr, Out &out)
{
    std::vector<core::Checkpoint> warm;
    {
        auto s = tr.span("setup");
        for (std::size_t i = 0; i < seeds.size(); ++i)
            warm.push_back(warmCheckpoint(w, seeds[i], tr,
                                          "s" + std::to_string(i)));
    }
    out.rec("setup").num("setup_s", sinceStart()).end();

    // Timed phase: whole rounds until `seconds` have passed. Every
    // round restores each seed's warm state (untimed) and then times
    // the measure calls back to back and the program's CI.
    std::vector<std::vector<core::RunResult>> rounds;
    std::vector<double> roundSecs;
    std::vector<stats::ConfidenceInterval> answers;
    const double phaseStart = sinceStart();
    {
        auto ph = tr.span("phase");
        do {
            const std::string tag =
                "r" + std::to_string(rounds.size());
            auto rs = tr.span("round", tag);
            std::vector<std::unique_ptr<core::Simulation>> sims;
            for (std::size_t i = 0; i < seeds.size(); ++i) {
                sims.push_back(restoreWarm(
                    w, warm[i], tr, "s" + std::to_string(i) + "." + tag));
                if (rounds.empty())
                    out.rec("base")
                        .u64("seed", seeds[i])
                        .dump("stats", sims[i]->statsRegistry().dump())
                        .end();
            }
            const double t0 = sinceStart();
            std::vector<core::RunResult> results;
            std::vector<double> cpts;
            for (std::size_t i = 0; i < sims.size(); ++i) {
                auto s = tr.span("core.measure",
                                 "s" + std::to_string(i) + "." + tag);
                results.push_back(measureOnce(w, *sims[i], seeds[i]));
                cpts.push_back(results.back().cyclesPerTxn);
            }
            {
                auto s = tr.span("stats.ci", tag);
                answers.push_back(
                    stats::meanConfidenceInterval(cpts, 0.95));
            }
            roundSecs.push_back(sinceStart() - t0);
            rounds.push_back(std::move(results));
        } while (sinceStart() - phaseStart < seconds);
    }

    out.rec("phase_end").u64("maxrss_kb", maxRssKb()).end();
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        for (std::size_t i = 0; i < seeds.size(); ++i)
            writeRun(out, r, seeds[i], w.roundTxns, rounds[r][i]);
        out.rec("round")
            .u64("round", r)
            .num("time_s", roundSecs[r])
            .num("ci_mean", answers[r].mean)
            .num("ci_lo", answers[r].lo)
            .num("ci_hi", answers[r].hi)
            .end();
    }
    warm.clear();

    // Determinism: the first seed again, from construction; its dump
    // must match round 0's bit for bit.
    auto s = tr.span("check.rerun");
    const auto cp = warmCheckpoint(w, seeds[0], tr, "rerun");
    auto again = restoreWarm(w, cp, tr, "rerun");
    core::RunResult res;
    {
        auto m = tr.span("core.measure", "rerun");
        res = measureOnce(w, *again, seeds[0]);
    }
    out.rec("rerun")
        .u64("seed", seeds[0])
        .str("jsonl", res.statsJsonl())
        .str("original", rounds[0][0].statsJsonl())
        .end();
}

/** Full-detail cycles/txn of the sampled workload's first round. */
void
runReference(const std::vector<std::uint64_t> &seeds, Out &out)
{
    SingleWorkload w;
    singleWorkload("apache-sampled", w);
    w.sample.clear();
    Tracer off(false);
    for (std::uint64_t seed : seeds) {
        auto simn = restoreWarm(w, warmCheckpoint(w, seed, off, ""), off,
                                "");
        const auto r = measureOnce(w, *simn, seed);
        out.rec("reference")
            .u64("seed", seed)
            .num("cpt", r.cyclesPerTxn)
            .u64("txns", r.txns)
            .end();
        std::fprintf(stderr, "reference seed %llu: %.17g\n",
                     static_cast<unsigned long long>(seed),
                     r.cyclesPerTxn);
    }
}

// ---------------------------------------------------------------
// The Table 5 campaign: OLTP on out-of-order CPUs, ROB 32 vs 64.

campaign::CampaignSpec
table5Spec()
{
    campaign::CampaignSpec spec;
    for (std::uint32_t rob : {32u, 64u}) {
        core::SystemConfig sys = ooo(mem::CoherenceProtocol::Snooping);
        sys.cpu.robEntries = rob;
        spec.configs.push_back({"rob-" + std::to_string(rob), sys});
    }
    spec.wl.kind = workload::WorkloadKind::Oltp;
    spec.run.measureTxns = 1000;
    spec.numCheckpoints = 1;
    spec.checkpointStep = 500;
    spec.baseSeed = 2000;
    spec.stop.pilotRuns = 6;
    spec.stop.maxRuns = 32;
    spec.stop.alpha = 0.05;
    spec.stop.relativeError = 0.02;
    spec.stop.confidence = 0.95;
    return spec;
}

std::uint64_t
bytesUnder(const std::filesystem::path &dir)
{
    std::uint64_t n = 0;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            n += e.file_size();
    return n;
}

/** The library entry of config @p c (its key rebuilt and matched). */
ckpt::CheckpointKey
libraryKey(ckpt::CheckpointLibrary &lib,
           const campaign::CampaignSpec &spec, std::size_t c)
{
    for (const auto &e : lib.entries()) {
        ckpt::CheckpointKey key;
        key.sys = spec.configs[c].sys;
        key.wl = spec.wl;
        key.warmupSeed = e.warmupSeed;
        key.position = e.position;
        if (key.digestHex() == e.digestHex)
            return key;
    }
    throw std::runtime_error("no library checkpoint for " +
                             spec.configs[c].name);
}

void
runCampaignWorkload(double seconds, const std::string &workdir,
                    Tracer &tr, Out &out)
{
    namespace fs = std::filesystem;
    const campaign::CampaignSpec spec = table5Spec();
    campaign::CampaignOptions opt;
    opt.hostThreads = 2;
    opt.ckptDir = (fs::path(workdir) / "library").string();

    campaign::WarmupResult warm;
    {
        auto s = tr.span("setup");
        auto w = tr.span("ckpt.warm");
        warm = campaign::warmCampaignCheckpoints(spec, opt);
    }
    out.rec("setup").num("setup_s", sinceStart())
        .u64("library_bytes", warm.libraryBytes)
        .end();

    std::vector<std::string> dirs;
    std::vector<campaign::CampaignOutcome> outcomes;
    std::vector<std::string> reports;
    std::vector<double> roundSecs;
    const double phaseStart = sinceStart();
    {
        auto ph = tr.span("phase");
        do {
            const std::string tag =
                "r" + std::to_string(dirs.size());
            dirs.push_back((fs::path(workdir) / tag).string());
            auto rs = tr.span("round", tag);
            const double t0 = sinceStart();
            {
                auto s = tr.span("campaign.run", tag);
                outcomes.push_back(
                    campaign::runCampaign(spec, dirs.back(), opt));
            }
            {
                auto s = tr.span("campaign.report", tag);
                reports.push_back(
                    campaign::campaignReport(dirs.back()).text);
            }
            roundSecs.push_back(sinceStart() - t0);
        } while (sinceStart() - phaseStart < seconds);
    }
    out.rec("phase_end").u64("maxrss_kb", maxRssKb()).end();
    for (std::size_t r = 0; r < dirs.size(); ++r) {
        const auto &o = outcomes[r];
        std::ostringstream exp;
        campaign::ResultStore::openReadOnly(dirs[r])->exportJsonl(exp);
        out.rec("camp")
            .u64("round", r)
            .num("time_s", roundSecs[r])
            .u64("runs_executed", o.runsExecuted)
            .u64("runs_recorded", o.runsRecorded)
            .u64("complete", o.complete ? 1 : 0)
            .u64("store_bytes", bytesUnder(dirs[r]))
            .u64("measure_txns", spec.run.measureTxns)
            .str("report", reports[r])
            .str("export", exp.str())
            .end();
    }

    // A finished store: a second invocation runs nothing and the
    // report does not change.
    {
        auto s = tr.span("check.resume");
        campaign::CampaignOutcome again;
        {
            auto c = tr.span("campaign.run", "resume");
            again = campaign::runCampaign(spec, dirs.back(), opt);
        }
        std::string text;
        {
            auto c = tr.span("campaign.report", "resume");
            text = campaign::campaignReport(dirs.back()).text;
        }
        out.rec("resume")
            .u64("runs_executed", again.runsExecuted)
            .str("report", text)
            .str("original", reports.back())
            .end();
    }

    // Group 0's run 0, restored from the library and from an
    // in-memory warm-up; each config's checkpoint-time registry gives
    // the baseline for per-run counter deltas.
    auto s = tr.span("check.restore");
    auto lib = ckpt::CheckpointLibrary::open(opt.ckptDir);
    core::RunConfig rc = spec.run;
    rc.warmupTxns = 0;
    for (std::size_t c = 0; c < spec.configs.size(); ++c) {
        const ckpt::CheckpointKey key = libraryKey(*lib, spec, c);
        const std::size_t group = spec.groupIndex(c, 0);
        rc.perturbSeed = spec.groupSeed(group, 0);
        std::unique_ptr<core::Simulation> restored;
        {
            const std::string tag = "g" + std::to_string(group);
            auto r = tr.span("ckpt.restore", tag);
            core::Checkpoint cp;
            {
                auto f = tr.span("ckpt.fetch", tag);
                if (!lib->fetch(key, cp))
                    throw std::runtime_error("library fetch failed");
            }
            auto rs = tr.span("core.restore", tag);
            restored = core::Simulation::restore(spec.configs[c].sys,
                                                 spec.wl, cp);
        }
        const auto base = restored->statsRegistry().dump();
        restored->seedPerturbation(rc.perturbSeed);
        core::RunResult fromLib;
        {
            auto m = tr.span("core.measure",
                             "g" + std::to_string(group) + ".lib");
            fromLib = core::measure(*restored, rc, kCpus);
        }
        out.rec("ckpt_base").u64("group", group).dump("stats", base).end();
        if (c != 0)
            continue;

        std::unique_ptr<core::Simulation> warmer;
        {
            auto w = tr.span("core.construct", "inmem");
            warmer = std::make_unique<core::Simulation>(
                spec.configs[c].sys, spec.wl);
            warmer->seedPerturbation(key.warmupSeed);
        }
        {
            auto w = tr.span("core.warmup", "inmem");
            warmer->runTransactions(key.position);
        }
        const core::Checkpoint cp = warmer->checkpoint();
        auto inMem =
            core::Simulation::restore(spec.configs[c].sys, spec.wl, cp);
        inMem->seedPerturbation(rc.perturbSeed);
        core::RunResult fromMem;
        {
            auto m = tr.span("core.measure", "inmem");
            fromMem = core::measure(*inMem, rc, kCpus);
        }
        out.rec("restore")
            .u64("group", group)
            .u64("seed", rc.perturbSeed)
            .num("cpt_library", fromLib.cyclesPerTxn)
            .num("cpt_memory", fromMem.cyclesPerTxn)
            .str("jsonl_library", fromLib.statsJsonl())
            .str("jsonl_memory", fromMem.statsJsonl())
            .end();
    }
}

// ---------------------------------------------------------------

std::vector<std::uint64_t>
parseSeeds(const std::string &text)
{
    std::vector<std::uint64_t> seeds;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        seeds.push_back(std::stoull(item));
    return seeds;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "varsim_bench: %s\n", msg);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workloadName, outPath, tracePath, workdir = ".";
    std::vector<std::uint64_t> seeds;
    double seconds = 0.0;
    bool reference = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workloadName = next();
        else if (a == "--seeds")
            seeds = parseSeeds(next());
        else if (a == "--seconds")
            seconds = std::stod(next());
        else if (a == "--out")
            outPath = next();
        else if (a == "--trace")
            tracePath = next();
        else if (a == "--workdir")
            workdir = next();
        else if (a == "--reference")
            reference = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (outPath.empty())
        usage("--out is required");

    try {
        Out out(outPath);
        if (reference) {
            if (seeds.empty())
                usage("--reference needs --seeds");
            runReference(seeds, out);
            return 0;
        }
        Tracer tr(!tracePath.empty());
        SingleWorkload w;
        if (workloadName == "table5-campaign") {
            runCampaignWorkload(seconds, workdir, tr, out);
        } else if (singleWorkload(workloadName, w)) {
            if (seeds.size() < 2)
                usage("a single-configuration workload needs >= 2 seeds");
            runSingle(w, seeds, seconds, tr, out);
        } else {
            usage(("unknown workload " + workloadName).c_str());
        }
        if (!tracePath.empty())
            tr.write(tracePath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "varsim_bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
