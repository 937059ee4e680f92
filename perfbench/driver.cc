/**
 * @file
 * Measurement driver of the repo benchmark (perfbench/run.py builds and
 * runs it). One process measures one sample: it times the benchmark's own
 * calls into the simulator's public entry points — train::makeEngine,
 * Engine::run, Scenario::run through one SweepRunner — and prints one JSON
 * document with the sample's spans and a fingerprint of its simulated
 * outputs. run.py runs it repeatedly, checks the fingerprints and computes
 * the reported medians; this file only measures.
 *
 *   perfbench_driver --workload NAME --seed N --trace 0|1 [--setup-only]
 *                    [--cpu K]
 *
 * --cpu pins the process to CPU K rather than to the CPU it starts on.
 *
 * A fresh process per sample makes every sample pay what one invocation
 * of the simulator pays (static registration, table4's pretraining
 * checkpoint cache, first-touch page faults) and inherit no heap or cache
 * state from another. With --trace 1 the body runs with obs::Profiler
 * switched on through its public enable()/reset(); the profiler's sections
 * are inclusive and nest, so they are reported as read, never summed.
 */
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "exp/scenario.h"
#include "obs/profiler.h"
#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "train/engine.h"
#include "train/training_workload.h"

using namespace smartinf;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CPU seconds of the whole process (every thread). */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Resident high-water mark of this process's own address space (VmHWM).
 * getrusage's ru_maxrss is not used: it also keeps the parent's resident
 * size from before exec when the parent forked rather than vforked, so it
 * would depend on how run.py starts the driver.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6)); // KiB
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return usage.ru_maxrss; // KiB on Linux.
}

/** A number as JSON with every digit (round-trips a double exactly). */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Ordered name -> JSON literal map (fingerprints, layer metrics). */
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string
object(const Fields &fields)
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i)
        out += (i ? ", " : "") + str(fields[i].first) + ": " +
               fields[i].second;
    return out + "}";
}

/** 64-bit FNV-1a (digest of rendered scenario output). */
std::string
digest(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return str(buf);
}

constexpr double kGB = 1e9;

/**
 * One benchmark workload: setup() builds everything the timed body needs,
 * run() is the timed body, collect() turns the outputs into the checked
 * fingerprint, teardown() frees it all outside every timed span. layers()
 * adds the simulated decision counts of the last run (exact, pinned by the
 * fingerprint too).
 */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;
    virtual void setup() = 0;
    virtual void run() = 0;
    virtual Fields collect() = 0;
    virtual void teardown() = 0;
    virtual void layers(Fields &out) const = 0;
};

/** A single engine run: makeEngine + one workload through Engine::run. */
class EngineBench : public BenchWorkload
{
  public:
    EngineBench(train::ModelSpec model, train::SystemConfig system,
                std::optional<serve::ServeConfig> serve)
        : model_(std::move(model)), system_(system), serve_(std::move(serve))
    {
    }

    void
    setup() override
    {
        engine_ = train::makeEngine(model_, {}, system_);
        if (serve_)
            workload_ =
                std::make_unique<serve::InferenceWorkload>(model_, *serve_);
        else
            workload_ =
                std::make_unique<train::TrainingWorkload>(model_,
                                                          train::TrainConfig{});
    }

    void run() override { result_ = engine_->run(*workload_); }

    Fields
    collect() override
    {
        const train::WorkloadResult &r = result_;
        const train::TrafficLedger &t = r.traffic;
        Fields f = {
            {"events", num(r.events_executed)},
            {"sim_seconds", num(r.iteration_time)},
            {"traffic.shared_opt_read", num(t.shared_opt_read)},
            {"traffic.shared_opt_write", num(t.shared_opt_write)},
            {"traffic.shared_grad_read", num(t.shared_grad_read)},
            {"traffic.shared_grad_write", num(t.shared_grad_write)},
            {"traffic.shared_param_up", num(t.shared_param_up)},
            {"traffic.internal_read", num(t.internal_read)},
            {"traffic.internal_write", num(t.internal_write)},
            {"traffic.internode_tx", num(t.internode_tx)},
            {"traffic.internode_rx", num(t.internode_rx)},
            {"traffic.kv_spill_read", num(t.kv_spill_read)},
            {"traffic.kv_spill_write", num(t.kv_spill_write)},
        };
        if (!serve_)
            return f;

        const serve::ServingMetrics m = serve::summarize(r);
        const train::KvCacheStats &kv = r.kv;
        const train::CtrlStats &c = r.ctrl;
        const Fields serving = {
            {"requests.expected", num(std::uint64_t(serve_->num_requests))},
            {"requests.total", num(std::uint64_t(m.num_requests))},
            {"requests.served", num(std::uint64_t(m.num_served))},
            {"requests.shed", num(std::uint64_t(m.num_shed))},
            {"requests.rejected", num(std::uint64_t(m.num_rejected))},
            {"latency.p50", num(m.latency.p50)},
            {"latency.p95", num(m.latency.p95)},
            {"latency.p99", num(m.latency.p99)},
            {"latency.mean", num(m.latency.mean)},
            {"ttft.p50", num(m.ttft.p50)},
            {"ttft.p99", num(m.ttft.p99)},
            {"queue_delay.p50", num(m.queue_delay.p50)},
            {"queue_delay.p99", num(m.queue_delay.p99)},
            {"peak_queue_depth", num(std::uint64_t(m.peak_queue_depth))},
            {"load_imbalance", num(m.load_imbalance)},
            {"kv.prefix_hits", num(kv.prefix_hits)},
            {"kv.prefix_misses", num(kv.prefix_misses)},
            {"kv.prefix_evictions", num(kv.prefix_evictions)},
            {"kv.cow_copies", num(kv.cow_copies)},
            {"kv.peak_used_blocks", num(std::uint64_t(kv.peak_used_blocks))},
            {"kv.peak_span_blocks", num(std::uint64_t(kv.peak_span_blocks))},
            {"kv.peak_fragmentation", num(kv.peak_fragmentation)},
            {"kv.peak_block_table_bytes", num(kv.peak_block_table_bytes)},
            {"ctrl.rejected", num(std::uint64_t(c.rejected))},
            {"ctrl.deferrals", num(std::uint64_t(c.deferrals))},
            {"ctrl.preemptions", num(std::uint64_t(c.preemptions))},
            {"ctrl.scale_ups", num(std::uint64_t(c.scale_ups))},
            {"ctrl.peak_active_replicas",
             num(std::uint64_t(c.peak_active_replicas))},
        };
        f.insert(f.end(), serving.begin(), serving.end());
        return f;
    }

    void
    teardown() override
    {
        engine_.reset();
        workload_.reset();
        result_ = train::WorkloadResult();
    }

    void
    layers(Fields &out) const override
    {
        const train::WorkloadResult &r = result_;
        const train::TrafficLedger &t = r.traffic;
        const std::uint64_t lookups = r.kv.prefix_hits + r.kv.prefix_misses;
        const bool paged = serve_ && serve_->kv.paged();
        // kv.* and ctrl.* read 0 where the layer is off: hitRate() and
        // peak_fragmentation default to 1 on a run that never paged.
        out.push_back({"kv.prefix_hit_rate",
                       num(lookups ? r.kv.hitRate() : 0.0)});
        out.push_back({"kv.cow_copies", num(r.kv.cow_copies)});
        out.push_back({"kv.peak_fragmentation",
                       num(paged ? r.kv.peak_fragmentation : 0.0)});
        out.push_back({"kv.spill_read_gb", num(t.kv_spill_read / kGB)});
        out.push_back({"kv.spill_write_gb", num(t.kv_spill_write / kGB)});
        out.push_back(
            {"ctrl.load_imbalance",
             num(serve_ && serve_->ctrl.enabled
                     ? serve::summarize(r).load_imbalance
                     : 0.0)});
        out.push_back({"dist.internode_gb", num(t.internodeTotal() / kGB)});
        out.push_back({"train.shared_gb", num(t.sharedTotal() / kGB)});
        out.push_back({"csd.internal_gb",
                       num((t.internal_read + t.internal_write) / kGB)});
    }

  private:
    train::ModelSpec model_;
    train::SystemConfig system_;
    std::optional<serve::ServeConfig> serve_;
    std::unique_ptr<train::Engine> engine_;
    std::unique_ptr<train::Workload> workload_;
    train::WorkloadResult result_;
};

/** The paper figures and tables, in order (fig14 excluded: its table
 *  times 50 ms fixed-deadline loops, so it is neither speed-dependent nor
 *  deterministic). */
const std::vector<std::string> kPaperScenarios = {
    "fig03a", "fig03b", "fig09",  "fig10",  "fig11",
    "fig12",  "fig13",  "fig15",  "fig16",  "fig17",
    "table1", "table3", "table4", "ablation_handler",
    "ablation_compression"};

/** Sweep worker threads for paper_repro (part of the host manifest). */
constexpr int kSweepJobs = 2;

/** Every paper scenario through one cached SweepRunner. */
class PaperReproBench : public BenchWorkload
{
  public:
    void
    setup() override
    {
        exp::registerBuiltinScenarios();
        scenarios_.clear();
        for (const auto &name : kPaperScenarios) {
            const exp::Scenario *s =
                exp::ScenarioRegistry::instance().find(name);
            if (s == nullptr)
                throw std::runtime_error("unknown scenario " + name);
            scenarios_.push_back(s);
        }
        exp::SweepRunner::Options options;
        options.jobs = kSweepJobs;
        options.cache = true;
        runner_ = std::make_unique<exp::SweepRunner>(options);
        results_.assign(scenarios_.size(), {});
        scenario_s_.assign(scenarios_.size(), 0.0);
    }

    void
    run() override
    {
        exp::ScenarioContext ctx{*runner_};
        for (std::size_t i = 0; i < scenarios_.size(); ++i) {
            const auto start = Clock::now();
            results_[i] = scenarios_[i]->run(ctx);
            scenario_s_[i] = since(start);
        }
    }

    Fields
    collect() override
    {
        std::uint64_t events = 0;
        double sim_seconds = 0.0;
        std::unordered_set<std::uint64_t> seen;
        Fields f;
        for (std::size_t i = 0; i < scenarios_.size(); ++i) {
            std::ostringstream text;
            for (const auto &table : results_[i].tables)
                table.print(text);
            for (const auto &note : results_[i].notes)
                text << note << "\n";
            f.push_back({"digest." + scenarios_[i]->name,
                         digest(text.str())});
            for (const auto &rec : results_[i].records) {
                sim_seconds += rec.result.iteration_time;
                // Cache hits hand back an executed run's record again;
                // count each executed run's events once.
                if (seen.insert(rec.spec_hash).second)
                    events += rec.result.events_executed;
            }
        }
        f.push_back({"events", num(events)});
        f.push_back({"sim_seconds", num(sim_seconds)});
        f.push_back({"exp.runs_executed", num(runner_->executedRuns())});
        f.push_back({"exp.cache_hits", num(runner_->cacheHits())});
        return f;
    }

    void
    teardown() override
    {
        runner_.reset();
        results_.clear();
    }

    void
    layers(Fields &out) const override
    {
        const double executed = static_cast<double>(runner_->executedRuns());
        const double hits = static_cast<double>(runner_->cacheHits());
        out.push_back({"exp.runs_executed", num(runner_->executedRuns())});
        out.push_back({"exp.cache_hits", num(runner_->cacheHits())});
        out.push_back({"exp.cache_hit_ratio",
                       num(executed + hits > 0 ? hits / (executed + hits)
                                               : 0.0)});
        for (std::size_t i = 0; i < scenarios_.size(); ++i)
            out.push_back({"exp.scenario." + scenarios_[i]->name + "_s",
                           num(scenario_s_[i])});
    }

  private:
    std::vector<const exp::Scenario *> scenarios_;
    std::unique_ptr<exp::SweepRunner> runner_;
    std::vector<exp::ScenarioResult> results_;
    std::vector<double> scenario_s_;
};

/** Serving seed the program receives: the scenarios' default 0x5eed for
 *  benchmark seed 0, a splitmix64 draw from the seed otherwise. */
std::uint64_t
serveSeed(std::uint64_t seed)
{
    if (seed == 0)
        return 0x5eedu;
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "train_scaleout") {
        // BENCH_PR10's scaleout_n16 engine at 32 nodes: GPT-2 4B, SU+O,
        // 8 CSDs per node, one data-parallel iteration.
        train::SystemConfig system;
        system.strategy = train::Strategy::SmartUpdateOpt;
        system.num_devices = 8;
        system.num_nodes = 32;
        return std::make_unique<EngineBench>(train::ModelSpec::gpt2(4.0),
                                             system, std::nullopt);
    }
    if (name == "serve_stream") {
        // serve_stream_100k's SU+O+C config, cut to 2*10^4 requests.
        train::SystemConfig system;
        system.strategy = train::Strategy::SmartUpdateOptComp;
        system.num_devices = 4;
        serve::ServeConfig config;
        config.scheduler = serve::SchedulerPolicy::Continuous;
        config.num_requests = 20000;
        config.arrival_rate = 8.0;
        config.prompt_tokens = 64;
        config.output_tokens = 4;
        config.max_batch = 8;
        config.record_cap = 4096;
        config.stream_window_s = 60.0;
        config.seed = serveSeed(seed);
        return std::make_unique<EngineBench>(train::ModelSpec::gpt2(0.5),
                                             system, config);
    }
    if (name == "serve_paged_jsq") {
        // Two GPT-2 4B replicas behind JSQ dispatch, paged KV under tight
        // tiers, half the requests sharing one of two 200-token prefixes.
        train::SystemConfig system;
        system.strategy = train::Strategy::SmartUpdateOptComp;
        system.num_devices = 6;
        system.num_nodes = 2;
        serve::ServeConfig config;
        config.scheduler = serve::SchedulerPolicy::Continuous;
        config.num_requests = 2000;
        config.arrival_rate = 0.5;
        config.prompt_tokens = 256;
        config.max_batch = 8;
        config.output_lengths.kind = serve::LengthDistKind::Lognormal;
        config.output_lengths.log_mean = 3.5;
        config.output_lengths.log_sigma = 0.7;
        config.output_lengths.min_tokens = 8;
        config.output_lengths.max_tokens = 128;
        config.kv.enabled = true;
        config.kv.hbm_budget = GiB(0.25);
        config.kv.host_budget = GiB(0.5);
        config.kv.layout = serve::KvLayout::Paged;
        config.kv.block_tokens = 16;
        config.kv.prefix.share_fraction = 0.5;
        config.kv.prefix.num_prefixes = 2;
        config.kv.prefix.prefix_tokens = 200;
        config.ctrl.enabled = true;
        config.ctrl.policy = ctrl::DispatchPolicy::JoinShortestQueue;
        config.record_cap = 4096;
        config.seed = serveSeed(seed);
        return std::make_unique<EngineBench>(train::ModelSpec::gpt2(4.0),
                                             system, config);
    }
    if (name == "paper_repro")
        return std::make_unique<PaperReproBench>();
    return nullptr;
}

/** Spans of one sample; setup + run + collect tile total exactly up to
 *  the cost of the clock reads between them. */
struct Sample {
    double setup_s = 0.0;
    double run_s = 0.0;
    double collect_s = 0.0;
    double total_s = 0.0;
    double cpu_s = 0.0; ///< process CPU seconds during run()
    Fields fingerprint;
    Fields layers; ///< traced samples only
};

/** Copy the profiler's inclusive sections into the per-layer names. */
void
readProfiler(Fields &out)
{
    const auto &prof = obs::Profiler::instance();
    const auto secs = [&](obs::Section s) { return num(prof.seconds(s)); };
    const auto calls = [&](obs::Section s) { return num(prof.calls(s)); };
    const std::uint64_t recomputes = prof.calls(obs::Section::FlowRecompute);
    const std::uint64_t flows = prof.flowsTouched();
    out.push_back({"sim.dispatch_s", secs(obs::Section::EventDispatch)});
    out.push_back({"sim.task_complete_s", secs(obs::Section::TaskComplete)});
    out.push_back(
        {"sim.task_complete_calls", calls(obs::Section::TaskComplete)});
    out.push_back({"sim.task_launches", num(prof.taskLaunches())});
    out.push_back({"net.recompute_s", secs(obs::Section::FlowRecompute)});
    out.push_back({"net.recompute_calls", num(recomputes)});
    out.push_back({"net.flows_touched", num(flows)});
    out.push_back({"net.links_touched", num(prof.linksTouched())});
    out.push_back({"net.flows_per_recompute",
                   num(recomputes ? static_cast<double>(flows) /
                                        static_cast<double>(recomputes)
                                  : 0.0)});
    out.push_back({"net.callbacks_s", secs(obs::Section::FlowCallbacks)});
    out.push_back({"net.callback_calls", calls(obs::Section::FlowCallbacks)});
    out.push_back({"net.flow_retires", num(prof.flowRetires())});
    out.push_back(
        {"serve.scheduler_step_s", secs(obs::Section::SchedulerStep)});
    out.push_back(
        {"serve.scheduler_steps", calls(obs::Section::SchedulerStep)});
}

Sample
runSample(BenchWorkload &w, bool traced, bool profile)
{
    Sample s;
    auto &prof = obs::Profiler::instance();
    const auto start = Clock::now();
    w.setup();
    const auto set = Clock::now();
    if (profile) {
        prof.enable(true);
        prof.reset();
    }
    const double cpu0 = processCpuSeconds();
    w.run();
    s.cpu_s = processCpuSeconds() - cpu0;
    if (profile)
        prof.enable(false);
    const auto ran = Clock::now();
    s.fingerprint = w.collect();
    const auto end = Clock::now();
    s.setup_s = std::chrono::duration<double>(set - start).count();
    s.run_s = std::chrono::duration<double>(ran - set).count();
    s.collect_s = std::chrono::duration<double>(end - ran).count();
    s.total_s = std::chrono::duration<double>(end - start).count();
    if (traced) {
        if (profile)
            readProfiler(s.layers);
        w.layers(s.layers);
    }
    return s;
}

/** Set-up alone (then teardown), @p reps times, appended to @p out. */
void
timeSetups(BenchWorkload &w, int reps, std::vector<double> &out)
{
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        w.setup();
        out.push_back(since(start));
        w.teardown();
    }
}

/** One set-up takes well under a microsecond, so setup_s is the median of
 *  this many set-up-only repetitions per sample, spread over the run like
 *  the samples themselves. */
constexpr int kSetupReps = 25;

std::string
sampleJson(const Sample &s)
{
    Fields f = {{"setup_s", num(s.setup_s)},
                {"run_s", num(s.run_s)},
                {"collect_s", num(s.collect_s)},
                {"total_s", num(s.total_s)},
                {"cpu_s", num(s.cpu_s)},
                {"fingerprint", object(s.fingerprint)}};
    if (!s.layers.empty())
        f.push_back({"layers", object(s.layers)});
    return object(f);
}

/**
 * Pin this process (and the threads it starts) to @p cpu, or to the CPU
 * it runs on if @p cpu is negative. On
 * a shared virtual machine a wakeup handed to another vCPU can wait for
 * the host to schedule it: paper_repro's sweep and transfer-handler
 * threads hand off work thousands of times per sample, and their wall
 * time doubled under host contention while single-threaded workloads
 * moved a few percent. On one CPU the hand-offs stay local.
 */
void
pinToCpu(int cpu)
{
    if (cpu < 0)
        cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

int
usage()
{
    std::cerr << "usage: perfbench_driver --workload NAME --seed N "
                 "--trace 0|1 [--setup-only] [--cpu K]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    int trace = 0;
    bool setup_only = false;
    int cpu = -1;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--setup-only") {
                setup_only = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage();
            const std::string value = argv[++i];
            if (arg == "--workload")
                workload = value;
            else if (arg == "--seed")
                seed = std::stoull(value);
            else if (arg == "--trace")
                trace = std::stoi(value);
            else if (arg == "--cpu")
                cpu = std::stoi(value);
            else
                return usage();
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (trace != 0 && trace != 1)
        return usage();

    try {
        auto w = makeWorkload(workload, seed);
        if (!w) {
            std::cerr << "unknown workload: " << workload << "\n";
            return usage();
        }
        pinToCpu(cpu);
        std::vector<double> setups;
        timeSetups(*w, kSetupReps, setups);
        // obs::Profiler is single-threaded by design; the sweep runs on
        // kSweepJobs threads, so paper_repro's traced samples keep it off
        // and report only the benchmark's own per-scenario spans.
        const bool profile = trace && workload != "paper_repro";
        std::optional<Sample> sample;
        if (!setup_only)
            sample = runSample(*w, trace, profile);

        std::cout << "{\"peak_rss_kb\": " << peakRssKb()
                  << ",\n \"manifest\": "
                  << object({{"compiler", str(PERFBENCH_COMPILER)},
                             {"build_type", str(PERFBENCH_BUILD_TYPE)},
                             {"jobs", num(std::uint64_t(kSweepJobs))},
                             {"flags", str(PERFBENCH_FLAGS)}})
                  << ",\n \"setup_s\": [";
        for (std::size_t i = 0; i < setups.size(); ++i)
            std::cout << (i ? ", " : "") << num(setups[i]);
        std::cout << "]";
        if (sample)
            std::cout << ",\n \"sample\": " << sampleJson(*sample);
        std::cout << "}\n";
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
