/**
 * @file
 * The pin table: every tracked engine case's exact discrete-event count and
 * exact simulated seconds. Both are simulated facts, so a change to either
 * for an unchanged configuration is a correctness regression in the
 * SmartUpdate, handler, compression, network or serving model — never a
 * perf delta. Each row runs twice: once plain, and once under a full
 * obs::Observation (timeline + counters), which must land on the identical
 * pins because observers are witnesses only.
 *
 * `sim_seconds` is written as a hex-float literal (the exact bits); the
 * decimal string beside it is the value BENCH_PR12.json printed, and the
 * literal must round to it. `serve_stream_100k` is pinned in
 * test_serve_stream_stress.cc, which already runs that configuration.
 * `ablation_compression` runs no engine, so it has nothing to pin.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "common/logging.h"
#include "exp/scenario.h"
#include "obs/observation.h"
#include "serve/inference_workload.h"
#include "train/engine.h"

namespace smartinf {
namespace {

/** What one execution of a case produced, summed over its engine runs. */
struct CaseStats {
    std::uint64_t events = 0;
    double sim_seconds = 0.0;
    int runs = 0;
};

/** A registered scenario, serial and cache-less so every run executes;
 *  events and iteration times are summed in record order. */
CaseStats
scenarioCase(const char *name)
{
    exp::registerBuiltinScenarios();
    const auto *scenario = exp::ScenarioRegistry::instance().find(name);
    SI_REQUIRE(scenario != nullptr, "unknown scenario ", name);
    exp::SweepRunner::Options options;
    options.jobs = 1;
    options.cache = false;
    exp::SweepRunner runner(options);
    exp::ScenarioContext ctx{runner};

    CaseStats stats;
    for (const auto &rec : scenario->run(ctx).records) {
        stats.events += rec.result.events_executed;
        stats.sim_seconds += rec.result.iteration_time;
        ++stats.runs;
    }
    return stats;
}

/** scaleout_n<nodes>: one GPT-2 4B SU+O iteration, 8 CSDs per node. */
CaseStats
scaleoutCase(int nodes)
{
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOpt;
    system.num_devices = 8;
    system.num_nodes = nodes;
    auto engine = train::makeEngine(train::ModelSpec::gpt2(4.0), {}, system);
    const auto result = engine->runIteration();
    return {result.events_executed, result.iteration_time, 1};
}

/** The serving cases' shared base: GPT-2 4B on 6 SU+O+C CSDs per node,
 *  continuous batching, 256-token prompts and 16-token outputs. */
struct ServeCase {
    train::SystemConfig system;
    serve::ServeConfig config;

    explicit ServeCase(int num_requests)
    {
        system.strategy = train::Strategy::SmartUpdateOptComp;
        system.num_devices = 6;
        config.scheduler = serve::SchedulerPolicy::Continuous;
        config.num_requests = num_requests;
        config.arrival_rate = 0.25;
        config.prompt_tokens = 256;
        config.output_tokens = 16;
        config.max_batch = 8;
    }

    /** Ragged lognormal outputs and tight KV budgets: every decode step
     *  issues spill flows on top of the parameter stream. */
    ServeCase &kvHeavy()
    {
        config.output_lengths.kind = serve::LengthDistKind::Lognormal;
        config.output_lengths.log_mean = 3.5; // median ~33 tokens
        config.output_lengths.log_sigma = 0.7;
        config.output_lengths.min_tokens = 8;
        config.output_lengths.max_tokens = 128;
        config.kv.enabled = true;
        config.kv.hbm_budget = GiB(0.25);
        config.kv.host_budget = GiB(0.5);
        return *this;
    }

    CaseStats run() const
    {
        const auto model = train::ModelSpec::gpt2(4.0);
        auto engine = train::makeEngine(model, {}, system);
        serve::InferenceWorkload workload(model, config);
        const auto result = engine->run(workload);
        return {result.events_executed, result.iteration_time, 1};
    }
};

CaseStats
pagedCase()
{
    // The KV-heavy stream on 16-token pages; half the requests share one
    // of two 200-token prefixes.
    ServeCase c(24);
    c.kvHeavy();
    c.config.kv.layout = serve::KvLayout::Paged;
    c.config.kv.block_tokens = 16;
    c.config.kv.prefix.share_fraction = 0.5;
    c.config.kv.prefix.num_prefixes = 2;
    c.config.kv.prefix.prefix_tokens = 200;
    return c.run();
}

CaseStats
failoverCase()
{
    // Replica crashes and link degradation over two nodes: drain, retry,
    // shed and degraded-link recomputes.
    ServeCase c(24);
    c.system.num_nodes = 2;
    c.config.fault.enabled = true;
    c.config.fault.node_mtbf = 20.0;
    c.config.fault.degrade_mtbf = 40.0;
    c.config.fault.repair_time = 15.0;
    c.config.fault.horizon = 300.0;
    return c.run();
}

CaseStats
autoscaleCase()
{
    // The control plane over three nodes: JSQ dispatch, loose SLO
    // admission and queue-driven autoscaling with warm-up prefills.
    ServeCase c(24);
    c.system.num_nodes = 3;
    c.config.arrival_rate = 0.5; // bursty enough to trip the scaler
    c.config.max_batch = 2;
    auto &plane = c.config.ctrl;
    plane.enabled = true;
    plane.policy = ctrl::DispatchPolicy::JoinShortestQueue;
    plane.slo.admission = ctrl::AdmissionMode::Reject;
    plane.slo.target_p99_s = 120.0; // loose: admit everything
    plane.autoscale.enabled = true;
    plane.autoscale.min_replicas = 1;
    plane.autoscale.max_replicas = 3;
    plane.autoscale.window_s = 5.0;
    plane.autoscale.cooldown_s = 10.0;
    plane.autoscale.scale_up_depth = 1.5;
    plane.autoscale.scale_down_depth = 0.25;
    return c.run();
}

struct Pin {
    const char *name;
    CaseStats (*run)();
    std::uint64_t events;
    double sim_seconds;
    const char *bench_pr12; ///< BENCH_PR12.json's printed sim_seconds
};

void
PrintTo(const Pin &pin, std::ostream *os)
{
    *os << pin.name;
}

const Pin kPins[] = {
    {"fig09", [] { return scenarioCase("fig09"); }, 43030,
     0x1.44ebdd8218181p+9, "649.842697"},
    {"fig11", [] { return scenarioCase("fig11"); }, 41724,
     0x1.8179399c55e96p+9, "770.947071"},
    {"scaleout_n4", [] { return scaleoutCase(4); }, 4589,
     0x1.e3cd2db01d199p+3, "15.118796"},
    {"scaleout_n16", [] { return scaleoutCase(16); }, 41957,
     0x1.01e6da01babf4p+4, "16.118860"},
    {"serve_smart_16req", [] { return ServeCase(16).run(); }, 46498,
     0x1.636de210b71c7p+6, "88.857308"},
    {"serve_kv_24req", [] { return ServeCase(24).kvHeavy().run(); }, 87760,
     0x1.2adf3b8becc79p+7, "149.436001"},
    {"serve_paged_24req", pagedCase, 88007, 0x1.2b469e8c67456p+7,
     "149.637928"},
    {"serve_failover_24req", failoverCase, 86706, 0x1.c4d790cec69ffp+6,
     "113.210513"},
    {"serve_autoscale_24req", autoscaleCase, 81289, 0x1.f877434693da5p+5,
     "63.058234"},
};

class PinTable : public ::testing::TestWithParam<Pin> {};

TEST_P(PinTable, Plain)
{
    const Pin &pin = GetParam();
    char printed[32];
    std::snprintf(printed, sizeof printed, "%.6f", pin.sim_seconds);
    EXPECT_STREQ(printed, pin.bench_pr12) << "the hex literal is mistyped";

    const CaseStats got = pin.run();
    EXPECT_EQ(got.events, pin.events);
    EXPECT_EQ(got.sim_seconds, pin.sim_seconds);
}

TEST_P(PinTable, UnderFullObservation)
{
    const Pin &pin = GetParam();
    obs::Observation observation({});
    observation.install();
    const CaseStats got = pin.run();
    observation.uninstall();

    EXPECT_EQ(got.events, pin.events);
    EXPECT_EQ(got.sim_seconds, pin.sim_seconds);
    EXPECT_EQ(observation.runsRecorded(), got.runs);
    EXPECT_GT(observation.trace().eventCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Tracked, PinTable, ::testing::ValuesIn(kPins),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

} // namespace
} // namespace smartinf
