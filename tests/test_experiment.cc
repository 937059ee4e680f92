/** @file Tests for the declarative ExperimentBuilder: cross-product
 *  expansion, deterministic ordering, base-config seeding (the old
 *  bench_util footgun), and RunSpec hashing. */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "exp/experiment.h"

namespace smartinf::exp {
namespace {

using train::ModelSpec;
using train::Strategy;

TEST(ExperimentBuilder, SingleAxisDefaultsToOneSpec)
{
    const auto specs =
        ExperimentBuilder().model(ModelSpec::gpt2(1.0)).build();
    ASSERT_EQ(specs.size(), 1u);
    const auto &sys = specs[0].system;
    const train::SystemConfig defaults;
    EXPECT_EQ(sys.strategy, defaults.strategy);
    EXPECT_EQ(sys.num_devices, defaults.num_devices);
    EXPECT_EQ(sys.num_nodes, defaults.num_nodes);
}

TEST(ExperimentBuilder, ExpandsTheCrossProduct)
{
    ExperimentBuilder b;
    b.models({ModelSpec::gpt2(1.0), ModelSpec::bert(0.34)})
        .strategies({Strategy::Baseline, Strategy::SmartUpdateOpt})
        .devices({2, 6, 10})
        .nodes({1, 2});
    EXPECT_EQ(b.size(), 2u * 2u * 3u * 2u);
    const auto specs = b.build();
    ASSERT_EQ(specs.size(), b.size());

    // Every combination appears exactly once.
    std::set<std::tuple<std::string, int, int, int>> seen;
    for (const auto &spec : specs)
        seen.insert({spec.model.name,
                     static_cast<int>(spec.system.strategy),
                     spec.system.num_devices, spec.system.num_nodes});
    EXPECT_EQ(seen.size(), specs.size());
}

TEST(ExperimentBuilder, OrderIsDeterministicAndNested)
{
    ExperimentBuilder b;
    b.model(ModelSpec::gpt2(1.0))
        .strategies({Strategy::Baseline, Strategy::SmartUpdateOpt})
        .devices({4, 8});
    const auto specs = b.build();
    ASSERT_EQ(specs.size(), 4u);
    // strategies outer, devices inner.
    EXPECT_EQ(specs[0].system.strategy, Strategy::Baseline);
    EXPECT_EQ(specs[0].system.num_devices, 4);
    EXPECT_EQ(specs[1].system.strategy, Strategy::Baseline);
    EXPECT_EQ(specs[1].system.num_devices, 8);
    EXPECT_EQ(specs[2].system.strategy, Strategy::SmartUpdateOpt);
    EXPECT_EQ(specs[2].system.num_devices, 4);

    const auto again = b.build();
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(specs[i].hash(), again[i].hash());
}

/** Regression for the bench_util::runIteration footgun: helpers that
 *  default-construct the fields they don't parameterize silently drop
 *  caller intent. The builder must carry every base field through. */
TEST(ExperimentBuilder, BaseConfigFieldsSurviveTheSweep)
{
    train::SystemConfig base;
    base.num_nodes = 4;
    base.congested_topology = true;
    base.nic_latency = 42e-6;
    base.overlap_grad_sync = false;
    const auto specs = ExperimentBuilder()
                           .base(base)
                           .model(ModelSpec::gpt2(1.0))
                           .strategies({Strategy::Baseline,
                                        Strategy::SmartUpdateOpt})
                           .devices({2, 6})
                           .build();
    ASSERT_EQ(specs.size(), 4u);
    for (const auto &spec : specs) {
        EXPECT_EQ(spec.system.num_nodes, 4);
        EXPECT_TRUE(spec.system.congested_topology);
        EXPECT_DOUBLE_EQ(spec.system.nic_latency, 42e-6);
        EXPECT_FALSE(spec.system.overlap_grad_sync);
    }
}

TEST(ExperimentBuilder, DeviceRangeIsInclusive)
{
    const auto specs = ExperimentBuilder()
                           .model(ModelSpec::gpt2(1.0))
                           .deviceRange(3, 6)
                           .build();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs.front().system.num_devices, 3);
    EXPECT_EQ(specs.back().system.num_devices, 6);
}

TEST(ExperimentBuilder, NeedsAtLeastOneModel)
{
    EXPECT_THROW(ExperimentBuilder().devices({2}).build(),
                 std::runtime_error);
}

TEST(RunSpecHash, EqualSpecsHashEqually)
{
    RunSpec a, b;
    a.model = b.model = ModelSpec::gpt2(4.0);
    a.label = "first";
    b.label = "second"; // labels must not affect the hash
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(RunSpecHash, ResultAffectingFieldsChangeTheHash)
{
    RunSpec base;
    base.model = ModelSpec::gpt2(4.0);

    auto hash_with = [&](auto mutate) {
        RunSpec spec = base;
        mutate(spec);
        return spec.hash();
    };
    const auto h0 = base.hash();
    EXPECT_NE(h0, hash_with([](RunSpec &s) { s.system.num_devices = 7; }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) { s.system.num_nodes = 2; }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) {
                  s.system.strategy = Strategy::SmartUpdateOpt;
              }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) { s.train.batch_size = 8; }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) {
                  s.system.calib.fpga_dram_usable = 0.2;
              }));
    EXPECT_NE(h0, hash_with([](RunSpec &s) {
                  s.model = ModelSpec::gpt2(8.4);
              }));
}

TEST(RunSpecHash, NormalizesFieldsThatCannotAffectTheResult)
{
    // The compression ratio only matters under SU+O+C, and NIC/overlap
    // fields only matter with more than one node — shared baselines across
    // figure sweeps must land on one cache entry.
    RunSpec a, b;
    a.model = b.model = ModelSpec::gpt2(4.0);
    a.system.compression_wire_fraction = 0.02;
    b.system.compression_wire_fraction = 0.10;
    EXPECT_EQ(a.hash(), b.hash());

    a.system.strategy = b.system.strategy = Strategy::SmartUpdateOptComp;
    EXPECT_NE(a.hash(), b.hash());

    RunSpec c, d;
    c.model = d.model = ModelSpec::gpt2(4.0);
    c.system.overlap_grad_sync = true;
    d.system.overlap_grad_sync = false;
    EXPECT_EQ(c.hash(), d.hash()); // num_nodes == 1: no sync at all
    c.system.num_nodes = d.system.num_nodes = 2;
    EXPECT_NE(c.hash(), d.hash());
}

TEST(ExperimentBuilder, ServingAxesSweepTheServeConfig)
{
    serve::ServeConfig config;
    const auto specs = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.5))
                           .serving(config)
                           .schedulers(serve::allSchedulerPolicies())
                           .maxBatches({1, 8})
                           .build();
    ASSERT_EQ(specs.size(), 4u);
    for (const auto &spec : specs)
        EXPECT_EQ(spec.workload, train::WorkloadKind::Serving);
    EXPECT_EQ(specs[0].serve.scheduler, serve::SchedulerPolicy::Fifo);
    EXPECT_EQ(specs[0].serve.max_batch, 1);
    EXPECT_EQ(specs[3].serve.scheduler, serve::SchedulerPolicy::Continuous);
    EXPECT_EQ(specs[3].serve.max_batch, 8);
}

TEST(ExperimentBuilder, ServingAxesOnATrainingSweepAreFatal)
{
    // The hash normalizes serving knobs out of training runs, so such a
    // sweep would emit duplicate specs — build() refuses instead.
    auto builder = ExperimentBuilder()
                       .model(ModelSpec::gpt2(0.5))
                       .arrivalRates({0.1, 0.2});
    EXPECT_THROW(builder.build(), std::runtime_error);
}

TEST(ExperimentBuilder, ModeGatedAxesNeedTheirModeEnabled)
{
    // Same duplicate-hash failure mode per axis: concurrency is
    // normalized out of open-loop specs and the KV budgets out of
    // kv-disabled specs, so sweeping them without the enabling mode
    // would hand back one aliased cached result per row.
    serve::ServeConfig open_loop;
    auto closed_axis = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.5))
                           .serving(open_loop)
                           .concurrencies({1, 2, 4});
    EXPECT_THROW(closed_axis.build(), std::runtime_error);

    auto kv_axis = ExperimentBuilder()
                       .model(ModelSpec::gpt2(0.5))
                       .serving(open_loop)
                       .hbmBudgets({GiB(1.0), GiB(4.0)});
    EXPECT_THROW(kv_axis.build(), std::runtime_error);

    // The refusal names the setter whose knob the canonical echo drops.
    auto expectRefusal = [](const ExperimentBuilder &builder,
                            const std::string &setter) {
        try {
            builder.build();
            ADD_FAILURE() << setter << " axis built without a refusal";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(setter + "()"),
                      std::string::npos)
                << e.what();
        }
    };
    expectRefusal(closed_axis, "concurrencies");
    expectRefusal(kv_axis, "hbmBudgets");

    // The paged allocator's shape is inert on the contiguous layout, the
    // dispatch policy and admission mode while ctrl is off, and the SLO
    // target while admission is Off.
    serve::ServeConfig contiguous = open_loop;
    contiguous.kv.enabled = true;
    expectRefusal(ExperimentBuilder()
                      .model(ModelSpec::gpt2(0.5))
                      .serving(contiguous)
                      .blockTokens({16, 32}),
                  "blockTokens");
    expectRefusal(ExperimentBuilder()
                      .model(ModelSpec::gpt2(0.5))
                      .serving(contiguous)
                      .prefixShareFractions({0.0, 0.5}),
                  "prefixShareFractions");
    expectRefusal(ExperimentBuilder()
                      .model(ModelSpec::gpt2(0.5))
                      .serving(open_loop)
                      .dispatchPolicies(ctrl::allDispatchPolicies()),
                  "dispatchPolicies");
    expectRefusal(ExperimentBuilder()
                      .model(ModelSpec::gpt2(0.5))
                      .serving(open_loop)
                      .admissionModes(ctrl::allAdmissionModes()),
                  "admissionModes");
    serve::ServeConfig ctrl_on = open_loop;
    ctrl_on.ctrl.enabled = true;
    expectRefusal(ExperimentBuilder()
                      .model(ModelSpec::gpt2(0.5))
                      .serving(ctrl_on)
                      .sloTargets({1.0, 2.0}),
                  "sloTargets");

    // With the modes enabled both axes expand normally.
    serve::ServeConfig closed = open_loop;
    closed.client_mode = serve::ClientMode::ClosedLoop;
    EXPECT_EQ(ExperimentBuilder()
                  .model(ModelSpec::gpt2(0.5))
                  .serving(closed)
                  .concurrencies({1, 2, 4})
                  .build()
                  .size(),
              3u);
    serve::ServeConfig kv = open_loop;
    kv.kv.enabled = true;
    EXPECT_EQ(ExperimentBuilder()
                  .model(ModelSpec::gpt2(0.5))
                  .serving(kv)
                  .hbmBudgets({GiB(1.0), GiB(4.0)})
                  .build()
                  .size(),
              2u);
}

TEST(ExperimentBuilder, AnAxisNeedsToBeLiveForOneSpecOnly)
{
    // The ratio is inert under BASE but shapes SU+O+C: the sweep expands
    // fully and the two BASE rows share one cache entry.
    const auto specs =
        ExperimentBuilder()
            .model(ModelSpec::gpt2(1.0))
            .strategies({Strategy::Baseline, Strategy::SmartUpdateOptComp})
            .compressionFractions({0.1, 0.05})
            .build();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].system.strategy, Strategy::Baseline);
    EXPECT_EQ(specs[1].system.strategy, Strategy::Baseline);
    EXPECT_EQ(specs[0].hash(), specs[1].hash());
    EXPECT_NE(specs[2].hash(), specs[3].hash());

    // A single-valued axis cannot alias two specs, inert or not.
    EXPECT_EQ(ExperimentBuilder()
                  .model(ModelSpec::gpt2(0.5))
                  .arrivalRates({0.1})
                  .build()
                  .size(),
              1u);
}

TEST(ExperimentBuilder, NestingOrderIgnoresCallOrder)
{
    const auto devices_first =
        ExperimentBuilder()
            .model(ModelSpec::gpt2(1.0))
            .devices({4, 8})
            .strategies({Strategy::Baseline, Strategy::SmartUpdateOpt})
            .build();
    const auto strategies_first =
        ExperimentBuilder()
            .model(ModelSpec::gpt2(1.0))
            .strategies({Strategy::Baseline, Strategy::SmartUpdateOpt})
            .devices({4, 8})
            .build();
    ASSERT_EQ(devices_first.size(), strategies_first.size());
    for (std::size_t i = 0; i < devices_first.size(); ++i) {
        EXPECT_EQ(devices_first[i].hash(), strategies_first[i].hash());
        EXPECT_EQ(devices_first[i].label, strategies_first[i].label);
    }
    // strategies outer, devices inner, as documented.
    EXPECT_EQ(devices_first[1].system.strategy, Strategy::Baseline);
    EXPECT_EQ(devices_first[1].system.num_devices, 8);
}

TEST(ExperimentBuilder, AdmissionWithoutATargetFailsAtRunTime)
{
    // Ctrl on makes the admission axis live, so build() expands it; the
    // missing SLO target is ServeConfig::validate()'s to report.
    serve::ServeConfig config;
    config.ctrl.enabled = true;
    const auto specs = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.5))
                           .serving(config)
                           .admissionModes({ctrl::AdmissionMode::Off,
                                            ctrl::AdmissionMode::Reject})
                           .build();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_TRUE(specs[0].serve.validate().empty());
    EXPECT_FALSE(specs[1].serve.validate().empty());
}

TEST(ExperimentBuilder, FaultAxesSweepTheFaultConfig)
{
    fault::FaultConfig base;
    base.enabled = true;
    base.node_mtbf = 300.0;
    const auto specs = ExperimentBuilder()
                           .model(ModelSpec::gpt2(0.5))
                           .faults(base)
                           .mtbfs({120.0, 300.0})
                           .checkpointIntervals({1, 2, 4})
                           .build();
    ASSERT_EQ(specs.size(), 6u);
    // mtbfs outer, checkpointIntervals inner; the base survives.
    EXPECT_DOUBLE_EQ(specs[0].fault.node_mtbf, 120.0);
    EXPECT_EQ(specs[0].fault.checkpoint_interval, 1);
    EXPECT_EQ(specs[2].fault.checkpoint_interval, 4);
    EXPECT_DOUBLE_EQ(specs[3].fault.node_mtbf, 300.0);
    for (const auto &spec : specs)
        EXPECT_TRUE(spec.fault.enabled);

    // Every combination lands on its own cache entry.
    std::set<std::uint64_t> hashes;
    for (const auto &spec : specs)
        hashes.insert(spec.hash());
    EXPECT_EQ(hashes.size(), specs.size());
}

TEST(ExperimentBuilder, FaultAxesNeedTheirModeEnabled)
{
    // Fault axes without an enabled fault base would expand to aliased
    // duplicates (the hash normalizes everything out while disabled).
    auto no_base = ExperimentBuilder()
                       .model(ModelSpec::gpt2(0.5))
                       .mtbfs({120.0, 300.0});
    EXPECT_THROW(no_base.build(), std::runtime_error);

    fault::FaultConfig enabled;
    enabled.enabled = true;

    // checkpointIntervals is training-only (serving normalizes it out).
    auto ckpt_on_serving = ExperimentBuilder()
                               .model(ModelSpec::gpt2(0.5))
                               .serving(serve::ServeConfig{})
                               .faults(enabled)
                               .checkpointIntervals({1, 2});
    EXPECT_THROW(ckpt_on_serving.build(), std::runtime_error);

    // retryPolicies needs a serving sweep with an armed crash process.
    auto retry_on_training = ExperimentBuilder()
                                 .model(ModelSpec::gpt2(0.5))
                                 .faults(enabled)
                                 .retryPolicies({1, 3});
    EXPECT_THROW(retry_on_training.build(), std::runtime_error);
    auto retry_unarmed = ExperimentBuilder()
                             .model(ModelSpec::gpt2(0.5))
                             .serving(serve::ServeConfig{})
                             .faults(enabled)
                             .retryPolicies({1, 3});
    EXPECT_THROW(retry_unarmed.build(), std::runtime_error);

    // The mtbfs() axis itself arms the crash process for retryPolicies.
    EXPECT_EQ(ExperimentBuilder()
                  .model(ModelSpec::gpt2(0.5))
                  .serving(serve::ServeConfig{})
                  .faults(enabled)
                  .mtbfs({120.0})
                  .retryPolicies({1, 3})
                  .build()
                  .size(),
              2u);
}

TEST(RunSpec, DescribeNamesTheInterestingFields)
{
    RunSpec spec;
    spec.model = ModelSpec::gpt2(4.0);
    spec.system.strategy = Strategy::SmartUpdateOpt;
    spec.system.num_devices = 8;
    spec.system.num_nodes = 4;
    const auto text = spec.describe();
    EXPECT_NE(text.find("SU+O"), std::string::npos);
    EXPECT_NE(text.find("d8"), std::string::npos);
    EXPECT_NE(text.find("n4"), std::string::npos);
}

} // namespace
} // namespace smartinf::exp
