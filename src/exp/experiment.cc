#include "exp/experiment.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/logging.h"

namespace smartinf::exp {

namespace {

/** Axis ranks, outermost first: the nesting order of build(). */
enum Rank : int {
    kModels, kTrains, kStrategies, kDevices, kGpus, kNumGpus, kOptimizers,
    kCompressionFractions, kNodes, kOverlapGradSync, kCalibrations,
    kSchedulers, kArrivalRates, kMaxBatches, kWeightWireFractions,
    kOutputTokenCounts, kHbmBudgets, kConcurrencies, kBlockTokens,
    kPrefixShareFractions, kDispatchPolicies, kAdmissionModes, kSloTargets,
    kMtbfs, kCheckpointIntervals, kRetryPolicies, kAxisCount
};

} // namespace

ExperimentBuilder::ExperimentBuilder() : axes_(kAxisCount) {}

template <typename T, typename Write>
ExperimentBuilder &
ExperimentBuilder::sweep(int rank, const char *setter,
                         const std::vector<T> &values, Write write)
{
    Axis &axis = axes_[rank];
    axis.setter = setter;
    axis.values.clear();
    for (const T &v : values)
        axis.values.push_back([write, v](RunSpec &spec) { write(spec, v); });
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::base(const train::SystemConfig &system)
{
    base_ = system;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::train(const train::TrainConfig &tc)
{
    return trains({tc});
}

ExperimentBuilder &
ExperimentBuilder::trains(std::vector<train::TrainConfig> tcs)
{
    return sweep(kTrains, __func__, tcs,
                 [](RunSpec &s, const train::TrainConfig &tc) {
                     s.train = tc;
                 });
}

ExperimentBuilder &
ExperimentBuilder::workload(train::WorkloadKind kind)
{
    workload_ = kind;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::serving(const serve::ServeConfig &config)
{
    workload_ = train::WorkloadKind::Serving;
    serve_base_ = config;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::model(const train::ModelSpec &m)
{
    return models({m});
}

ExperimentBuilder &
ExperimentBuilder::models(std::vector<train::ModelSpec> ms)
{
    return sweep(kModels, __func__, ms,
                 [](RunSpec &s, const train::ModelSpec &m) { s.model = m; });
}

ExperimentBuilder &
ExperimentBuilder::strategy(train::Strategy s)
{
    return strategies({s});
}

ExperimentBuilder &
ExperimentBuilder::strategies(std::vector<train::Strategy> ss)
{
    return sweep(kStrategies, __func__, ss, [](RunSpec &s, train::Strategy v) {
        s.system.strategy = v;
    });
}

ExperimentBuilder &
ExperimentBuilder::devices(int n)
{
    return devices(std::vector<int>{n});
}

ExperimentBuilder &
ExperimentBuilder::devices(std::vector<int> ns)
{
    return sweep(kDevices, __func__, ns,
                 [](RunSpec &s, int n) { s.system.num_devices = n; });
}

ExperimentBuilder &
ExperimentBuilder::deviceRange(int lo, int hi)
{
    SI_REQUIRE(lo >= 1 && hi >= lo, "bad device range");
    std::vector<int> ns;
    for (int n = lo; n <= hi; ++n)
        ns.push_back(n);
    return devices(std::move(ns));
}

ExperimentBuilder &
ExperimentBuilder::gpu(train::GpuGrade g)
{
    return gpus({g});
}

ExperimentBuilder &
ExperimentBuilder::gpus(std::vector<train::GpuGrade> gs)
{
    return sweep(kGpus, __func__, gs,
                 [](RunSpec &s, train::GpuGrade g) { s.system.gpu = g; });
}

ExperimentBuilder &
ExperimentBuilder::numGpus(std::vector<int> ns)
{
    return sweep(kNumGpus, __func__, ns,
                 [](RunSpec &s, int n) { s.system.num_gpus = n; });
}

ExperimentBuilder &
ExperimentBuilder::nodes(int n)
{
    return nodes(std::vector<int>{n});
}

ExperimentBuilder &
ExperimentBuilder::nodes(std::vector<int> ns)
{
    return sweep(kNodes, __func__, ns,
                 [](RunSpec &s, int n) { s.system.num_nodes = n; });
}

ExperimentBuilder &
ExperimentBuilder::optimizers(std::vector<optim::OptimizerKind> ks)
{
    return sweep(kOptimizers, __func__, ks,
                 [](RunSpec &s, optim::OptimizerKind k) {
                     s.system.optimizer = k;
                 });
}

ExperimentBuilder &
ExperimentBuilder::compressionFractions(std::vector<double> fs)
{
    return sweep(kCompressionFractions, __func__, fs, [](RunSpec &s, double f) {
        s.system.compression_wire_fraction = f;
    });
}

ExperimentBuilder &
ExperimentBuilder::overlapGradSync(std::vector<bool> vs)
{
    return sweep(kOverlapGradSync, __func__, vs, [](RunSpec &s, bool v) {
        s.system.overlap_grad_sync = v;
    });
}

ExperimentBuilder &
ExperimentBuilder::calibrations(std::vector<train::Calibration> cs)
{
    return sweep(kCalibrations, __func__, cs,
                 [](RunSpec &s, const train::Calibration &c) {
                     s.system.calib = c;
                 });
}

ExperimentBuilder &
ExperimentBuilder::schedulers(std::vector<serve::SchedulerPolicy> ps)
{
    return sweep(kSchedulers, __func__, ps,
                 [](RunSpec &s, serve::SchedulerPolicy p) {
                     s.serve.scheduler = p;
                 });
}

ExperimentBuilder &
ExperimentBuilder::arrivalRates(std::vector<double> rs)
{
    return sweep(kArrivalRates, __func__, rs,
                 [](RunSpec &s, double r) { s.serve.arrival_rate = r; });
}

ExperimentBuilder &
ExperimentBuilder::maxBatches(std::vector<int> bs)
{
    return sweep(kMaxBatches, __func__, bs,
                 [](RunSpec &s, int b) { s.serve.max_batch = b; });
}

ExperimentBuilder &
ExperimentBuilder::weightWireFractions(std::vector<double> fs)
{
    return sweep(kWeightWireFractions, __func__, fs, [](RunSpec &s, double f) {
        s.serve.weight_wire_fraction = f;
    });
}

ExperimentBuilder &
ExperimentBuilder::outputTokenCounts(std::vector<int> ts)
{
    return sweep(kOutputTokenCounts, __func__, ts,
                 [](RunSpec &s, int t) { s.serve.output_tokens = t; });
}

ExperimentBuilder &
ExperimentBuilder::hbmBudgets(std::vector<double> bs)
{
    return sweep(kHbmBudgets, __func__, bs,
                 [](RunSpec &s, double b) { s.serve.kv.hbm_budget = b; });
}

ExperimentBuilder &
ExperimentBuilder::concurrencies(std::vector<int> cs)
{
    return sweep(kConcurrencies, __func__, cs,
                 [](RunSpec &s, int c) { s.serve.concurrency = c; });
}

ExperimentBuilder &
ExperimentBuilder::blockTokens(std::vector<int> ts)
{
    return sweep(kBlockTokens, __func__, ts,
                 [](RunSpec &s, int t) { s.serve.kv.block_tokens = t; });
}

ExperimentBuilder &
ExperimentBuilder::prefixShareFractions(std::vector<double> fs)
{
    return sweep(kPrefixShareFractions, __func__, fs, [](RunSpec &s, double f) {
        s.serve.kv.prefix.share_fraction = f;
    });
}

ExperimentBuilder &
ExperimentBuilder::dispatchPolicies(std::vector<ctrl::DispatchPolicy> ps)
{
    return sweep(kDispatchPolicies, __func__, ps,
                 [](RunSpec &s, ctrl::DispatchPolicy p) {
                     s.serve.ctrl.policy = p;
                 });
}

ExperimentBuilder &
ExperimentBuilder::admissionModes(std::vector<ctrl::AdmissionMode> ms)
{
    return sweep(kAdmissionModes, __func__, ms,
                 [](RunSpec &s, ctrl::AdmissionMode m) {
                     s.serve.ctrl.slo.admission = m;
                 });
}

ExperimentBuilder &
ExperimentBuilder::sloTargets(std::vector<double> ts)
{
    return sweep(kSloTargets, __func__, ts, [](RunSpec &s, double t) {
        s.serve.ctrl.slo.target_p99_s = t;
    });
}

ExperimentBuilder &
ExperimentBuilder::faults(const fault::FaultConfig &config)
{
    fault_base_ = config;
    return *this;
}

ExperimentBuilder &
ExperimentBuilder::mtbfs(std::vector<double> ms)
{
    return sweep(kMtbfs, __func__, ms,
                 [](RunSpec &s, double m) { s.fault.node_mtbf = m; });
}

ExperimentBuilder &
ExperimentBuilder::checkpointIntervals(std::vector<int> ks)
{
    return sweep(kCheckpointIntervals, __func__, ks, [](RunSpec &s, int k) {
        s.fault.checkpoint_interval = k;
    });
}

ExperimentBuilder &
ExperimentBuilder::retryPolicies(std::vector<int> limits)
{
    return sweep(kRetryPolicies, __func__, limits,
                 [](RunSpec &s, int l) { s.fault.retry_limit = l; });
}

ExperimentBuilder &
ExperimentBuilder::congested(bool on)
{
    congested_ = on;
    return *this;
}

std::size_t
ExperimentBuilder::size() const
{
    if (axes_[kModels].values.empty())
        return 0; // build() refuses a model-less builder
    // An untouched axis contributes one implicit value (the base config's).
    std::size_t total = 1;
    for (const Axis &axis : axes_)
        total *= std::max<std::size_t>(axis.values.size(), 1);
    return total;
}

std::vector<RunSpec>
ExperimentBuilder::build() const
{
    SI_REQUIRE(!axes_[kModels].values.empty(),
               "ExperimentBuilder needs at least one model");
    RunSpec seed;
    seed.workload = workload_;
    seed.serve = serve_base_;
    seed.system = base_;
    if (congested_.has_value())
        seed.system.congested_topology = *congested_;
    seed.fault = fault_base_;

    // Odometer expansion: decompose the flat index with the last rank
    // fastest, which fixes the nesting order documented in the header.
    const std::size_t total = size();
    std::vector<RunSpec> specs;
    specs.reserve(total);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        RunSpec spec = seed;
        std::size_t rest = i;
        for (int a = kAxisCount - 1; a >= 0; --a) {
            const auto &values = axes_[a].values;
            if (values.empty())
                continue;
            values[rest % values.size()](spec);
            rest /= values.size();
        }
        spec.label = spec.describe();
        hashes.push_back(spec.hash());
        specs.push_back(std::move(spec));
    }

    // Refuse an axis whose every group of specs that differ only in it
    // shares one hash: the canonical echo drops its knob under this base
    // config, so each row would alias one cached result. One live group
    // is enough — fig16/table4 sweep compression ratios next to strategies
    // that ignore them and rely on the cache for those rows.
    std::size_t stride = 1; // flat-index distance between the axis' values
    for (int a = kAxisCount - 1; a >= 0; --a) {
        const std::size_t n = axes_[a].values.size();
        if (n < 2)
            continue;
        bool live = false;
        for (std::size_t i = 0; i < total && !live; ++i) {
            const std::size_t k = i / stride % n;
            live = k > 0 && hashes[i] != hashes[i - k * stride];
        }
        SI_REQUIRE(live, axes_[a].setter,
                   "() sweeps a knob the canonical spec ignores for this "
                   "base config");
        stride *= n;
    }
    return specs;
}

} // namespace smartinf::exp
