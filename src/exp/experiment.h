/**
 * @file
 * Declarative sweep construction. An ExperimentBuilder holds one value-list
 * per configuration axis (models, strategies, device counts, GPU grades,
 * node counts, optimizers, compression ratios, ...) and expands to the
 * cross-product of RunSpecs in a fixed deterministic order. Axes not
 * touched keep a single default value, so a builder with two axes set
 * yields exactly |axis1| x |axis2| specs. Every spec carries a *complete*
 * SystemConfig — the whole point of the redesign: no call site can silently
 * drop fields the way the old bench_util::runIteration default-constructed
 * num_nodes/congested_topology.
 *
 * The axes live in one table ordered by nesting rank; each setter fills
 * its slot with one closure per swept value. Several axes only shape a
 * result under some mode of the base config (the "needs X" notes below).
 * build() enforces those conditions generically: an axis of two or more
 * values whose specs collapse onto one RunSpec::hash() wherever only it
 * varies sweeps a knob the canonical spec echo ignores, and is refused
 * with the setter's name. One live group suffices, so an axis may be
 * inert for part of the sweep (compression ratios next to BASE rows).
 */
#ifndef SMARTINF_EXP_EXPERIMENT_H
#define SMARTINF_EXP_EXPERIMENT_H

#include <functional>
#include <optional>
#include <vector>

#include "exp/run_spec.h"

namespace smartinf::exp {

/** Fluent cross-product sweep builder. */
class ExperimentBuilder
{
  public:
    ExperimentBuilder();

    /**
     * Seed the non-axis fields (NIC specs, calibration, topology flags...)
     * for every generated spec. Axis setters called afterwards still
     * override their own field.
     */
    ExperimentBuilder &base(const train::SystemConfig &system);
    /** Per-iteration workload(s); defaults to one default TrainConfig. */
    ExperimentBuilder &train(const train::TrainConfig &tc);
    ExperimentBuilder &trains(std::vector<train::TrainConfig> tcs);

    /** Select the workload kind every generated spec runs (default:
     *  Training). serving() below is the usual way to set Serving. */
    ExperimentBuilder &workload(train::WorkloadKind kind);
    /**
     * Declare a serving sweep: every spec runs @p config's request stream
     * (workload = Serving). The serving axes below override their own
     * field of this base config.
     */
    ExperimentBuilder &serving(const serve::ServeConfig &config);

    /** @name Sweep axes (each replaces the axis' current value list). @{ */
    ExperimentBuilder &model(const train::ModelSpec &m);
    ExperimentBuilder &models(std::vector<train::ModelSpec> ms);
    ExperimentBuilder &strategy(train::Strategy s);
    ExperimentBuilder &strategies(std::vector<train::Strategy> ss);
    ExperimentBuilder &devices(int n);
    ExperimentBuilder &devices(std::vector<int> ns);
    /** Inclusive device range [lo, hi] (every integer count). */
    ExperimentBuilder &deviceRange(int lo, int hi);
    ExperimentBuilder &gpu(train::GpuGrade g);
    ExperimentBuilder &gpus(std::vector<train::GpuGrade> gs);
    ExperimentBuilder &numGpus(std::vector<int> ns);
    ExperimentBuilder &nodes(int n);
    ExperimentBuilder &nodes(std::vector<int> ns);
    ExperimentBuilder &optimizers(std::vector<optim::OptimizerKind> ks);
    ExperimentBuilder &compressionFractions(std::vector<double> fs);
    ExperimentBuilder &overlapGradSync(std::vector<bool> vs);
    ExperimentBuilder &calibrations(std::vector<train::Calibration> cs);
    /** @name Serving axes (sweep fields of the serving() base config). @{ */
    ExperimentBuilder &schedulers(std::vector<serve::SchedulerPolicy> ps);
    ExperimentBuilder &arrivalRates(std::vector<double> rs);
    ExperimentBuilder &maxBatches(std::vector<int> bs);
    ExperimentBuilder &weightWireFractions(std::vector<double> fs);
    /** Sweep serve.output_tokens (sequence-length studies). Only
     *  meaningful while output_lengths stays Fixed. */
    ExperimentBuilder &outputTokenCounts(std::vector<int> ts);
    /** Sweep serve.kv.hbm_budget (bytes). The serving() base config must
     *  have kv.enabled set, or the axis cannot affect results. */
    ExperimentBuilder &hbmBudgets(std::vector<double> bs);
    /** Sweep serve.concurrency (closed-loop client population). The
     *  serving() base config must be in ClosedLoop mode. */
    ExperimentBuilder &concurrencies(std::vector<int> cs);
    /** Sweep serve.kv.block_tokens (paged-KV page size). The serving()
     *  base config must use kv.layout = Paged, or the axis is inert. */
    ExperimentBuilder &blockTokens(std::vector<int> ts);
    /** Sweep serve.kv.prefix.share_fraction (shared-prompt mix). The
     *  serving() base config must use kv.layout = Paged. */
    ExperimentBuilder &prefixShareFractions(std::vector<double> fs);
    /** Sweep serve.ctrl.policy (request dispatch policy). The serving()
     *  base config must have ctrl.enabled set, or the axis is inert. */
    ExperimentBuilder &
    dispatchPolicies(std::vector<ctrl::DispatchPolicy> ps);
    /** Sweep serve.ctrl.slo.admission (SLO admission mode). The serving()
     *  base config must have ctrl.enabled set, or the axis is inert, and
     *  a positive ctrl.slo.target_p99_s, or the non-Off modes fail
     *  ServeConfig::validate() when they run. */
    ExperimentBuilder &admissionModes(std::vector<ctrl::AdmissionMode> ms);
    /** Sweep serve.ctrl.slo.target_p99_s (latency SLO, seconds). The
     *  serving() base config must have SLO admission armed
     *  (ctrl.slo.admission != Off), or the axis is inert. */
    ExperimentBuilder &sloTargets(std::vector<double> ts);
    /** @} */
    /** @name Fault axes (sweep fields of the faults() base config). @{ */
    /**
     * Seed the fault/recovery model for every generated spec (the
     * non-axis fields of RunSpec::fault). The fault axes below override
     * their own field and require @p config to have enabled set, or the
     * axis cannot affect results.
     */
    ExperimentBuilder &faults(const fault::FaultConfig &config);
    /** Sweep fault.node_mtbf (mean time between node crashes, seconds). */
    ExperimentBuilder &mtbfs(std::vector<double> ms);
    /** Sweep fault.checkpoint_interval (training sweeps only). */
    ExperimentBuilder &checkpointIntervals(std::vector<int> ks);
    /** Sweep fault.retry_limit (serving sweeps only; needs an armed crash
     *  process — the failover path is unreachable without one). */
    ExperimentBuilder &retryPolicies(std::vector<int> limits);
    /** @} */
    /** @} */

    /** Single-value override of base().congested_topology; like the axes,
     *  it survives a later base() call. */
    ExperimentBuilder &congested(bool on);

    /** Number of specs build() will produce (product of axis sizes;
     *  0 while no model has been set, since build() would refuse). */
    std::size_t size() const;

    /**
     * Expand the cross product. Deterministic nesting order (outermost to
     * innermost): models, trains, strategies, devices, gpus, numGpus,
     * optimizers, compressionFractions, nodes, overlapGradSync,
     * calibrations, schedulers, arrivalRates, maxBatches,
     * weightWireFractions, outputTokenCounts, hbmBudgets, concurrencies,
     * blockTokens, prefixShareFractions, dispatchPolicies,
     * admissionModes, sloTargets, mtbfs, checkpointIntervals,
     * retryPolicies — by rank, whatever order the setters ran in.
     * Labels default to RunSpec::describe(). Throws when no model is set
     * or when a multi-valued axis is inert for every spec (see the file
     * comment).
     */
    std::vector<RunSpec> build() const;

  private:
    /** One sweep axis: the setter that last filled it (named by the
     *  inert-axis refusal) and one closure per swept value, each writing
     *  that value into a spec. No values: the seeded base value stands. */
    struct Axis {
        const char *setter = nullptr;
        std::vector<std::function<void(RunSpec &)>> values;
    };

    /** Fill axis @p rank with @p values, each applied by @p write. */
    template <typename T, typename Write>
    ExperimentBuilder &sweep(int rank, const char *setter,
                             const std::vector<T> &values, Write write);

    train::SystemConfig base_;
    train::WorkloadKind workload_ = train::WorkloadKind::Training;
    serve::ServeConfig serve_base_;
    fault::FaultConfig fault_base_;
    std::optional<bool> congested_;
    /** Indexed by nesting rank, outermost first. */
    std::vector<Axis> axes_;
};

} // namespace smartinf::exp

#endif // SMARTINF_EXP_EXPERIMENT_H
