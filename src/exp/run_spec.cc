#include "exp/run_spec.h"

#include <sstream>

#include "exp/result_io.h"

namespace smartinf::exp {

std::uint64_t
RunSpec::hash() const
{
    // FNV-1a over the canonical echo, which carries exactly the fields
    // that can shape this spec's result; the label stays out.
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    for (const char c : canonicalSpecJson(*this)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hashHex(std::uint64_t hash)
{
    std::ostringstream oss;
    oss << std::hex;
    oss.width(16);
    oss.fill('0');
    oss << hash;
    return oss.str();
}

std::string
RunSpec::hashHex() const
{
    return exp::hashHex(hash());
}

std::string
RunSpec::describe() const
{
    if (!label.empty())
        return label;
    std::ostringstream oss;
    oss << model.name << "/" << train::strategyName(system.strategy) << "/d"
        << system.num_devices;
    if (system.num_nodes > 1)
        oss << "/n" << system.num_nodes;
    if (system.gpu != train::GpuGrade::A5000 || system.num_gpus > 1)
        oss << "/" << system.num_gpus << "x" << train::gpuName(system.gpu);
    if (system.optimizer != optim::OptimizerKind::Adam)
        oss << "/" << optim::optimizerName(system.optimizer);
    if (system.strategy == train::Strategy::SmartUpdateOptComp)
        oss << "/c" << system.compression_wire_fraction;
    if (system.congested_topology)
        oss << "/congested";
    if (system.calib.fpga_dram_usable !=
        train::Calibration::defaults().fpga_dram_usable)
        oss << "/dram" << system.calib.fpga_dram_usable;
    if (workload == train::WorkloadKind::Serving) {
        oss << "/serve-" << serve::schedulerPolicyName(serve.scheduler)
            << "/b" << serve.max_batch << "/q" << serve.streamSize();
        if (serve.client_mode == serve::ClientMode::ClosedLoop)
            oss << "/cl" << serve.concurrency;
        else if (serve.trace.empty()) {
            oss << "/r" << serve.arrival_rate;
            // Modulation tags mirror the hash normalization: only armed
            // components appear.
            if (serve.modulation.diurnal())
                oss << "/diurnal" << serve.modulation.diurnal_amplitude;
            if (serve.modulation.bursts())
                oss << "/burst" << serve.modulation.burst_rate_multiplier;
        } else
            oss << "/trace";
        if (serve.record_cap > 0)
            oss << "/cap" << serve.record_cap;
        if (serve.prompt_lengths.kind != serve::LengthDistKind::Fixed)
            oss << "/p-"
                << serve::lengthDistKindName(serve.prompt_lengths.kind);
        else if (serve.prompt_tokens !=
                 serve::ServeConfig{}.prompt_tokens)
            oss << "/p" << serve.prompt_tokens;
        if (serve.output_lengths.kind != serve::LengthDistKind::Fixed)
            oss << "/o-"
                << serve::lengthDistKindName(serve.output_lengths.kind);
        else if (serve.output_tokens !=
                 serve::ServeConfig{}.output_tokens)
            oss << "/o" << serve.output_tokens;
        if (serve.kv.enabled) {
            oss << "/kv" << serve.kv.hbm_budget / GiB(1.0) << "g";
            if (serve.kv.paged()) {
                oss << "/paged" << serve.kv.block_tokens;
                if (serve.kv.prefix.enabled())
                    oss << "/px" << serve.kv.prefix.share_fraction;
            }
        }
        // Control-plane tags mirror the hash normalization: only armed
        // features appear.
        if (serve.ctrl.enabled) {
            oss << "/ctrl-"
                << ctrl::dispatchPolicyName(serve.ctrl.policy);
            if (serve.ctrl.slo.enabled())
                oss << "/slo-"
                    << ctrl::admissionModeName(serve.ctrl.slo.admission)
                    << serve.ctrl.slo.target_p99_s;
            if (serve.ctrl.autoscale.enabled)
                oss << "/as" << serve.ctrl.autoscale.min_replicas << "-"
                    << serve.ctrl.autoscale.max_replicas;
            if (serve.ctrl.priority.enabled()) {
                oss << "/prio" << serve.ctrl.priority.high_fraction;
                if (serve.ctrl.priority.preempt)
                    oss << "p";
            }
        }
    }
    // Fault tags mirror the hash normalization: only knobs that can shape
    // this spec's result appear, so two specs with the same tag string
    // genuinely alias.
    if (fault.enabled) {
        if (fault.nodeFaults())
            oss << "/mtbf" << fault.node_mtbf;
        if (fault.csdFaults())
            oss << "/csd" << fault.csd_mtbf;
        if (fault.degradeFaults())
            oss << "/deg" << fault.degrade_mtbf;
        if (fault.stallFaults())
            oss << "/stall" << fault.stall_mtbf;
        if (workload == train::WorkloadKind::Training)
            oss << "/i" << fault.num_iterations << "/ckpt"
                << fault.checkpoint_interval;
        else if (fault.nodeFaults())
            oss << "/retry" << fault.retry_limit;
    }
    return oss.str();
}

double
RunRecord::tokensPerSecond() const
{
    if (result.iteration_time <= 0.0)
        return 0.0;
    if (result.kind == train::WorkloadKind::Serving)
        return result.totalOutputTokens() / result.iteration_time;
    return spec.train.tokensPerIteration() * spec.system.num_nodes /
           result.iteration_time;
}

} // namespace smartinf::exp
