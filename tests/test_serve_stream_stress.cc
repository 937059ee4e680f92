/**
 * @file
 * The 10^5-request streaming smoke: one hundred thousand requests drawn
 * lazily through a continuous-batching replica with record_cap armed,
 * asserting the memory contract the streaming pipeline exists for —
 * the process RSS high-water mark must grow by at most a fixed ceiling
 * during the run, independent of the stream length. Without lazy
 * generation, the record cap, and task-graph prefix trimming, this run
 * would materialize 10^5 request specs, 10^5 retired records, and a
 * multi-million-task graph; with them, peak memory is O(in-flight).
 *
 * The run is also the `serve_stream_100k` tracked case, so its exact event
 * count and makespan are pinned here beside the pin table in
 * test_obs_pinned.cc (the makespan as a hex-float literal; BENCH_PR12.json
 * printed 12558.187324).
 *
 * Under AddressSanitizer, shadow memory and the free quarantine grow the
 * high-water mark by hundreds of MiB whatever the stream holds, so that
 * build asserts a separately stated, measured bound instead.
 */
#include <gtest/gtest.h>

#include <sys/resource.h>

#include "serve/inference_workload.h"
#include "serve/metrics.h"
#include "train/engine.h"

#if defined(__SANITIZE_ADDRESS__)
#define SMARTINF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMARTINF_ASAN 1
#endif
#endif

namespace smartinf::serve {
namespace {

long
peakRssKb()
{
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return usage.ru_maxrss; // KiB on Linux.
}

TEST(ServeStreamStress, HundredThousandRequestsStayUnderTheRssCeiling)
{
    constexpr int kRequests = 100000;
#ifdef SMARTINF_ASAN
    // ASan+UBSan (RelWithDebInfo, GCC 12) measured a 525,560 KiB delta:
    // shadow memory and the free quarantine, not retained records. The
    // bound is 1.5x that, for allocator and compiler variation.
    constexpr long kCeilingKb = 768 * 1024;
#else
    // Generous versus the ~5 MiB the run actually peaks at, tight versus
    // the hundreds of MiB that O(stream) record vectors and an untrimmed
    // task graph would cost at this request count.
    constexpr long kCeilingKb = 64 * 1024;
#endif

    const auto model = train::ModelSpec::gpt2(0.5);
    train::SystemConfig system;
    system.strategy = train::Strategy::SmartUpdateOptComp;
    system.num_devices = 4;

    ServeConfig config;
    config.scheduler = SchedulerPolicy::Continuous;
    config.num_requests = kRequests;
    config.arrival_rate = 8.0;
    config.prompt_tokens = 64;
    config.output_tokens = 4;
    config.max_batch = 8;
    config.record_cap = 4096;
    config.stream_window_s = 60.0;

    const long rss_before = peakRssKb();
    auto engine = train::makeEngine(model, {}, system);
    InferenceWorkload workload(model, config);
    const train::WorkloadResult result = engine->run(workload);
    const long rss_delta = peakRssKb() - rss_before;

    EXPECT_LT(rss_delta, kCeilingKb)
        << "streaming 10^5 requests grew the RSS high-water mark by "
        << rss_delta << " KiB";

    // The run must have actually done the work the ceiling protects.
    const ServingMetrics metrics = serve::summarize(result);
    EXPECT_EQ(metrics.num_served, kRequests);
    EXPECT_TRUE(result.streaming.enabled);
    EXPECT_EQ(result.streaming.records_retained, 4096);
    EXPECT_EQ(static_cast<int>(result.requests.size()), 4096);
    EXPECT_FALSE(metrics.percentiles_exact); // 10^5 > the 4096 cap
    EXPECT_GT(metrics.latency.p99, 0.0);
    EXPECT_EQ(result.events_executed, 28758616u);
    EXPECT_EQ(result.iteration_time, 0x1.88717fa3cac8bp+13);
}

} // namespace
} // namespace smartinf::serve
