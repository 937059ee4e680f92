/**
 * @file
 * Host-speed probe of the repo benchmark (perfbench/run.py builds and runs
 * it). It times a fixed amount of work and prints one JSON document:
 *
 *   perfbench_probe --cpu K
 *   {"probe_s": [<seconds of each repetition>], "checksum": N}
 *
 * A shared host's speed drifts by tens of percent over minutes, for every
 * vCPU at once; the probe's time drifts with it, so run.py divides it out
 * of the simulator's times. The probe is its own executable, built from
 * this file alone and linked with nothing from src/: a probe linked into
 * the measurement driver ran 30% slower after an unrelated change to the
 * library shifted its code by 16 bytes, which would have divided a real
 * slowdown back out.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sched.h>

namespace {

/** Work of one repetition: event-loop steps and matrix passes, each about
 *  0.06 s on a 4-vCPU Xeon (Sapphire Rapids) virtual machine. */
constexpr int kSteps = 60000;
constexpr int kPasses = 1700;
/** Repetitions per process; run.py takes their median. */
constexpr int kReps = 3;

/** Keeps the matrix product's result observable. */
volatile float sink = 0.0f;

/**
 * An event loop shaped like the simulator's: a binary-heap event queue, a
 * hash map of live records with small heap allocations, batched
 * std::function callbacks and a floating-point min-share pass. Returns a
 * checksum of the work, the same on every run.
 */
std::uint64_t
eventLoop()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;
    const auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    using Event = std::pair<double, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
    std::unordered_map<std::uint32_t, std::vector<double>> live;
    std::vector<std::function<void()>> callbacks;
    std::vector<double> shares(48);
    for (std::uint32_t i = 0; i < 4096; ++i)
        queue.push({static_cast<double>(rnd() % 1000) * 1e-3, i});
    for (int step = 0; step < kSteps; ++step) {
        const auto [now, id] = queue.top();
        queue.pop();
        std::vector<double> &record = live[id % 65536];
        if (record.empty())
            record.resize(8 + rnd() % 24);
        for (double &v : record)
            v += now;
        const double capacity = 1.0 + static_cast<double>(id % 7);
        for (std::size_t f = 0; f < shares.size(); ++f)
            shares[f] = capacity / static_cast<double>(1 + (id + f) % 13);
        acc += static_cast<std::uint64_t>(
            *std::min_element(shares.begin(), shares.end()) * 1e6);
        if (rnd() % 7 == 0)
            live.erase(static_cast<std::uint32_t>(id * 2654435761u) % 65536);
        callbacks.emplace_back([&acc, id] { acc += id; });
        if (callbacks.size() > 64) {
            for (const auto &cb : callbacks)
                cb();
            callbacks.clear();
        }
        queue.push({now + static_cast<double>(rnd() % 1000) * 1e-3,
                    static_cast<std::uint32_t>(rnd() % 1000000)});
    }
    return acc + live.size();
}

/** A dense single-precision matrix product that stays in the L1 cache,
 *  like the functional layers' (nn/) training loops. */
void
matrixProduct()
{
    constexpr std::size_t kRows = 32, kDim = 64;
    std::vector<float> weights(kDim * kDim), in(kRows * kDim),
        out(kRows * kDim);
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = static_cast<float>(i % 17) * 0.01f;
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<float>(i % 13) * 0.02f;
    for (int pass = 0; pass < kPasses; ++pass) {
        for (std::size_t r = 0; r < kRows; ++r)
            for (std::size_t c = 0; c < kDim; ++c) {
                float sum = 0.0f;
                for (std::size_t i = 0; i < kDim; ++i)
                    sum += in[r * kDim + i] * weights[i * kDim + c];
                out[r * kDim + c] = sum;
            }
        // Converges to a fixed point well away from denormals.
        for (std::size_t i = 0; i < in.size(); ++i)
            in[i] = 0.5f * in[i] + 0.001f * out[i] + 0.01f;
    }
    sink = in[5];
}

} // namespace

/**
 * One repetition is both parts, of about equal time: either alone tracked
 * some workloads' drift worse than the two together (perfbench/NOTES.md).
 */
int
main(int argc, char **argv)
{
    if (argc != 3 || std::string(argv[1]) != "--cpu") {
        std::fprintf(stderr, "usage: perfbench_probe --cpu K\n");
        return 2;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(std::stoi(argv[2]), &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
        std::perror("perfbench_probe: sched_setaffinity");
        return 1;
    }
    std::uint64_t checksum = 0;
    std::printf("{\"probe_s\": [");
    for (int i = 0; i < kReps; ++i) {
        const auto start = std::chrono::steady_clock::now();
        checksum = eventLoop();
        matrixProduct();
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - start;
        std::printf("%s%.17g", i ? ", " : "", took.count());
    }
    std::printf("], \"checksum\": %llu}\n",
                static_cast<unsigned long long>(checksum));
    return 0;
}
