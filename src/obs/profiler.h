/**
 * @file
 * Host-side wall-time profiler for the simulation core. Answers "where does
 * the *host* time of a run go" (the BENCH_*.json events/sec denominators),
 * as opposed to the TraceSink/CounterSampler which record *simulated* time.
 *
 * Design constraints:
 *  - Callable from the hottest loops (event dispatch, flow recompute), so
 *    the disabled path is one relaxed atomic load and no clock read.
 *  - No dependencies beyond the standard library: sim/ and net/ include
 *    this header even though the rest of obs/ sits above them (see
 *    DESIGN.md "Layering" — obs/profiler.h is common-level by design).
 *  - Sections may nest and re-enter (TaskGraph completion cascades launch
 *    further tasks); only the outermost frame of a section accumulates
 *    wall time, so a section's total is real elapsed time, not a
 *    multiple-counted sum.
 *
 * Not thread-safe by design: enable() is only meant for single-threaded
 * measurement runs (perfbench's traced samples run one engine at a
 * time). The enabled flag itself is atomic so a stray reader on another
 * thread sees a clean false and records nothing.
 */
#ifndef SMARTINF_OBS_PROFILER_H
#define SMARTINF_OBS_PROFILER_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace smartinf::obs {

/** The fixed set of profiled subsystems (stable BENCH_*.json keys). */
enum class Section : int {
    EventDispatch,  ///< EventQueue::runNext — everything inside an event
    FlowRecompute,  ///< FlowNetwork mark+recompute (water-filling)
    FlowCallbacks,  ///< flow completion callbacks (downstream graph work)
    TaskComplete,   ///< TaskGraph completion cascades (dependent launches)
    SchedulerStep,  ///< serve::BatchScheduler step construction
    kCount
};

/** Stable snake_case name of a section (JSON keys, test assertions). */
const char *sectionName(Section s);

/**
 * Wall-time + event-count accumulator per Section, plus a handful of
 * subsystem activity counters that cost one increment and explain the
 * wall numbers (e.g. flows touched per recompute — the contention
 * component size — is what separates the training and serving event
 * rates).
 */
class Profiler
{
  public:
    /** The process-wide instance every probe reports to. */
    static Profiler &instance();

    /** Turn measurement on/off. Off: probes cost one atomic load. */
    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Zero every accumulator (typically right after enable(true)). */
    void reset();

    /** Accumulated wall seconds of @p s (outermost frames only). */
    double seconds(Section s) const;
    /** Number of outermost entries into @p s. */
    uint64_t calls(Section s) const;

    /** @name Activity counters. Self-guarding: no-ops while disabled. @{ */
    void
    addFlowsTouched(uint64_t n)
    {
        if (enabled())
            flows_touched_ += n;
    }
    void
    addLinksTouched(uint64_t n)
    {
        if (enabled())
            links_touched_ += n;
    }
    void
    countTaskLaunch()
    {
        if (enabled())
            ++task_launches_;
    }
    void
    countFlowRetire()
    {
        if (enabled())
            ++flow_retires_;
    }
    uint64_t flowsTouched() const { return flows_touched_; }
    uint64_t linksTouched() const { return links_touched_; }
    uint64_t taskLaunches() const { return task_launches_; }
    uint64_t flowRetires() const { return flow_retires_; }
    /** @} */

    /**
     * RAII probe. Construct with the section; on destruction the elapsed
     * wall time lands in the profiler iff this frame was the outermost of
     * its section and the profiler was enabled at construction.
     */
    class Scoped
    {
      public:
        explicit Scoped(Section s) : section_(s)
        {
            if (instance().enabled()) {
                entered_ = true;
                outermost_ = instance().enter(section_, start_);
            }
        }
        ~Scoped()
        {
            if (entered_)
                instance().leave(section_, start_, outermost_);
        }
        Scoped(const Scoped &) = delete;
        Scoped &operator=(const Scoped &) = delete;

      private:
        bool entered_ = false;   ///< enter() ran; leave() must balance it
        bool outermost_ = false; ///< this frame owns the section's clock
        Section section_;
        std::chrono::steady_clock::time_point start_;
    };

  private:
    Profiler() = default;

    /** @return true when this is the outermost frame (records on leave). */
    bool enter(Section s, std::chrono::steady_clock::time_point &start);
    void leave(Section s, std::chrono::steady_clock::time_point start,
               bool outermost);

    struct Bucket {
        double seconds = 0.0;
        uint64_t calls = 0;
        int depth = 0; ///< live nesting depth; only depth 0->1 times
    };

    std::atomic<bool> enabled_{false};
    Bucket buckets_[static_cast<int>(Section::kCount)];
    uint64_t flows_touched_ = 0;
    uint64_t links_touched_ = 0;
    uint64_t task_launches_ = 0;
    uint64_t flow_retires_ = 0;
};

} // namespace smartinf::obs

#endif // SMARTINF_OBS_PROFILER_H
