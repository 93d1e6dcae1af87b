/**
 * @file
 * What every workload reports into: phases (set-up repetitions and
 * timed passes), operations (timed, checked, failures counted without
 * aborting the run), spans around the calls into each layer (recorded
 * only in traced phases), per-phase counters, and a digest of every
 * simulated result so passes can be compared bit for bit.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace nse
{
struct SimResult;
struct ServerResult;
struct EdgeCacheStats;
struct StallBoundReport;
} // namespace nse

namespace perfbench
{

/** FNV-1a over the fields of the simulator's result types. */
class Digest
{
  public:
    void u64(uint64_t v);
    void f64(double v);
    void str(const std::string &s);
    void add(const nse::SimResult &r);
    void add(const nse::ServerResult &r);
    void add(const nse::EdgeCacheStats &s);
    void add(const nse::StallBoundReport &r);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One set-up repetition or one timed pass. */
struct Phase
{
    bool setup = false;
    bool traced = false;
    double startUs = 0.0;
    double endUs = 0.0;
    double wallS = 0.0;
    /** Host latency of each operation in order, ms, and whether it
     *  is one of the workload's latency samples. */
    std::vector<double> opMs;
    std::vector<bool> opSampled;
    /** Additive counters (counts, cycles, bytes). */
    std::map<std::string, double> counts;
    /** Last-value statistics of the phase (percentiles, ratios). */
    std::map<std::string, double> gauges;
    Digest digest;
};

class Harness
{
  public:
    using Clock = std::chrono::steady_clock;

    Harness();

    /** Start a phase; spans are recorded only while it is traced. */
    void beginPhase(bool setup, bool traced);
    void endPhase();
    Phase &phase() { return phases_.back(); }
    const std::vector<Phase> &phases() const { return phases_; }

    /** A span open for the lifetime of this object. */
    class Scope
    {
      public:
        Scope(Harness &h, std::string_view name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Harness &h_;
        int64_t idx_ = -1;
    };

    /**
     * Run one operation: time it, open a top-level span named `name`,
     * and count it failed if it throws or a check() inside it fails.
     * `sampled` operations contribute to the latency percentiles.
     */
    template <typename Body>
    void
    op(std::string_view name, Body &&body, bool sampled = true)
    {
        beginOp();
        Clock::time_point t0 = Clock::now();
        {
            Scope s(*this, name);
            try {
                body();
            } catch (const std::exception &e) {
                failOp(e.what());
            }
        }
        endOp(t0, sampled);
    }

    /** Record a failed output check of the current operation. */
    void check(bool ok, const std::string &what);

    void count(const std::string &name, double v) { phase().counts[name] += v; }
    void gauge(const std::string &name, double v) { phase().gauges[name] = v; }
    Digest &digest() { return phase().digest; }
    bool traced() const { return !phases_.empty() && phases_.back().traced; }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    /** Microseconds since the harness was created. */
    double nowUs() const;

    void beginOp();
    void failOp(const std::string &why);
    void endOp(Clock::time_point t0, bool sampled);

    Clock::time_point epoch_;
    std::vector<Phase> phases_;
    Clock::time_point phaseStart_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
    uint64_t nextOp_ = 1;
    uint64_t currentOp_ = 0;
    bool opFailed_ = false;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Accumulates the simulated end-to-end metrics of one pass. */
class SimSummary
{
  public:
    /** One overlapped run and the strict run it is normalized to. */
    void add(const nse::SimResult &run, const nse::SimResult &strict);
    /** Simulated cycles from first start to last finish of one solo
     *  run or one fleet; summed into sim_makespan_gcycles. */
    void addMakespan(uint64_t cycles) { makespan_ += cycles; }

    double normTimePct() const;
    double invocationPct() const;
    double stallP99Mcycles() const;
    double makespanGcycles() const;

  private:
    std::vector<double> normRatios_;
    std::vector<double> invocationRatios_;
    std::vector<double> stalls_;
    uint64_t makespan_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
