/**
 * @file
 * The immutable per-workload precomputation bundle behind every
 * experiment (the record-once half of record-once/replay-many).
 *
 * The paper's co-simulation consumes only two things that require
 * running the interpreter: first-use profiles (train and test input)
 * and the dynamic *execution trace* of the test run — the sequence of
 * first-use events with the exec cycles between them plus the final
 * execution totals. Both are invariant across every transfer
 * configuration: the first-use hook may stall the clock but never
 * changes which bytecodes execute or what they cost. A SimContext
 * therefore interprets each input once and derives everything else —
 * orderings, data partitions, transfer layouts, greedy schedules —
 * analytically, memoized so a whole experiment grid shares them.
 *
 * All accessors are const and safe to call from multiple threads
 * after construction; lazily memoized values are guarded internally.
 * Returned references stay valid for the SimContext's lifetime.
 *
 * Profiles and traces have one source: an interpreter run inside the
 * context that needs them. Nothing is persisted between contexts or
 * processes, so every profile reflects the current interpreter and
 * cost model.
 */

#ifndef NSE_SIM_CONTEXT_H
#define NSE_SIM_CONTEXT_H

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/dataflow.h"
#include "analysis/first_use.h"
#include "profile/first_use_profile.h"
#include "program/program.h"
#include "restructure/data_partition.h"
#include "restructure/layout.h"
#include "transfer/link.h"
#include "transfer/schedule.h"
#include "vm/decoded.h"
#include "vm/natives.h"

namespace nse
{

/** Which first-use predictor guides restructuring and scheduling. */
enum class OrderingSource : uint8_t
{
    Static,    ///< SCG: static call-graph estimation (§4.1)
    RtaStatic, ///< SCG with RTA-pruned dispatch + cold/dead demotion
    Train,     ///< train-input profile, evaluated on the test input
    Test,      ///< test-input profile (perfect prediction)
    MustUse,   ///< RTA refined by proved guaranteed-use deadlines
               ///< (dataflow.h), scheduled against mayMin lower bounds
};

const char *orderingName(OrderingSource src);

/** One recorded first-use event of an instrumented run. */
struct TraceEvent
{
    MethodId method;
    /**
     * The clock at which the VM fired the first-use hook, in a run
     * with no stalls injected — i.e. pure execution cycles elapsed
     * before the event. A stall-injecting run hits the same event at
     * execClock + (stalls injected so far); nothing else moves.
     */
    uint64_t execClock = 0;
};

/** The recorded execution trace of one instrumented VM run. */
struct ExecTrace
{
    /** First-use events in execution order (entry method first). */
    std::vector<TraceEvent> events;
    /** Totals of the stall-free run (clock == execCycles). */
    VmResult totals;
};

/**
 * Record an execution trace by running the interpreter once with a
 * pass-through first-use hook. `decoded` optionally shares a decode
 * cache across runs (results are bit-identical with or without it).
 */
ExecTrace recordTrace(const Program &prog, const NativeRegistry &natives,
                      const std::vector<int64_t> &input,
                      const VmOptions &opts = {},
                      const DecodedCache *decoded = nullptr);

/** Identity of a memoized transfer layout. */
struct LayoutKey
{
    bool parallel = true; ///< per-class streams vs interleaved file
    OrderingSource ordering = OrderingSource::Static;
    bool partitioned = false;
    /** Availability raised to whole-class granularity (ablation). */
    bool classStrict = false;

    bool
    operator<(const LayoutKey &o) const
    {
        return std::tie(parallel, ordering, partitioned, classStrict) <
               std::tie(o.parallel, o.ordering, o.partitioned,
                        o.classStrict);
    }
};

/** Identity of a memoized greedy transfer schedule. */
struct ScheduleKey
{
    LayoutKey layout;
    /** Nominal link cost; schedules are always planned nominal. */
    double cyclesPerByte = 0.0;
    /** Concurrent-transfer limit; <= 0 = unlimited. */
    int limit = 4;

    bool
    operator<(const ScheduleKey &o) const
    {
        return std::tie(layout, cyclesPerByte, limit) <
               std::tie(o.layout, o.cyclesPerByte, o.limit);
    }
};

/** Immutable precomputation bundle for one workload. */
class SimContext
{
  public:
    /**
     * @param prog      the workload program (must outlive the context)
     * @param natives   native bodies (must outlive the context)
     * @param train_input  profile-gathering input
     * @param test_input   measurement input
     * @param cache_dir must be "": the on-disk profile/trace cache is
     *                  gone, and a non-empty value is a fatal error.
     *                  Kept only so existing callers that pass ""
     *                  still compile.
     */
    SimContext(const Program &prog, const NativeRegistry &natives,
               std::vector<int64_t> train_input,
               std::vector<int64_t> test_input,
               const std::string &cache_dir = "");

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    const Program &program() const { return prog_; }
    const NativeRegistry &natives() const { return natives_; }
    const std::vector<int64_t> &trainInput() const { return trainInput_; }
    const std::vector<int64_t> &testInput() const { return testInput_; }

    /** Serialized size of every class file, summed. */
    uint64_t totalBytes() const { return totalBytes_; }
    /** Serialized size of the class file holding main. */
    uint64_t entryClassBytes() const { return entryClassBytes_; }

    /**
     * Content address of the workload this context restructures: an
     * FNV-1a hash over every serialized class file, the entry class,
     * and both inputs — everything a derived artifact (ordering,
     * partition, layout, schedule) can depend on. Two contexts with
     * equal contentKey() produce byte-identical artifacts for any
     * LayoutKey/ScheduleKey, so this is the workload half of the edge
     * cache's key (cache/edge_cache.h).
     */
    uint64_t contentKey() const;

    const FirstUseProfile &trainProfile() const;
    const FirstUseProfile &testProfile() const;

    /**
     * The recorded test-input execution trace every replay runs
     * against. Derived from the test profile's instrumented run (the
     * one interpretation per input the context ever performs).
     */
    const ExecTrace &trace() const;

    /** Memoized whole-program call graph (CHA + RTA resolution). */
    const CallGraph &callGraph() const;

    /**
     * Memoized must/may use-distance analysis (analysis/dataflow.h)
     * over the RTA call graph, priced with this context's decode
     * cache and native registry — the input to the `mustuse` ordering
     * and the static stall prover (analysis/stall_bounds.h).
     */
    const UseAnalysis &useAnalysis() const;

    /**
     * Memoized decode cache (vm/decoded.h) shared by every Vm the
     * context spawns — profile runs, trace recording, the live
     * reference co-simulation — and by callers wanting fast repeated
     * execution (benchmarks, the experiment runner's replay grids).
     * Built against a zero block-delimiter cost, the default every
     * profile/trace run uses; a Vm whose options differ silently
     * decodes privately, so sharing is always safe. Thread-safe like
     * every other memoized accessor.
     */
    const DecodedCache &decoded() const;

    const FirstUseOrder &ordering(OrderingSource src) const;
    const DataPartition &partition(OrderingSource src) const;

    /** Memoized transfer layout (classStrict already applied). */
    const TransferLayout &layout(const LayoutKey &key) const;

    /** Memoized greedy schedule, planned against the nominal link. */
    const TransferSchedule &schedule(const ScheduleKey &key) const;

    /**
     * Predicted per-method first-use cycles for an ordering (the
     * scheduler's deadlines), parallel to ordering(src).order.
     */
    const std::vector<uint64_t> &methodCycles(OrderingSource src) const;

  private:
    const FirstUseProfile &profileFor(OrderingSource src) const;

    const Program &prog_;
    const NativeRegistry &natives_;
    std::vector<int64_t> trainInput_;
    std::vector<int64_t> testInput_;
    uint64_t totalBytes_ = 0;
    uint64_t entryClassBytes_ = 0;

    mutable std::once_flag trainOnce_, testOnce_, traceOnce_, cgOnce_,
        useOnce_, decodedOnce_, contentKeyOnce_;
    mutable uint64_t contentKey_ = 0;
    mutable std::optional<FirstUseProfile> trainProfile_;
    mutable std::optional<FirstUseProfile> testProfile_;
    mutable std::optional<ExecTrace> trace_;
    mutable std::optional<CallGraph> callGraph_;
    mutable std::optional<UseAnalysis> useAnalysis_;
    mutable std::unique_ptr<DecodedCache> decoded_;

    mutable std::mutex orderMu_;
    mutable std::map<OrderingSource, FirstUseOrder> orders_;
    mutable std::mutex partitionMu_;
    mutable std::map<OrderingSource, DataPartition> partitions_;
    mutable std::mutex layoutMu_;
    mutable std::map<LayoutKey, TransferLayout> layouts_;
    mutable std::mutex scheduleMu_;
    mutable std::map<ScheduleKey, TransferSchedule> schedules_;
    mutable std::mutex cyclesMu_;
    mutable std::map<OrderingSource, std::vector<uint64_t>> cycles_;
};

} // namespace nse

#endif // NSE_SIM_CONTEXT_H
