/**
 * @file
 * The acceptance gate of the trace-replay executor: runReplay must be
 * field-for-field identical to runLiveReference (the retained
 * interpreter-in-the-loop co-simulation) on every sampled point of
 * the configuration space — both overlapped modes, all three
 * orderings, both links, several concurrency limits, with and without
 * data partitioning, class-strict availability, and fault plans
 * (bandwidth bursts, connection drops, and the unity trace that takes
 * the faulted path with nominal content).
 */

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "obs/event.h"
#include "sim/replay.h"
#include "support/error.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

void
expectIdentical(const SimResult &replay, const SimResult &live,
                const std::string &what)
{
    EXPECT_EQ(replay.invocationLatency, live.invocationLatency) << what;
    EXPECT_EQ(replay.totalCycles, live.totalCycles) << what;
    EXPECT_EQ(replay.execCycles, live.execCycles) << what;
    EXPECT_EQ(replay.transferCycles, live.transferCycles) << what;
    EXPECT_EQ(replay.stallCycles, live.stallCycles) << what;
    EXPECT_EQ(replay.mispredictions, live.mispredictions) << what;
    EXPECT_EQ(replay.bytecodes, live.bytecodes) << what;
    EXPECT_EQ(replay.cpi, live.cpi) << what;
    EXPECT_EQ(replay.retryCount, live.retryCount) << what;
    EXPECT_EQ(replay.degradedCycles, live.degradedCycles) << what;
}

/** A fault plan with degraded burst windows plus connection drops. */
FaultPlan
faultyPlan()
{
    FaultPlan plan;
    plan.trace = BandwidthTrace::bursts(/*seed=*/7, 400'000, 0.7,
                                        200'000'000);
    plan.dropSeed = 7;
    plan.dropsPerMByte = 40.0;
    plan.maxAttempts = 2;
    plan.retryTimeoutCycles = 120'000;
    return plan;
}

/** Drops only, nominal bandwidth. */
FaultPlan
dropsPlan()
{
    FaultPlan plan;
    plan.dropSeed = 3;
    plan.dropsPerMByte = 25.0;
    plan.maxAttempts = 1;
    plan.retryTimeoutCycles = 90'000;
    return plan;
}

/** Nominal-content trace that still takes the faulted path. */
FaultPlan
unityPlan()
{
    FaultPlan plan;
    plan.trace = BandwidthTrace({{0, 1.0}, {123'456, 1.0}});
    return plan;
}

/** Every sampled (link, limit, partition, classStrict, faults). */
struct Variant
{
    const char *name;
    LinkModel link;
    int limit;
    bool partition;
    bool classStrict;
    FaultPlan faults;
};

std::vector<Variant>
variants()
{
    return {
        {"t1-limit4-nominal", kT1Link, 4, false, false, {}},
        {"modem-limit1-part-faulty", kModemLink, 1, true, false,
         faultyPlan()},
        {"modem-unlimited-classstrict-unity", kModemLink, -1, false,
         true, unityPlan()},
        {"t1-limit2-part-classstrict-drops", kT1Link, 2, true, true,
         dropsPlan()},
    };
}

void
checkAllConfigs(const SimContext &ctx)
{
    const SimConfig::Mode modes[] = {SimConfig::Mode::Strict,
                                     SimConfig::Mode::Parallel,
                                     SimConfig::Mode::Interleaved};
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    for (const Variant &v : variants()) {
        for (SimConfig::Mode mode : modes) {
            for (OrderingSource ord : orders) {
                SimConfig cfg;
                cfg.mode = mode;
                cfg.ordering = ord;
                cfg.link = v.link;
                cfg.parallelLimit = v.limit;
                cfg.dataPartition = v.partition;
                cfg.classStrict = v.classStrict;
                cfg.faults = v.faults;
                expectIdentical(
                    runReplay(ctx, cfg), runLiveReference(ctx, cfg),
                    cat(v.name, " mode=", static_cast<int>(mode),
                        " ord=", orderingName(ord)));
            }
        }
    }
}

TEST(Replay, MatchesLiveCoSimulationOnRealWorkload)
{
    Workload wl = makeZipper();
    SimContext ctx(wl.program, wl.natives, wl.trainInput,
                   wl.testInput);
    checkAllConfigs(ctx);
}

TEST(Replay, MatchesLiveCoSimulationOnSyntheticProgram)
{
    SyntheticSpec spec;
    spec.seed = 1234;
    spec.classCount = 10;
    spec.methodsPerClass = 5;
    Program prog = makeSyntheticProgram(spec);
    NativeRegistry natives = standardNatives();
    SimContext ctx(prog, natives, {2, 4}, {6, 1, 8, 3});
    checkAllConfigs(ctx);
}

TEST(Replay, SinkDoesNotPerturbResult)
{
    // Attaching an EventSink only observes a run: the result must be
    // field-for-field identical with and without one on every sampled
    // configuration.
    class NullSink : public EventSink
    {
      public:
        void record(const ObsEvent &) override {}
    };

    Workload wl = makeZipper();
    SimContext ctx(wl.program, wl.natives, wl.trainInput,
                   wl.testInput);
    const SimConfig::Mode modes[] = {SimConfig::Mode::Parallel,
                                     SimConfig::Mode::Interleaved};
    const OrderingSource orders[] = {OrderingSource::Static,
                                     OrderingSource::Train,
                                     OrderingSource::Test};
    for (const Variant &v : variants()) {
        for (SimConfig::Mode mode : modes) {
            for (OrderingSource ord : orders) {
                SimConfig cfg;
                cfg.mode = mode;
                cfg.ordering = ord;
                cfg.link = v.link;
                cfg.parallelLimit = v.limit;
                cfg.dataPartition = v.partition;
                cfg.classStrict = v.classStrict;
                cfg.faults = v.faults;
                NullSink sink;
                expectIdentical(
                    runReplay(ctx, cfg), runReplay(ctx, cfg, &sink),
                    cat("sinked ", v.name,
                        " mode=", static_cast<int>(mode),
                        " ord=", orderingName(ord)));
            }
        }
    }
}

TEST(Replay, TraceIsConfigInvariant)
{
    // The recorded trace equals the test profile's instrumented run:
    // entry method first, strictly increasing exec clocks, totals
    // with clock == execCycles (no stalls were injected).
    Workload wl = makeZipper();
    SimContext ctx(wl.program, wl.natives, wl.trainInput,
                   wl.testInput);
    const ExecTrace &trace = ctx.trace();
    ASSERT_FALSE(trace.events.empty());
    EXPECT_EQ(trace.events.front().method, wl.program.entry());
    for (size_t i = 1; i < trace.events.size(); ++i)
        EXPECT_GE(trace.events[i].execClock,
                  trace.events[i - 1].execClock);
    EXPECT_EQ(trace.totals.clock, trace.totals.execCycles);
    EXPECT_EQ(trace.events.size(), ctx.testProfile().methods.size());
}

/** A link cost no transfer model can price, crossed with every mode:
 *  each must be rejected by name before any cycle is counted. */
class ReplayRejectsBadLinkCost
    : public ::testing::TestWithParam<std::tuple<double, SimConfig::Mode>>
{
};

TEST_P(ReplayRejectsBadLinkCost, CyclesPerByte)
{
    static Workload wl = makeHanoi();
    static SimContext ctx(wl.program, wl.natives, wl.trainInput,
                          wl.testInput);
    SimConfig cfg;
    cfg.mode = std::get<1>(GetParam());
    cfg.link = {"bad", std::get<0>(GetParam())};
    for (auto *run : {&runReplay, &runLiveReference}) {
        try {
            run(ctx, cfg, nullptr);
            ADD_FAILURE() << "bad link cost accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "SimConfig::link.cyclesPerByte"),
                      std::string::npos)
                << e.what();
        }
    }
}

std::string
badLinkName(const ::testing::TestParamInfo<
            std::tuple<double, SimConfig::Mode>> &info)
{
    const char *values[] = {"NaN", "PosInf", "Zero", "Negative"};
    const char *modes[] = {"Strict", "Parallel", "Interleaved"};
    return std::string(values[info.index / 3]) + modes[info.index % 3];
}

INSTANTIATE_TEST_SUITE_P(
    NonFiniteOrNonPositive, ReplayRejectsBadLinkCost,
    ::testing::Combine(
        ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), 0.0,
                          -1.0),
        ::testing::Values(SimConfig::Mode::Strict,
                          SimConfig::Mode::Parallel,
                          SimConfig::Mode::Interleaved)),
    badLinkName);

} // namespace
} // namespace nse
