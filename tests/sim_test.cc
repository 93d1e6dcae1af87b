/**
 * @file
 * Simulation tests: baseline formulas, invocation-latency relations,
 * ordering quality relations, data-partitioning gains, and the
 * normalized-time metric — the invariants behind every paper table.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "support/error.h"

#include "classfile/writer.h"
#include "sim/replay.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

/** One mid-sized workload shared by the suite (fast to run). */
class SimFixture : public ::testing::Test
{
  protected:
    SimFixture()
        : wl_(makeZipper()),
          ctx_(wl_.program, wl_.natives, wl_.trainInput, wl_.testInput)
    {}

    SimResult
    run(SimConfig::Mode mode, OrderingSource ord, const LinkModel &link,
        int limit = 4, bool part = false)
    {
        SimConfig cfg;
        cfg.mode = mode;
        cfg.ordering = ord;
        cfg.link = link;
        cfg.parallelLimit = limit;
        cfg.dataPartition = part;
        return runReplay(ctx_, cfg);
    }

    Workload wl_;
    SimContext ctx_;
};

TEST_F(SimFixture, StrictTotalsAreTransferPlusExec)
{
    SimResult r = run(SimConfig::Mode::Strict, OrderingSource::Static,
                      kT1Link);
    uint64_t bytes = 0;
    for (uint16_t c = 0; c < wl_.program.classCount(); ++c)
        bytes += layoutOf(wl_.program.classAt(c)).totalSize;
    auto expected_transfer = static_cast<uint64_t>(
        std::ceil(static_cast<double>(bytes) * kT1Link.cyclesPerByte));
    EXPECT_EQ(r.transferCycles, expected_transfer);
    EXPECT_EQ(r.totalCycles, r.transferCycles + r.execCycles);
    EXPECT_GT(r.cpi, 1.0);
}

TEST_F(SimFixture, StrictInvocationIsEntryClassTransfer)
{
    uint64_t lat = strictInvocationLatency(ctx_, kT1Link);
    uint64_t bytes = layoutOf(
        wl_.program.classByName(wl_.program.entryClass())).totalSize;
    EXPECT_EQ(lat, static_cast<uint64_t>(std::ceil(
                       static_cast<double>(bytes) *
                       kT1Link.cyclesPerByte)));
}

TEST_F(SimFixture, InvocationLatencyOrdering)
{
    for (const LinkModel &link : {kT1Link, kModemLink}) {
        uint64_t strict = strictInvocationLatency(ctx_, link);
        uint64_t ns = nonStrictInvocationLatency(ctx_, link, false);
        uint64_t dp = nonStrictInvocationLatency(ctx_, link, true);
        EXPECT_LE(dp, ns);
        EXPECT_LE(ns, strict);
        EXPECT_LT(dp, strict); // partitioning must actually help here
    }
}

TEST_F(SimFixture, ExecutionCyclesInvariantAcrossConfigs)
{
    SimResult strict = run(SimConfig::Mode::Strict,
                           OrderingSource::Static, kModemLink);
    SimResult par = run(SimConfig::Mode::Parallel, OrderingSource::Test,
                        kModemLink);
    SimResult il = run(SimConfig::Mode::Interleaved,
                       OrderingSource::Train, kModemLink);
    EXPECT_EQ(strict.execCycles, par.execCycles);
    EXPECT_EQ(strict.execCycles, il.execCycles);
    EXPECT_EQ(strict.bytecodes, par.bytecodes);
}

TEST_F(SimFixture, OverlappedNeverWorseThanStrict)
{
    for (const LinkModel &link : {kT1Link, kModemLink}) {
        SimResult strict =
            run(SimConfig::Mode::Strict, OrderingSource::Static, link);
        for (OrderingSource ord :
             {OrderingSource::Static, OrderingSource::Train,
              OrderingSource::Test}) {
            SimResult par =
                run(SimConfig::Mode::Parallel, ord, link, 4);
            SimResult il = run(SimConfig::Mode::Interleaved, ord, link);
            EXPECT_LE(par.totalCycles, strict.totalCycles);
            EXPECT_LE(il.totalCycles, strict.totalCycles);
        }
    }
}

TEST_F(SimFixture, TotalIsAtLeastExecPlusFirstStall)
{
    SimResult par = run(SimConfig::Mode::Parallel, OrderingSource::Test,
                        kModemLink);
    EXPECT_GE(par.totalCycles, par.execCycles);
    EXPECT_EQ(par.totalCycles, par.execCycles + par.stallCycles);
    EXPECT_GE(par.invocationLatency, 1u);
}

TEST_F(SimFixture, ClassStrictSitsBetweenStrictAndNonStrict)
{
    SimResult strict = run(SimConfig::Mode::Strict,
                           OrderingSource::Static, kModemLink);
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Test;
    cfg.link = kModemLink;
    cfg.parallelLimit = 4;
    cfg.classStrict = true;
    SimResult cs = runReplay(ctx_, cfg);
    cfg.classStrict = false;
    SimResult ns = runReplay(ctx_, cfg);
    EXPECT_LE(cs.totalCycles, strict.totalCycles);
    EXPECT_LE(ns.totalCycles, cs.totalCycles + cs.totalCycles / 50);
}

TEST_F(SimFixture, PerfectOrderingHasNoMispredictions)
{
    SimResult par = run(SimConfig::Mode::Parallel, OrderingSource::Test,
                        kModemLink);
    EXPECT_EQ(par.mispredictions, 0u);
}

TEST_F(SimFixture, TestOrderingBeatsStaticOnModem)
{
    SimResult strict = run(SimConfig::Mode::Strict,
                           OrderingSource::Static, kModemLink);
    SimResult scg = run(SimConfig::Mode::Parallel,
                        OrderingSource::Static, kModemLink);
    SimResult test = run(SimConfig::Mode::Parallel,
                         OrderingSource::Test, kModemLink);
    EXPECT_LE(normalizedPct(test, strict), normalizedPct(scg, strict));
}

TEST_F(SimFixture, DataPartitioningNeverHurtsInterleaved)
{
    SimResult strict = run(SimConfig::Mode::Strict,
                           OrderingSource::Static, kModemLink);
    SimResult plain = run(SimConfig::Mode::Interleaved,
                          OrderingSource::Test, kModemLink);
    SimResult part = run(SimConfig::Mode::Interleaved,
                         OrderingSource::Test, kModemLink, 4, true);
    EXPECT_LE(part.totalCycles, plain.totalCycles);
    EXPECT_LT(normalizedPct(part, strict), 100.0);
}

TEST_F(SimFixture, NormalizedPctBasics)
{
    SimResult strict = run(SimConfig::Mode::Strict,
                           OrderingSource::Static, kT1Link);
    EXPECT_DOUBLE_EQ(normalizedPct(strict, strict), 100.0);
    SimResult half = strict;
    half.totalCycles /= 2;
    EXPECT_DOUBLE_EQ(normalizedPct(half, strict), 50.0);
    // Degenerate zero-cycle baseline: defined as 100%, never inf/NaN.
    SimResult zero;
    EXPECT_DOUBLE_EQ(normalizedPct(strict, zero), 100.0);
    EXPECT_DOUBLE_EQ(normalizedPct(zero, zero), 100.0);
}

TEST_F(SimFixture, OrderingsAreCachedAndComplete)
{
    const FirstUseOrder &a = ctx_.ordering(OrderingSource::Train);
    const FirstUseOrder &b = ctx_.ordering(OrderingSource::Train);
    EXPECT_EQ(&a, &b); // cached
    EXPECT_EQ(a.order.size(), wl_.program.methodCount());
    const FirstUseOrder &test = ctx_.ordering(OrderingSource::Test);
    EXPECT_GT(test.usedCount, 0u);
    EXPECT_GE(test.usedCount, a.usedCount);
}

TEST_F(SimFixture, UnityFaultPlanIsByteIdenticalToConstantRate)
{
    // An all-nominal-content plan that nonetheless takes the faulted
    // evaluation path (a trace of 1.0-multiplier segments) must
    // reproduce the constant-rate engine cycle-for-cycle in every
    // mode — the acceptance gate for the piecewise-rate integrator.
    FaultPlan unity;
    unity.trace = BandwidthTrace({{0, 1.0}, {123'456, 1.0}});
    for (const LinkModel &link : {kT1Link, kModemLink}) {
        for (SimConfig::Mode mode :
             {SimConfig::Mode::Strict, SimConfig::Mode::Parallel,
              SimConfig::Mode::Interleaved}) {
            SimConfig cfg;
            cfg.mode = mode;
            cfg.ordering = OrderingSource::Train;
            cfg.link = link;
            cfg.parallelLimit = 4;
            SimResult nominal = runReplay(ctx_, cfg);
            cfg.faults.trace = unity.trace;
            SimResult faulted = runReplay(ctx_, cfg);
            EXPECT_EQ(nominal.totalCycles, faulted.totalCycles);
            EXPECT_EQ(nominal.transferCycles, faulted.transferCycles);
            EXPECT_EQ(nominal.invocationLatency,
                      faulted.invocationLatency);
            EXPECT_EQ(nominal.stallCycles, faulted.stallCycles);
            EXPECT_EQ(nominal.mispredictions, faulted.mispredictions);
            EXPECT_EQ(faulted.retryCount, 0u);
            EXPECT_EQ(faulted.degradedCycles, 0u);
        }
    }
}

TEST_F(SimFixture, FaultedRunDegradesNonStrictLessThanStrict)
{
    // The tentpole's headline claim in miniature: under the same
    // bandwidth dips and connection drops, overlap absorbs slack, so
    // non-strict loses fewer cycles than strict does.
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = kModemLink;
    SimConfig ns;
    ns.mode = SimConfig::Mode::Parallel;
    ns.ordering = OrderingSource::Train;
    ns.link = kModemLink;
    ns.parallelLimit = 4;
    SimResult strict_nom = runReplay(ctx_, strict);
    SimResult ns_nom = runReplay(ctx_, ns);

    uint64_t bytes = 0;
    for (uint16_t c = 0; c < wl_.program.classCount(); ++c)
        bytes += layoutOf(wl_.program.classAt(c)).totalSize;
    FaultPlan plan;
    plan.trace = BandwidthTrace::bursts(
        11, strict_nom.totalCycles / 16, 0.75,
        4 * strict_nom.totalCycles);
    plan.dropSeed = 11;
    // ~6 drops expected over the whole program volume.
    plan.dropsPerMByte = 6.0 * 1048576.0 / static_cast<double>(bytes);
    plan.maxAttempts = 2;
    plan.retryTimeoutCycles = strict_nom.totalCycles / 32;
    strict.faults = plan;
    ns.faults = plan;
    SimResult strict_f = runReplay(ctx_, strict);
    SimResult ns_f = runReplay(ctx_, ns);

    EXPECT_GT(strict_f.totalCycles, strict_nom.totalCycles);
    EXPECT_GE(ns_f.totalCycles, ns_nom.totalCycles);
    EXPECT_GT(strict_f.retryCount, 0u);
    EXPECT_GT(strict_f.degradedCycles, 0u);
    // Fewer cycles lost to the same faults.
    EXPECT_LT(ns_f.totalCycles - ns_nom.totalCycles,
              strict_f.totalCycles - strict_nom.totalCycles);
    // Execution work itself is untouched by link faults.
    EXPECT_EQ(ns_f.execCycles, ns_nom.execCycles);
}

TEST(SimSynthetic, WholePipelineOnGeneratedProgram)
{
    SyntheticSpec spec;
    spec.seed = 99;
    spec.classCount = 8;
    spec.methodsPerClass = 6;
    Program prog = makeSyntheticProgram(spec);
    NativeRegistry natives = standardNatives();
    SimContext ctx(prog, natives, {3, 5}, {3, 5, 9, 2});

    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = kModemLink;
    SimResult s = runReplay(ctx, strict);

    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Train;
    cfg.link = kModemLink;
    cfg.parallelLimit = 2;
    cfg.dataPartition = true;
    SimResult r = runReplay(ctx, cfg);
    EXPECT_LE(r.totalCycles, s.totalCycles);
    EXPECT_EQ(r.execCycles, s.execCycles);
}

TEST_F(SimFixture, NonEmptyCacheDirIsRejected)
{
    // Profiles and traces are always interpreted in the context: a
    // cache directory would silently do nothing, so it is an error.
    try {
        SimContext ctx(wl_.program, wl_.natives, wl_.trainInput,
                       wl_.testInput, "some-dir");
        ADD_FAILURE() << "cache_dir accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("SimContext cache_dir"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace nse
