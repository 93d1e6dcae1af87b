/**
 * @file
 * End-to-end integration tests: every workload builds, verifies,
 * executes correctly on both inputs, and produces sane results under
 * every simulated configuration; restructured programs behave
 * identically to the originals.
 */

#include <gtest/gtest.h>

#include "analysis/first_use.h"
#include "profile/first_use_profile.h"
#include "restructure/reorder.h"
#include "sim/replay.h"
#include "vm/interpreter.h"
#include "vm/verifier.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

class WorkloadIntegration : public ::testing::TestWithParam<const char *>
{
  protected:
    Workload wl_ = makeWorkload(GetParam());
};

TEST_P(WorkloadIntegration, ProgramVerifies)
{
    Verifier verifier(wl_.program);
    EXPECT_NO_THROW(verifier.verifyAll());
}

TEST_P(WorkloadIntegration, ExecutesOnBothInputs)
{
    Vm train_vm(wl_.program, wl_.natives, wl_.trainInput);
    VmResult train = train_vm.run();
    EXPECT_GT(train.bytecodes, 1000u);
    EXPECT_FALSE(train.output.empty());

    Vm test_vm(wl_.program, wl_.natives, wl_.testInput);
    VmResult test = test_vm.run();
    EXPECT_GT(test.bytecodes, train.bytecodes)
        << "test input should be the larger run";
}

TEST_P(WorkloadIntegration, ReorderedProgramBehavesIdentically)
{
    Vm base_vm(wl_.program, wl_.natives, wl_.testInput);
    VmResult base = base_vm.run();

    FirstUseOrder order = staticFirstUse(wl_.program);
    Program reordered = reorderProgram(wl_.program, order);
    Verifier verifier(reordered);
    EXPECT_NO_THROW(verifier.verifyAll());

    Vm re_vm(reordered, wl_.natives, wl_.testInput);
    VmResult re = re_vm.run();
    EXPECT_EQ(base.output, re.output);
    EXPECT_EQ(base.bytecodes, re.bytecodes);
    EXPECT_EQ(base.execCycles, re.execCycles);
}

TEST_P(WorkloadIntegration, NonStrictBeatsStrictOnModem)
{
    SimContext ctx(wl_.program, wl_.natives, wl_.trainInput,
                   wl_.testInput);
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = kModemLink;
    SimResult strict_r = runReplay(ctx, strict);

    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Test;
    cfg.link = kModemLink;
    cfg.parallelLimit = 4;
    SimResult r = runReplay(ctx, cfg);

    EXPECT_LE(r.totalCycles, strict_r.totalCycles);
    EXPECT_LE(r.invocationLatency, strict_r.invocationLatency);
    // Execution itself is identical; only stalls differ.
    EXPECT_EQ(r.execCycles, strict_r.execCycles);
}

TEST_P(WorkloadIntegration, InterleavedBeatsStrictOnModem)
{
    SimContext ctx(wl_.program, wl_.natives, wl_.trainInput,
                   wl_.testInput);
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = kModemLink;
    SimResult strict_r = runReplay(ctx, strict);

    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Interleaved;
    cfg.ordering = OrderingSource::Test;
    cfg.link = kModemLink;
    SimResult r = runReplay(ctx, cfg);
    EXPECT_LT(normalizedPct(r, strict_r), 100.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadIntegration,
                         ::testing::Values("BIT", "Hanoi", "JavaCup",
                                           "Jess", "JHLZip", "TestDes"));

} // namespace
} // namespace nse
