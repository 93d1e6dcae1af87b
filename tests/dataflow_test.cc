/**
 * @file
 * Dataflow framework + use-distance analysis tests.
 *
 * The load-bearing checks are the soundness pins against recorded
 * execution traces: for every first-use event the hook clock must sit
 * inside the analysis's [mayMin, mustMax] envelope, on the real
 * workloads and on randomized synthetic programs alike. These are the
 * facts the static stall prover's sandwich rests on
 * (analysis/stall_bounds.h).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/first_use.h"
#include "sim/context.h"
#include "support/rng.h"
#include "vm/decoded.h"
#include "vm/natives.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

/**
 * Minimal forward problem for the generic solver: minimum decoded
 * cost from the method entry to each block entry, back edges dropped
 * (a DAG shortest path — enough to exercise direction, meet, and the
 * back-edge hook).
 */
struct MinCostProblem
{
    using State = uint64_t;
    static constexpr DataflowDir dir = DataflowDir::Forward;
    const std::vector<DInst> &plain;

    State boundary() const { return 0; }
    State init() const { return kDistInf; }

    void
    meet(State &into, const State &from) const
    {
        into = std::min(into, from);
    }

    std::optional<State>
    acrossBackEdge(const State &) const
    {
        return std::nullopt;
    }

    State
    transfer(const Cfg &cfg, uint32_t block, const State &in) const
    {
        if (in == kDistInf)
            return in;
        State s = in;
        const BasicBlock &b = cfg.blocks[block];
        for (uint32_t i = b.first; i <= b.last; ++i)
            s = distAdd(s, plain[i].cost);
        return s;
    }
};

TEST(DataflowEngine, ForwardMinCostReachesEveryBlock)
{
    Workload w = makeWorkload("Hanoi");
    DecodedCache dc(w.program);
    MethodId entry = w.program.entry();
    Cfg cfg = buildCfg(w.program, entry);
    MinCostProblem prob{dc.get(entry).plain};
    auto r = solveDataflow(cfg, prob);
    ASSERT_EQ(r.in.size(), cfg.blocks.size());
    // Entry block sees the boundary value; every DFS-reachable block
    // gets a finite distance; costs only grow along the block.
    EXPECT_EQ(r.in[0], 0u);
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (r.in[b] == kDistInf)
            continue;
        EXPECT_LE(r.in[b], r.out[b]);
    }
    EXPECT_GE(r.iterations, 1u);
}

/** Shared soundness pins for one analyzed, traced program. */
void
checkAnalysisAgainstTrace(const Program &prog, const CallGraph &cg,
                          const UseAnalysis &ua, const ExecTrace &trace)
{
    // First hook clock per method, from the recorded run.
    std::map<MethodId, uint64_t> first_clock;
    for (const TraceEvent &ev : trace.events)
        first_clock.emplace(ev.method, ev.execClock);

    // may is a subset of RTA-reachable; must is a subset of may (a
    // must fact lives inside a may entry, so the containment is
    // structural — what we check is that its bounds are coherent).
    for (const auto &[id, f] : ua.global()) {
        EXPECT_TRUE(cg.rtaReachable(id))
            << "may-used method not RTA-reachable: "
            << prog.methodLabel(id);
        if (f.must && f.mustMax != kDistInf) {
            EXPECT_LE(f.mayMin, f.mustMax)
                << prog.methodLabel(id);
        }
    }

    // Every traced first use is predicted possible, no earlier than
    // its mayMin lower bound.
    for (const auto &[id, clk] : first_clock) {
        auto it = ua.global().find(id);
        ASSERT_NE(it, ua.global().end())
            << "traced method missing from the may set: "
            << prog.methodLabel(id);
        EXPECT_LE(it->second.mayMin, clk) << prog.methodLabel(id);
    }

    // Every must fact is realized: the method executed, and within
    // its proved deadline when the bound is finite.
    for (const auto &[id, f] : ua.global()) {
        if (!f.must)
            continue;
        auto it = first_clock.find(id);
        ASSERT_NE(it, first_clock.end())
            << "must-used method never executed: "
            << prog.methodLabel(id);
        if (f.mustMax != kDistInf) {
            EXPECT_LE(it->second, f.mustMax) << prog.methodLabel(id);
        }
    }

    // The entry method anchors the lattice.
    UseFact entry = ua.globalOf(prog.entry());
    EXPECT_TRUE(entry.must);
    EXPECT_EQ(entry.mayMin, 0u);
    EXPECT_EQ(entry.mustMax, 0u);
}

TEST(UseAnalysis, SoundAgainstEveryWorkloadTrace)
{
    for (Workload &w : allWorkloads()) {
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        SCOPED_TRACE(w.name);
        checkAnalysisAgainstTrace(w.program, ctx.callGraph(),
                                  ctx.useAnalysis(), ctx.trace());
    }
}

class SyntheticSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SyntheticSweep, MustWithinMayWithinRtaOnRandomPrograms)
{
    Rng rng(GetParam() ^ 0xdf10);
    NativeRegistry natives = standardNatives();
    for (int round = 0; round < 5; ++round) {
        SyntheticSpec spec;
        spec.seed = rng.next();
        spec.classCount = 2 + static_cast<int>(rng.below(5));
        spec.methodsPerClass = 2 + static_cast<int>(rng.below(7));
        spec.reachablePct = 40 + static_cast<int>(rng.below(61));
        spec.workScale = 1 + static_cast<int>(rng.below(16));
        Program prog = makeSyntheticProgram(spec);
        SCOPED_TRACE("seed " + std::to_string(spec.seed));

        CallGraph cg = buildCallGraph(prog);
        DecodedCache dc(prog);
        UseAnalysis ua = analyzeUse(prog, cg, dc, &natives);

        std::vector<int64_t> input(rng.below(16));
        for (int64_t &v : input)
            v = static_cast<int64_t>(rng.below(2001)) - 1000;
        ExecTrace trace = recordTrace(prog, natives, input, {}, &dc);
        checkAnalysisAgainstTrace(prog, cg, ua, trace);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticSweep,
                         ::testing::Values(21, 22, 23, 24));

TEST(MustUseOrdering, PermutesRtaSlotsOnly)
{
    for (Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
        const FirstUseOrder &rta =
            ctx.ordering(OrderingSource::RtaStatic);
        const FirstUseOrder &mu = ctx.ordering(OrderingSource::MustUse);
        const UseAnalysis &ua = ctx.useAnalysis();

        ASSERT_EQ(mu.order.size(), rta.order.size());
        EXPECT_EQ(mu.usedCount, rta.usedCount);
        // Same methods overall; the cold/dead tail is untouched.
        std::set<MethodId> a(mu.order.begin(), mu.order.end());
        std::set<MethodId> b(rta.order.begin(), rta.order.end());
        EXPECT_EQ(a, b);
        for (size_t i = mu.usedCount; i < mu.order.size(); ++i)
            EXPECT_EQ(mu.order[i], rta.order[i]);
        // Slots not holding a proved-deadline method are untouched;
        // the proved ones appear in ascending deadline order.
        uint64_t last = 0;
        for (size_t i = 0; i < mu.usedCount; ++i) {
            UseFact f = ua.globalOf(mu.order[i]);
            if (f.must && f.mustMax != kDistInf) {
                EXPECT_GE(f.mustMax, last);
                last = f.mustMax;
            } else {
                EXPECT_EQ(mu.order[i], rta.order[i]);
            }
        }
    }
}

} // namespace
} // namespace nse
