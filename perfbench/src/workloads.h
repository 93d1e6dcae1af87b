/**
 * @file
 * The benchmark's workloads. Each is a closed loop — one process, one
 * thread, one operation at a time — whose inputs come from the seed
 * alone; see the comment on each factory for why it exists and which
 * layers it stresses and bypasses.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "server/server_sim.h"
#include "sim/context.h"
#include "sim/replay.h"
#include "workloads/workload.h"

namespace perfbench
{

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Build everything the passes reuse, replacing any earlier
     *  set-up. Runs inside a set-up phase of `h`. */
    virtual void setup(Harness &h) = 0;

    /** One pass over the workload's fixed operation list. Every pass
     *  of a run does identical work and yields an identical digest. */
    virtual SimSummary pass(Harness &h) = 0;
};

/** `seed` drives every generated input of the workload. */
std::unique_ptr<BenchWorkload> makeSweep(uint64_t seed);
std::unique_ptr<BenchWorkload> makeFleet(uint64_t seed);
std::unique_ptr<BenchWorkload> makeEdge(uint64_t seed);
std::unique_ptr<BenchWorkload> makeLoad(uint64_t seed);

/**
 * The artifacts already derived on one context, so deriveArtifacts()
 * opens a span only where a memoized accessor does real work (its
 * first touch) and counts the layouts and schedules built.
 */
struct Ledger
{
    std::set<nse::OrderingSource> orders, partitions, cycles;
    std::set<nse::LayoutKey> layouts;
    std::set<nse::ScheduleKey> schedules;
    bool trace = false;
    bool callGraph = false;
};

/** Names of the fleet cells each pass runs, as used in the
 *  server.run_ms.<cell> and server.us_per_event.<cell> metrics. */
std::vector<std::string> fleetCellNames();
std::vector<std::string> edgeCellNames();

/** The six programs, built under a `workloads.build` span. */
std::vector<nse::Workload> buildPrograms(Harness &h);

/** A context with the on-disk trace cache off. */
std::unique_ptr<nse::SimContext> makeContext(const nse::Workload &w);

/**
 * Call the memoized accessors a replay of `cfg` would touch, each under
 * its layer's span, so derivation and replay land in separate spans.
 * The work done is the same as letting runReplay touch them.
 */
void deriveArtifacts(Harness &h, const nse::SimContext &ctx,
                     const nse::SimConfig &cfg, Ledger &ledger);

/** The test-input trace (the vm's instrumented run), recorded under
 *  its span on first touch. */
void deriveTrace(Harness &h, const nse::SimContext &ctx, Ledger &ledger);

/**
 * Run one fleet. Traced, a decorator times every call into the
 * allocator and ServerOptions::allocationProbe measures the share of clients
 * whose rate changed at each allocation instant; both feed the
 * server.* counters. `cell` names the span, server.run.<cell>.
 */
nse::ServerResult runFleet(Harness &h, const std::string &cell,
                           const std::vector<nse::ClientSpec> &clients,
                           nse::ServerOptions opts);

/** The strict run a configuration is normalized to: same link, same
 *  fault plan. */
nse::SimConfig strictOf(const nse::SimConfig &cfg);

/** Sub-seed `stream` of `seed` (independent streams per input kind). */
uint64_t subSeed(uint64_t seed, uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
