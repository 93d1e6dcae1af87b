#include <optional>

#include "support/rng.h"
#include "workloads.h"

namespace perfbench
{

using nse::OrderingSource;
using nse::SimConfig;

std::vector<nse::Workload>
buildPrograms(Harness &h)
{
    Harness::Scope s(h, "workloads.build");
    return nse::allWorkloads();
}

std::unique_ptr<nse::SimContext>
makeContext(const nse::Workload &w)
{
    return std::make_unique<nse::SimContext>(
        w.program, w.natives, w.trainInput, w.testInput,
        /*cache_dir=*/"");
}

void
deriveTrace(Harness &h, const nse::SimContext &ctx, Ledger &ledger)
{
    if (ledger.trace)
        return;
    Harness::Scope s(h, "sim.record");
    h.count("vm.bytecodes",
            static_cast<double>(ctx.trace().totals.bytecodes));
    ledger.trace = true;
}

namespace
{

/** The call graph, built under its span on first touch. */
void
deriveCallGraph(Harness &h, const nse::SimContext &ctx, Ledger &ledger)
{
    if (ledger.callGraph)
        return;
    Harness::Scope s(h, "analysis.callgraph");
    ctx.callGraph();
    ledger.callGraph = true;
}

} // namespace

void
deriveArtifacts(Harness &h, const nse::SimContext &ctx,
                const SimConfig &cfg, Ledger &ledger)
{
    deriveTrace(h, ctx, ledger);
    if (cfg.mode == SimConfig::Mode::Strict)
        return;
    const OrderingSource src = cfg.ordering;
    const bool parallel = cfg.mode == SimConfig::Mode::Parallel;
    if (ledger.orders.insert(src).second) {
        if (src == OrderingSource::Train) {
            Harness::Scope s(h, "profile.train");
            h.count("vm.bytecodes",
                    static_cast<double>(ctx.trainProfile().result.bytecodes));
        }
        if (src == OrderingSource::RtaStatic ||
            src == OrderingSource::MustUse)
            deriveCallGraph(h, ctx, ledger);
        if (src == OrderingSource::MustUse) {
            Harness::Scope s(h, "analysis.use");
            ctx.useAnalysis();
        }
        Harness::Scope s(h, "analysis.first_use");
        ctx.ordering(src);
    }
    if (parallel && ledger.cycles.insert(src).second) {
        Harness::Scope s(h, "analysis.first_use");
        ctx.methodCycles(src);
    }
    if (cfg.dataPartition && ledger.partitions.insert(src).second) {
        Harness::Scope s(h, "restructure.partition");
        ctx.partition(src);
    }
    nse::LayoutKey lk = nse::layoutKeyOf(cfg);
    if (ledger.layouts.insert(lk).second) {
        Harness::Scope s(h, "restructure.layout");
        ctx.layout(lk);
        h.count("restructure.layouts_built", 1);
    }
    if (parallel) {
        nse::ScheduleKey sk;
        sk.layout = lk;
        sk.cyclesPerByte = cfg.link.cyclesPerByte;
        sk.limit = cfg.parallelLimit;
        if (ledger.schedules.insert(sk).second) {
            Harness::Scope s(h, "transfer.schedule");
            ctx.schedule(sk);
            h.count("transfer.schedules_built", 1);
        }
        if (cfg.runaheadDepth > 0)
            deriveCallGraph(h, ctx, ledger);
    }
}

namespace
{

/**
 * Decorator timing every call into a real allocator (traced runs
 * only); forwards everything, so results are unchanged.
 */
class TimedAllocator : public nse::BandwidthAllocator
{
  public:
    explicit TimedAllocator(const nse::BandwidthAllocator &inner)
        : inner_(inner)
    {}
    const char *name() const override { return inner_.name(); }
    void
    allocate(double capacity, uint64_t now,
             const std::vector<nse::ClientDemand> &demands,
             std::vector<double> &rates) const override
    {
        auto t0 = Harness::Clock::now();
        inner_.allocate(capacity, now, demands, rates);
        ms += std::chrono::duration<double, std::milli>(
                  Harness::Clock::now() - t0)
                  .count();
        ++calls;
    }
    bool usesDeadlines() const override { return inner_.usesDeadlines(); }
    uint64_t nextRefresh(uint64_t now,
                         const std::vector<nse::ClientDemand> &demands)
        const override
    {
        return inner_.nextRefresh(now, demands);
    }

    mutable double ms = 0.0;
    mutable uint64_t calls = 0;

  private:
    const nse::BandwidthAllocator &inner_;
};

} // namespace

nse::ServerResult
runFleet(Harness &h, const std::string &cell,
         const std::vector<nse::ClientSpec> &clients,
         nse::ServerOptions opts)
{
    std::optional<TimedAllocator> timed;
    std::vector<double> prev;
    double changedShare = 0.0;
    uint64_t instants = 0;
    if (h.traced()) {
        timed.emplace(*opts.allocator);
        opts.allocator = &*timed;
        opts.allocationProbe = [&](uint64_t,
                                   const std::vector<double> &rates) {
            prev.resize(rates.size(), 0.0);
            size_t changed = 0;
            for (size_t i = 0; i < rates.size(); ++i)
                changed += rates[i] != prev[i];
            prev = rates;
            changedShare += static_cast<double>(changed) /
                            static_cast<double>(rates.size());
            ++instants;
        };
    }
    nse::ServerResult sr;
    {
        Harness::Scope s(h, "server.run." + cell);
        sr = nse::runServer(clients, opts);
    }
    h.count("server.events", static_cast<double>(sr.events));
    h.count("server.events." + cell, static_cast<double>(sr.events));
    h.count("server.allocator_runs", static_cast<double>(sr.allocatorRuns));
    h.count("server.allocation_intervals",
            static_cast<double>(sr.allocationIntervals));
    if (timed) {
        h.count("server.allocate_ms", timed->ms);
        h.count("server.allocate_calls", static_cast<double>(timed->calls));
        h.count("server.changed_rate_share_sum", changedShare);
        h.count("server.allocation_instants", static_cast<double>(instants));
    }
    return sr;
}

SimConfig
strictOf(const SimConfig &cfg)
{
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = cfg.link;
    strict.faults = cfg.faults;
    return strict;
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    nse::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
    return rng.next();
}

} // namespace perfbench
