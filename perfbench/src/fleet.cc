/**
 * @file
 * fleet — cacheless shared-uplink fleets under all four allocators.
 *
 * Why it exists: it is the server's scaling regime. Every client runs
 * the paper's headline configuration (parallel, train ordering, T1,
 * limit 4) over one uplink with the capacity of two T1 clients, and
 * arrivals are seeded uniform draws in a 2M-cycle window — short
 * against transfer times, so the uplink is overloaded. Fleet sizes
 * span an order of magnitude per policy: up to 512 clients for the
 * water-filling policies, 160 for deadline and 48 for propfair, whose
 * deadline-driven re-allocation costs the most per event. The largest
 * cells are capped so a pass stays under a second: timings are reduced
 * min-of-N per operation, which needs many passes per run. One operation is one (policy, size) fleet plus a
 * one-client fleet that must reproduce its solo replay.
 *
 * Stresses: the server event loop, the allocators and the whole-fleet
 * engine re-evaluation after each rate change (rate apply is O(n)
 * today). Bypasses: the edge cache and admission; the vm, analyses
 * and scheduler run only in set-up.
 */

#include "support/error.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

using nse::SimConfig;
using nse::SimResult;

struct Cell
{
    const char *policy;
    size_t clients;
};

constexpr Cell kCells[] = {
    {"equal", 32},    {"equal", 512},    {"weighted", 32},
    {"weighted", 512}, {"deadline", 16},  {"deadline", 160},
    {"propfair", 8},  {"propfair", 48},
};

std::string
cellName(const Cell &c)
{
    return nse::cat(c.policy, ".", c.clients);
}

SimConfig
headline()
{
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = nse::OrderingSource::Train;
    cfg.link = nse::kT1Link;
    cfg.parallelLimit = 4;
    return cfg;
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    Digest da, db;
    da.add(a);
    db.add(b);
    return da.value() == db.value();
}

class Fleet : public BenchWorkload
{
  public:
    explicit Fleet(uint64_t seed) : seed_(seed) {}

    void
    setup(Harness &h) override
    {
        contexts_.clear();
        programs_ = buildPrograms(h);
        strict_.clear();
        solo_.clear();
        for (const nse::Workload &w : programs_) {
            contexts_.push_back(makeContext(w));
            const nse::SimContext &ctx = *contexts_.back();
            Ledger ledger;
            deriveArtifacts(h, ctx, headline(), ledger);
            {
                Harness::Scope s(h, "sim.replay.strict");
                strict_.push_back(nse::runReplay(ctx, strictOf(headline())));
            }
            Harness::Scope s(h, "sim.replay.nominal");
            solo_.push_back(nse::runReplay(ctx, headline()));
        }
        allocators_.clear();
        for (const Cell &c : kCells)
            allocators_.push_back(nse::makeAllocator(c.policy));
    }

    SimSummary
    pass(Harness &h) override
    {
        SimSummary sum;
        for (size_t c = 0; c < std::size(kCells); ++c)
            h.op("fleet.cell", [&] { runCell(h, c, sum); });
        return sum;
    }

  private:
    void
    runCell(Harness &h, size_t c, SimSummary &sum)
    {
        const Cell &cell = kCells[c];
        const size_t nprog = contexts_.size();
        std::vector<nse::ClientSpec> fleet(cell.clients);
        for (size_t i = 0; i < cell.clients; ++i) {
            fleet[i].ctx = contexts_[i % nprog].get();
            fleet[i].config = headline();
            fleet[i].weight = i % 2 ? 2.0 : 1.0;
        }
        nse::ServerOptions opts;
        opts.uplinkBytesPerCycle = 2.0 * nse::linkRate(nse::kT1Link);
        opts.allocator = allocators_[c].get();
        opts.arrivals.kind = nse::ArrivalKind::Uniform;
        opts.arrivals.seed = subSeed(seed_, c);
        opts.arrivals.windowCycles = 2'000'000;
        nse::ServerResult sr = runFleet(h, cellName(cell), fleet, opts);

        h.check(sr.clients.size() == cell.clients, "every client finished");
        for (size_t i = 0; i < sr.clients.size(); ++i) {
            const nse::ServerClientResult &r = sr.clients[i];
            h.check(r.arrival <= r.admitted && r.admitted <= r.finished &&
                        r.cacheWait == 0,
                    "arrival <= admitted <= finished, no cache wait");
            h.check(r.sim.execCycles <= r.sim.totalCycles &&
                        r.sim.stallCycles <=
                            r.sim.totalCycles - r.sim.execCycles,
                    "client exec + stall within total");
            sum.add(r.sim, strict_[i % nprog]);
        }
        sum.addMakespan(sr.makespan);
        h.digest().add(sr);

        // A one-client fleet under the same policy is the solo replay.
        Harness::Scope s(h, "bench.check");
        const size_t q = c % nprog;
        nse::ClientSpec one;
        one.ctx = contexts_[q].get();
        one.config = headline();
        nse::ServerOptions single = opts;
        single.arrivals = {};
        nse::ServerResult sr1 = nse::runServer({one}, single);
        h.check(sr1.clients.size() == 1 &&
                    sameResult(sr1.clients[0].sim, solo_[q]),
                "one-client fleet equals its solo runReplay");
        h.digest().add(sr1);
    }

    uint64_t seed_;
    std::vector<std::unique_ptr<nse::SimContext>> contexts_;
    std::vector<nse::Workload> programs_;
    std::vector<SimResult> strict_;
    std::vector<SimResult> solo_;
    std::vector<std::unique_ptr<nse::BandwidthAllocator>> allocators_;
};

} // namespace

std::vector<std::string>
fleetCellNames()
{
    std::vector<std::string> names;
    for (const Cell &c : kCells)
        names.push_back(cellName(c));
    return names;
}

std::unique_ptr<BenchWorkload>
makeFleet(uint64_t seed)
{
    return std::make_unique<Fleet>(seed);
}

} // namespace perfbench
