/**
 * @file
 * edge — one cache-served heterogeneous fleet.
 *
 * Why it exists: it drives the server layer differently from `fleet`.
 * Clients mix all six programs and four artifact classes per program
 * (parallel, data-partitioned, interleaved, and a second ordering), so
 * the fleet addresses 24 distinct artifacts through a cold edge cache
 * whose capacity is half that working set, and LRU evicts. Seeded
 * bursty arrivals overload an admission limit of eight, so few clients
 * are active at once and rate apply is cheap; the door queue,
 * FetchWait and the origin uplink do the work instead. A server change that wins on
 * `fleet` by taxing admission or fetch shows up here. One operation is
 * one fleet run from a cold cache; the operations of a pass differ
 * only in their arrival seed.
 *
 * Stresses: cache (requests, joins, evictions, origin fetches) and
 * admission in the server. Bypasses: large-fleet rate apply; the vm,
 * analyses and scheduler run only in set-up.
 */

#include <map>

#include "cache/edge_cache.h"
#include "support/error.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

using nse::OrderingSource;
using nse::SimConfig;

constexpr size_t kClasses = 4;
/** Class popularity: of every eight requests for a program, four want
 *  class 0, two class 1, one each classes 2 and 3 — enough reuse for
 *  LRU to hit under a capacity below the working set. */
constexpr size_t kClassMix[] = {0, 1, 0, 2, 0, 1, 0, 3};
constexpr size_t kClients = 192;
constexpr size_t kFleetsPerPass = 8;
constexpr size_t kAdmissionLimit = 8;
/** Arrivals outpace service several times over, so the door queue
 *  holds most of the fleet and exactly kAdmissionLimit clients share
 *  the uplink: the simulated outcome then barely depends on where the
 *  seed puts the bursts. */
constexpr uint64_t kMeanGapCycles = 50'000'000;
const std::string kCellName = nse::cat("edge.", kClients);

SimConfig
classConfig(size_t cls)
{
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Train;
    cfg.link = nse::kT1Link;
    cfg.parallelLimit = 4;
    switch (cls) {
      case 0: break;
      case 1: cfg.dataPartition = true; break;
      case 2: cfg.mode = SimConfig::Mode::Interleaved; break;
      default: cfg.ordering = OrderingSource::RtaStatic; break;
    }
    return cfg;
}

class Edge : public BenchWorkload
{
  public:
    explicit Edge(uint64_t seed) : seed_(seed) {}

    void
    setup(Harness &h) override
    {
        fleet_.clear();
        contexts_.clear();
        programs_ = buildPrograms(h);
        strict_.clear();
        for (const nse::Workload &w : programs_) {
            contexts_.push_back(makeContext(w));
            const nse::SimContext &ctx = *contexts_.back();
            Ledger ledger;
            for (size_t cls = 0; cls < kClasses; ++cls)
                deriveArtifacts(h, ctx, classConfig(cls), ledger);
            Harness::Scope s(h, "sim.replay.strict");
            strict_.push_back(
                nse::runReplay(ctx, strictOf(classConfig(0))));
        }
        const size_t nprog = contexts_.size();
        std::map<nse::EdgeKey, uint64_t> artifacts;
        requestedBytes_ = 0;
        for (size_t i = 0; i < kClients; ++i) {
            nse::ClientSpec spec;
            spec.ctx = contexts_[i % nprog].get();
            spec.config = classConfig(
                kClassMix[(i / nprog) % std::size(kClassMix)]);
            uint64_t bytes = nse::artifactBytes(*spec.ctx, spec.config);
            artifacts[nse::edgeKeyOf(*spec.ctx, spec.config)] = bytes;
            requestedBytes_ += bytes;
            fleet_.push_back(std::move(spec));
        }
        workingSet_ = 0;
        for (const auto &kv : artifacts)
            workingSet_ += kv.second;
        allocator_ = nse::makeAllocator("equal");
    }

    SimSummary
    pass(Harness &h) override
    {
        SimSummary sum;
        std::vector<double> cacheWaits, doorWaits;
        for (size_t j = 0; j < kFleetsPerPass; ++j)
            h.op("edge.fleet",
                 [&] { runOne(h, j, sum, cacheWaits, doorWaits); });
        h.gauge("cache.wait_mcycles_p99", nearestRank(cacheWaits, 99) / 1e6);
        h.gauge("server.door_wait_mcycles_p99",
                nearestRank(doorWaits, 99) / 1e6);
        return sum;
    }

  private:
    void
    runOne(Harness &h, size_t j, SimSummary &sum,
           std::vector<double> &cacheWaits, std::vector<double> &doorWaits)
    {
        nse::EdgeCacheOptions copts;
        copts.capacityBytes = workingSet_ / 2;
        copts.policy = nse::EvictionPolicy::LRU;
        nse::EdgeCache cache(copts);

        nse::ServerOptions opts;
        opts.uplinkBytesPerCycle = 2.0 * nse::linkRate(nse::kT1Link);
        opts.allocator = allocator_.get();
        opts.arrivals.kind = nse::ArrivalKind::Bursty;
        opts.arrivals.seed = subSeed(seed_, j);
        opts.arrivals.meanGapCycles = kMeanGapCycles;
        opts.admissionLimit = kAdmissionLimit;
        opts.edgeCache = &cache;
        nse::ServerResult sr =
            runFleet(h, kCellName, fleet_, opts);

        const nse::EdgeCacheStats &st = cache.stats();
        h.check(st.hits + st.misses == st.requests,
                "hits + misses == requests");
        h.check(st.fetches + st.joins == st.misses,
                "fetches + joins == misses");
        h.check(st.insertions == st.evictions + st.residentEntries,
                "insertions == evictions + resident");
        h.check(st.insertedBytes - st.evictedBytes == st.residentBytes,
                "insertedBytes - evictedBytes == residentBytes");
        h.check(st.requests == kClients && st.bytesServed == requestedBytes_ &&
                    st.bytesFromOrigin <= st.bytesServed,
                "bytesServed == requested bytes >= bytesFromOrigin");
        h.check(sr.clients.size() == kClients, "every client finished");

        const size_t nprog = contexts_.size();
        for (size_t i = 0; i < sr.clients.size(); ++i) {
            const nse::ServerClientResult &r = sr.clients[i];
            h.check(r.admitted >= r.arrival &&
                        r.admitted - r.arrival >= r.cacheWait &&
                        r.finished >= r.admitted,
                    "admitted - arrival >= cacheWait");
            cacheWaits.push_back(static_cast<double>(r.cacheWait));
            doorWaits.push_back(
                static_cast<double>(r.admitted - r.arrival - r.cacheWait));
            sum.add(r.sim, strict_[i % nprog]);
        }
        sum.addMakespan(sr.makespan);
        h.digest().add(sr);
        h.digest().add(st);

        h.count("cache.requests", static_cast<double>(st.requests));
        h.count("cache.hits", static_cast<double>(st.hits));
        h.count("cache.misses", static_cast<double>(st.misses));
        h.count("cache.joins", static_cast<double>(st.joins));
        h.count("cache.evictions", static_cast<double>(st.evictions));
        h.count("cache.origin_bytes", static_cast<double>(st.bytesFromOrigin));
        h.count("cache.bytes_served", static_cast<double>(st.bytesServed));
    }

    uint64_t seed_;
    std::vector<nse::Workload> programs_;
    std::vector<std::unique_ptr<nse::SimContext>> contexts_;
    std::vector<nse::SimResult> strict_;
    std::vector<nse::ClientSpec> fleet_;
    uint64_t workingSet_ = 0;
    uint64_t requestedBytes_ = 0;
    std::unique_ptr<nse::BandwidthAllocator> allocator_;
};

} // namespace

std::vector<std::string>
edgeCellNames()
{
    return {kCellName};
}

std::unique_ptr<BenchWorkload>
makeEdge(uint64_t seed)
{
    return std::make_unique<Edge>(seed);
}

} // namespace perfbench
