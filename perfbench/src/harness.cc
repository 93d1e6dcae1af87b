#include "harness.h"

#include <cmath>
#include <cstring>

#include "analysis/stall_bounds.h"
#include "cache/edge_cache.h"
#include "server/server_sim.h"
#include "sim/replay.h"

namespace perfbench
{

void
Digest::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::f64(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
Digest::str(const std::string &s)
{
    u64(s.size());
    for (char c : s)
        u64(static_cast<unsigned char>(c));
}

void
Digest::add(const nse::SimResult &r)
{
    u64(r.invocationLatency);
    u64(r.totalCycles);
    u64(r.execCycles);
    u64(r.transferCycles);
    u64(r.stallCycles);
    u64(r.mispredictions);
    u64(r.bytecodes);
    f64(r.cpi);
    u64(r.retryCount);
    u64(r.degradedCycles);
}

void
Digest::add(const nse::ServerResult &r)
{
    u64(r.clients.size());
    for (const nse::ServerClientResult &c : r.clients) {
        str(c.name);
        u64(c.arrival);
        u64(c.admitted);
        u64(c.finished);
        u64(c.cacheWait);
        u64(c.cacheHit);
        add(c.sim);
    }
    u64(r.makespan);
    u64(r.allocationIntervals);
    u64(r.events);
    u64(r.allocatorRuns);
}

void
Digest::add(const nse::EdgeCacheStats &s)
{
    for (uint64_t v : {s.requests, s.hits, s.misses, s.fetches, s.joins,
                       s.insertions, s.evictions, s.uncacheable,
                       s.residentEntries, s.residentBytes, s.insertedBytes,
                       s.evictedBytes, s.bytesServed, s.bytesFromOrigin})
        u64(v);
}

void
Digest::add(const nse::StallBoundReport &r)
{
    u64(r.methods.size());
    for (const nse::MethodStallBound &m : r.methods) {
        u64(m.method.classIdx);
        u64(m.method.methodIdx);
        str(m.label);
        u64(m.mustUsed);
        u64(m.mayMin);
        u64(m.mustMax);
        u64(m.earliestArrival);
        u64(m.latestArrival);
        u64(m.lowerStall);
        u64(m.upperStall);
    }
    u64(r.runLowerBound);
    u64(r.runUpperBound);
    u64(r.provableStalls);
}

Harness::Harness() : epoch_(Clock::now()) {}

double
Harness::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
}

void
Harness::beginPhase(bool setup, bool traced)
{
    Phase p;
    p.setup = setup;
    p.traced = traced;
    phaseStart_ = Clock::now();
    p.startUs = nowUs();
    phases_.push_back(std::move(p));
}

void
Harness::endPhase()
{
    Phase &p = phases_.back();
    p.wallS =
        std::chrono::duration<double>(Clock::now() - phaseStart_).count();
    p.endUs = nowUs();
}

Harness::Scope::Scope(Harness &h, std::string_view name) : h_(h)
{
    if (!h_.traced())
        return;
    Span s;
    s.name = std::string(name);
    s.startUs = h_.nowUs();
    s.parent = h_.open_.empty() ? -1 : h_.open_.back();
    s.op = h_.currentOp_;
    s.phase = h_.phases_.size() - 1;
    idx_ = static_cast<int64_t>(h_.spans_.size());
    h_.spans_.push_back(std::move(s));
    h_.open_.push_back(idx_);
}

Harness::Scope::~Scope()
{
    if (idx_ < 0)
        return;
    h_.spans_[static_cast<size_t>(idx_)].endUs = h_.nowUs();
    h_.open_.pop_back();
}

void
Harness::beginOp()
{
    ++attempted_;
    currentOp_ = nextOp_++;
    opFailed_ = false;
}

void
Harness::check(bool ok, const std::string &what)
{
    if (!ok)
        failOp("check failed: " + what);
}

void
Harness::failOp(const std::string &why)
{
    if (!opFailed_)
        ++failed_;
    opFailed_ = true;
    // Keep the first few messages; a systematic failure repeats.
    if (failures_.size() < 20)
        failures_.push_back(why);
}

void
Harness::endOp(Clock::time_point t0, bool sampled)
{
    phase().opMs.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
    phase().opSampled.push_back(sampled);
    currentOp_ = 0;
}

void
SimSummary::add(const nse::SimResult &run, const nse::SimResult &strict)
{
    normRatios_.push_back(static_cast<double>(run.totalCycles) /
                          static_cast<double>(strict.totalCycles));
    invocationRatios_.push_back(
        static_cast<double>(run.invocationLatency) /
        static_cast<double>(strict.invocationLatency));
    stalls_.push_back(static_cast<double>(run.stallCycles));
}

double
SimSummary::normTimePct() const
{
    return 100.0 * geomean(normRatios_);
}

double
SimSummary::invocationPct() const
{
    return 100.0 * geomean(invocationRatios_);
}

double
SimSummary::stallP99Mcycles() const
{
    return nearestRank(stalls_, 99.0) / 1e6;
}

double
SimSummary::makespanGcycles() const
{
    return static_cast<double>(makespan_) / 1e9;
}

} // namespace perfbench
