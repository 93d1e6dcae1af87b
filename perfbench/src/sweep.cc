/**
 * @file
 * sweep — the paper's solo experiment grid plus its fault and runahead
 * extensions.
 *
 * Why it exists: it is what a researcher runs. Each pass builds a
 * fresh SimContext per program, as every bench binary does, then
 * evaluates every cell: strict; parallel with limits {1, 2, 4, inf};
 * interleaved; across orderings {scg, rta, train, test} x {reordered,
 * partitioned} x links {T1, modem} x {nominal, seeded faults, seeded
 * faults + runahead} (runahead is a parallel-mode feature, so the
 * third variant has no interleaved cells, and strict has no ordering).
 * One operation is one cell, including the first-touch derivation of
 * the artifacts it needs, so tail latency shows schedule builds.
 *
 * Stresses: transfer (greedy schedule derivation) and sim (faulted and
 * runahead replay); the vm records one trace and one train profile per
 * program. Bypasses: server, edge cache and the dataflow use analysis.
 */

#include "support/error.h"
#include "transfer/faults.h"
#include "transfer/link.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

using nse::OrderingSource;
using nse::SimConfig;
using nse::SimResult;

/** Seeded bursts plus drops, the "moderate" level of the fault bench:
 *  ~6 drops per program volume, 0.75x bursts, up to 2 retries. */
nse::FaultPlan
faultPlan(uint64_t seed, uint64_t strict_cycles, uint64_t total_bytes)
{
    nse::FaultPlan plan;
    plan.trace = nse::BandwidthTrace::bursts(
        seed, std::max<uint64_t>(strict_cycles / 16, 1), 0.75,
        4 * strict_cycles);
    plan.dropSeed = seed;
    plan.dropsPerMByte =
        6.0 * 1048576.0 / static_cast<double>(total_bytes);
    plan.maxAttempts = 2;
    plan.retryTimeoutCycles = std::max<uint64_t>(strict_cycles / 48, 1);
    return plan;
}

enum class Variant
{
    Nominal,
    Faulted,
    Runahead,
};

const char *
replaySpan(Variant v)
{
    switch (v) {
      case Variant::Nominal: return "sim.replay.nominal";
      case Variant::Faulted: return "sim.replay.faulted";
      case Variant::Runahead: return "sim.replay.runahead";
    }
    return "";
}

class Sweep : public BenchWorkload
{
  public:
    explicit Sweep(uint64_t seed) : seed_(seed) {}

    void
    setup(Harness &h) override
    {
        programs_ = buildPrograms(h);
    }

    SimSummary
    pass(Harness &h) override
    {
        SimSummary sum;
        for (size_t p = 0; p < programs_.size(); ++p)
            sweepProgram(h, p, sum);
        return sum;
    }

  private:
    void
    sweepProgram(Harness &h, size_t p, SimSummary &sum)
    {
        std::unique_ptr<nse::SimContext> ctx;
        Ledger ledger;
        h.op(
            "sweep.context",
            [&] {
                {
                    Harness::Scope s(h, "sim.context");
                    ctx = makeContext(programs_[p]);
                }
                deriveTrace(h, *ctx, ledger);
            },
            /*sampled=*/false);
        if (!ledger.trace)
            return;
        const nse::LinkModel links[] = {nse::kT1Link, nse::kModemLink};
        for (size_t l = 0; l < 2; ++l) {
            const nse::LinkModel &link = links[l];
            uint64_t strictCycles =
                nse::transferCost(ctx->totalBytes(), link) +
                ctx->trace().totals.execCycles;
            nse::FaultPlan plan = faultPlan(subSeed(seed_, 2 * p + l),
                                            strictCycles, ctx->totalBytes());
            SimResult strict[2];
            for (Variant v :
                 {Variant::Nominal, Variant::Faulted, Variant::Runahead}) {
                SimConfig base;
                base.link = link;
                if (v != Variant::Nominal)
                    base.faults = plan;
                SimResult &ref = strict[v == Variant::Nominal ? 0 : 1];
                if (v != Variant::Runahead)
                    ref = cell(h, *ctx, ledger, strictOf(base), v, nullptr,
                               sum);
                for (OrderingSource src :
                     {OrderingSource::Static, OrderingSource::RtaStatic,
                      OrderingSource::Train, OrderingSource::Test}) {
                    for (bool partitioned : {false, true}) {
                        SimConfig cfg = base;
                        cfg.ordering = src;
                        cfg.dataPartition = partitioned;
                        if (v == Variant::Runahead) {
                            cfg.runaheadDepth = 16;
                            cfg.runaheadK = 4;
                        }
                        cfg.mode = SimConfig::Mode::Parallel;
                        for (int limit : {1, 2, 4, 0}) {
                            cfg.parallelLimit = limit;
                            cell(h, *ctx, ledger, cfg, v, &ref, sum);
                        }
                        if (v != Variant::Runahead) {
                            cfg.mode = SimConfig::Mode::Interleaved;
                            cfg.parallelLimit = 1;
                            cell(h, *ctx, ledger, cfg, v, &ref, sum);
                        }
                    }
                }
            }
        }
    }

    /** One cell: derive, replay, check. `strict` is the cell's strict
     *  reference (null for a strict cell). */
    SimResult
    cell(Harness &h, const nse::SimContext &ctx, Ledger &ledger,
         const SimConfig &cfg, Variant v, const SimResult *strict,
         SimSummary &sum)
    {
        SimResult r;
        h.op("sweep.cell", [&] {
            deriveArtifacts(h, ctx, cfg, ledger);
            {
                Harness::Scope s(h, strict ? replaySpan(v)
                                           : "sim.replay.strict");
                r = nse::runReplay(ctx, cfg);
            }
            h.check(r.execCycles <= r.totalCycles,
                    "execCycles <= totalCycles");
            h.check(r.stallCycles <= r.totalCycles - r.execCycles,
                    "stallCycles <= totalCycles - execCycles");
            if (v == Variant::Nominal)
                h.check(r.retryCount == 0, "nominal cell has no retries");
            h.digest().add(r);
            h.count("sim.mispredictions",
                    static_cast<double>(r.mispredictions));
            h.count("transfer.retries", static_cast<double>(r.retryCount));
            if (strict)
                h.count("sim.trace_events",
                        static_cast<double>(ctx.trace().events.size()));
            // The simulated metrics are the paper's nominal headline;
            // faulted cells would tie them to the fault seed.
            if (strict && v == Variant::Nominal) {
                sum.add(r, *strict);
                sum.addMakespan(r.totalCycles);
            }
        });
        return r;
    }

    uint64_t seed_;
    std::vector<nse::Workload> programs_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeSweep(uint64_t seed)
{
    return std::make_unique<Sweep>(seed);
}

} // namespace perfbench
