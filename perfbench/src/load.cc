/**
 * @file
 * load — a newly arrived program made ready to evaluate.
 *
 * Why it exists: it is the only workload where the vm and the analyses
 * do the work. For each program the benchmark serializes its class
 * files, feeds them through StreamingLoader in seeded packet sizes,
 * verifies the loaded program, and builds a fresh SimContext on it.
 * On that context it decodes every method, runs the train profile and
 * records the test trace, builds the call graph and the use analysis
 * behind the `mustuse` ordering, derives the T1 schedule, proves the
 * stall bounds, and runs one replay checked against them. One
 * operation is one program; the interpreter-bound programs (Hanoi,
 * TestDes, JHLZip) and the dataflow-bound ones (BIT, Jess, JavaCup)
 * weigh equally in the operation geomean.
 *
 * Stresses: classfile, vm (loader, verifier, decoder, interpreter),
 * profile, analysis. Bypasses: server and edge cache; the scheduler
 * and replay run once per program.
 */

#include "analysis/stall_bounds.h"
#include "classfile/writer.h"
#include "support/error.h"
#include "support/rng.h"
#include "vm/streaming_loader.h"
#include "vm/verifier.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

using nse::OrderingSource;
using nse::SimConfig;

/** Wire packets between a small fragment and an Ethernet payload. */
constexpr uint64_t kMinPacket = 16;
constexpr uint64_t kMaxPacket = 1460;

SimConfig
proofConfig()
{
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::MustUse;
    cfg.link = nse::kT1Link;
    cfg.parallelLimit = 4;
    return cfg;
}

class Load : public BenchWorkload
{
  public:
    explicit Load(uint64_t seed) : seed_(seed) {}

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
            h.op("load.program", [&] { loadProgram(h, p, sum); });
        return sum;
    }

  private:
    void
    loadProgram(Harness &h, size_t p, SimSummary &sum)
    {
        const nse::Workload &w = programs_[p];
        std::vector<std::vector<uint8_t>> wire;
        {
            Harness::Scope s(h, "classfile.write");
            for (const nse::ClassFile &cf : w.program.classes())
                wire.push_back(nse::writeClassFile(cf).bytes);
        }
        for (const auto &bytes : wire)
            h.count("classfile.bytes", static_cast<double>(bytes.size()));

        // Packet sizes depend only on (seed, program), so every pass
        // feeds identical packets.
        std::vector<nse::ClassFile> loaded;
        {
            Harness::Scope s(h, "vm.stream_load");
            nse::Rng rng(subSeed(seed_, p));
            for (const auto &bytes : wire) {
                nse::StreamingLoader loader;
                for (size_t off = 0; off < bytes.size();) {
                    size_t n = static_cast<size_t>(
                        rng.range(kMinPacket, kMaxPacket));
                    n = std::min(n, bytes.size() - off);
                    loader.feed(bytes.data() + off, n);
                    off += n;
                }
                h.check(loader.complete() &&
                            loader.methodsReady() ==
                                loader.methodsDeclared(),
                        "loader complete with every method available");
                loaded.push_back(loader.classFile());
            }
        }
        nse::Program prog(std::move(loaded), w.program.entryClass(),
                          w.program.entryMethod());
        {
            Harness::Scope s(h, "vm.verify");
            nse::Verifier(prog).verifyAll();
        }

        std::unique_ptr<nse::SimContext> ctx;
        {
            Harness::Scope s(h, "sim.context");
            ctx = std::make_unique<nse::SimContext>(
                prog, w.natives, w.trainInput, w.testInput,
                /*cache_dir=*/"");
        }
        {
            Harness::Scope s(h, "vm.decode");
            prog.forEachMethod([&](nse::MethodId id, const nse::ClassFile &,
                                   const nse::MethodInfo &m) {
                if (!m.isNative())
                    ctx->decoded().get(id);
            });
        }
        {
            Harness::Scope s(h, "profile.train");
            h.count("vm.bytecodes", static_cast<double>(
                                        ctx->trainProfile().result.bytecodes));
        }
        Ledger ledger;
        deriveTrace(h, *ctx, ledger);
        deriveArtifacts(h, *ctx, proofConfig(), ledger);

        nse::LayoutKey lk = nse::layoutKeyOf(proofConfig());
        nse::ScheduleKey sk;
        sk.layout = lk;
        sk.cyclesPerByte = nse::kT1Link.cyclesPerByte;
        sk.limit = proofConfig().parallelLimit;
        nse::StallBoundReport proof;
        {
            Harness::Scope s(h, "analysis.stall_bounds");
            nse::StallBoundInput in{prog,           ctx->useAnalysis(),
                                    ctx->layout(lk), ctx->schedule(sk),
                                    nse::kT1Link,   sk.limit};
            proof = nse::computeStallBounds(in);
        }
        nse::SimResult run, strict;
        {
            Harness::Scope s(h, "sim.replay.nominal");
            run = nse::runReplay(*ctx, proofConfig());
        }
        {
            Harness::Scope s(h, "sim.replay.strict");
            strict = nse::runReplay(*ctx, strictOf(proofConfig()));
        }
        h.check(proof.runLowerBound <= run.stallCycles &&
                    run.stallCycles <= proof.runUpperBound,
                "lower <= measured stall <= upper");
        h.check(proof.provableStalls == 0 || run.stallCycles > 0,
                "no provable-stall false positive");
        h.digest().add(proof);
        h.digest().add(run);
        h.digest().add(strict);
        h.count("analysis.provable_stalls",
                static_cast<double>(proof.provableStalls));
        h.count("analysis.certified_stall_cycles",
                static_cast<double>(proof.runLowerBound));
        h.count("analysis.measured_stall_cycles",
                static_cast<double>(run.stallCycles));
        h.count("sim.mispredictions", static_cast<double>(run.mispredictions));
        h.count("sim.trace_events",
                static_cast<double>(ctx->trace().events.size()));
        sum.add(run, strict);
        sum.addMakespan(run.totalCycles);
    }

    uint64_t seed_;
    std::vector<nse::Workload> programs_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeLoad(uint64_t seed)
{
    return std::make_unique<Load>(seed);
}

} // namespace perfbench
