/**
 * @file
 * Extension — the execution core itself: how fast is the simulator's
 * substrate? Two dispatch strategies execute identical semantics
 * (vm/interpreter.h): the classic one-Instruction-at-a-time switch
 * (the oracle) and computed-goto direct threading over the pre-decoded
 * IR (vm/decoded.h). This bench pins their relative throughput, plus
 * the trace-replay integrator's event rate.
 *
 * Three tables:
 *
 *   live dispatch    every workload interpreted end-to-end under each
 *                    dispatch mode, in ns per executed bytecode (the
 *                    threaded runs share SimContext's decode cache,
 *                    so verify+decode is paid once, as in real use);
 *   synthetic loop   a generated arithmetic-loop program
 *                    (workloads/synthetic.h) that isolates dispatch
 *                    from native/invoke overhead — the stable number
 *                    the CI floor asserts on (threaded must stay
 *                    >= 5x classic). Classic and threaded runs are
 *                    interleaved and each keeps its minimum, so a
 *                    burst of machine load cannot land on one side;
 *   replay           trace-replay throughput per workload: best
 *                    runReplay wall-clock and replayed first-use
 *                    events per second.
 *
 * Timing tables vary run to run; this bench has no golden. The
 * speedups and the replay rate go under "timing" in BENCH_ext_vm.json
 * (its "metrics" stay empty), where CI reads them.
 */

#include <chrono>
#include <cmath>
#include <functional>

#include "bench/bench_common.h"
#include "report/json.h"
#include "report/table.h"
#include "sim/replay.h"
#include "vm/interpreter.h"
#include "workloads/synthetic.h"

using namespace nse;

namespace
{

/** Synthetic-loop sampling: interleaved classic/threaded rounds. */
constexpr int kSynMinReps = 15;
constexpr double kSynBudgetNs = 1e9;

/** One full interpretation; returns ns/bytecode. */
double
interpretOnce(const Program &prog, const NativeRegistry &natives,
              const std::vector<int64_t> &input, DispatchMode mode,
              const DecodedCache *decoded, uint64_t *bytecodes)
{
    VmOptions opts;
    opts.dispatch = mode;
    Vm vm(prog, natives, input, opts, decoded);
    auto t0 = std::chrono::steady_clock::now();
    VmResult r = vm.run();
    auto t1 = std::chrono::steady_clock::now();
    if (bytecodes)
        *bytecodes = r.bytecodes;
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(r.bytecodes ? r.bytecodes : 1);
}

/**
 * Time each of `fns` (ns per call) with the calls interleaved: one
 * warm-up call each, then rounds calling every fn once, until every fn
 * has >= `min_reps` samples and `budget_ns` of samples have been
 * taken in total. Each fn keeps its minimum.
 */
std::vector<double>
bestNs(const std::vector<std::function<void()>> &fns, int min_reps = 5,
       double budget_ns = 25e6)
{
    for (const auto &fn : fns)
        fn();
    std::vector<double> best(fns.size(), 0.0);
    double total = 0.0;
    for (int reps = 0; reps < min_reps || total < budget_ns; ++reps) {
        for (size_t i = 0; i < fns.size(); ++i) {
            auto t0 = std::chrono::steady_clock::now();
            fns[i]();
            auto t1 = std::chrono::steady_clock::now();
            double ns =
                std::chrono::duration<double, std::nano>(t1 - t0).count();
            best[i] = reps == 0 ? ns : std::min(best[i], ns);
            total += ns;
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Extension (execution core)",
                "Dispatch throughput (classic switch vs direct "
                "threading) and trace-replay throughput");

    std::vector<BenchEntry> entries = benchWorkloads();
    BenchJson json("ext_vm");

    // ---- Live dispatch: full workloads, end to end. -----------------
    Table live({"Program", "Bytecodes", "Classic ns/bc", "Threaded ns/bc",
                "Thr/Classic"});
    double log_thr = 0.0;
    for (const BenchEntry &e : entries) {
        const Program &prog = e.workload.program;
        const NativeRegistry &nat = e.workload.natives;
        const std::vector<int64_t> &in = e.workload.testInput;
        const DecodedCache *dc = &e.ctx->decoded();
        uint64_t bc = 0;
        // Warm the shared decode cache so every timed threaded run
        // measures execution, not one-time verify+decode (real use
        // amortizes it across a whole experiment grid).
        interpretOnce(prog, nat, in, DispatchMode::Threaded, dc, &bc);
        double thr = interpretOnce(prog, nat, in,
                                   DispatchMode::Threaded, dc, &bc);
        double cl = interpretOnce(prog, nat, in, DispatchMode::Classic,
                                  nullptr, nullptr);
        log_thr += std::log(cl / thr);
        live.addRow({e.workload.name, std::to_string(bc), fmtF(cl, 2),
                     fmtF(thr, 2), fmtF(cl / thr, 2)});
    }
    double n = static_cast<double>(entries.size());
    double geo_thr = std::exp(log_thr / n);
    live.addRow({"GEOMEAN", "", "", "", fmtF(geo_thr, 2)});
    std::cout << live.render() << "\n";
    json.addTable("live dispatch", live);
    json.setTiming("workload_threaded_speedup", geo_thr);

    // ---- Synthetic loop: the CI-pinned dispatch number. -------------
    // A generated arithmetic-loop program with almost no native or
    // invoke time, so the measurement is dispatch plus fused-operator
    // work and stays stable across runs and machines.
    SyntheticSpec spec;
    spec.seed = 7;
    spec.classCount = 8;
    spec.methodsPerClass = 10;
    spec.reachablePct = 90;
    spec.workScale = 256;
    Program syn = makeSyntheticProgram(spec);
    NativeRegistry syn_nat = standardNatives();
    std::vector<int64_t> syn_in;
    for (int i = 0; i < 2000; ++i)
        syn_in.push_back(static_cast<int64_t>(i * 2654435761ull % 1000));
    DecodedCache syn_dc(syn);

    uint64_t syn_bc = 0;
    auto syn_run = [&](DispatchMode mode, const DecodedCache *dc) {
        return [&, mode, dc] {
            interpretOnce(syn, syn_nat, syn_in, mode, dc, &syn_bc);
        };
    };
    std::vector<double> syn_ns =
        bestNs({syn_run(DispatchMode::Classic, nullptr),
                syn_run(DispatchMode::Threaded, &syn_dc)},
               kSynMinReps, kSynBudgetNs);
    double syn_cl = syn_ns[0], syn_thr = syn_ns[1];
    double per_bc = static_cast<double>(syn_bc);

    Table synth({"Mode", "ns/bc", "Speedup vs classic"});
    synth.addRow({"Classic", fmtF(syn_cl / per_bc, 2), fmtF(1.0, 2)});
    synth.addRow({"Threaded", fmtF(syn_thr / per_bc, 2),
                  fmtF(syn_cl / syn_thr, 2)});
    std::cout << synth.render() << "\n";
    json.addTable("synthetic dispatch", synth);
    json.setTiming("synthetic_threaded_speedup", syn_cl / syn_thr);

    // ---- Replay: trace-replay throughput. ---------------------------
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Train;
    cfg.link = kT1Link;
    cfg.parallelLimit = 4;

    Table rep({"Program", "Events", "Replay us", "Events/s"});
    double log_eps = 0.0;
    for (const BenchEntry &e : entries) {
        const SimContext &ctx = *e.ctx;
        double events = static_cast<double>(ctx.trace().events.size());
        double ns = bestNs({[&] { runReplay(ctx, cfg); }})[0];
        log_eps += std::log(events * 1e9 / ns);
        rep.addRow({e.workload.name,
                    std::to_string(ctx.trace().events.size()),
                    fmtF(ns / 1e3, 1),
                    std::to_string(
                        static_cast<uint64_t>(events * 1e9 / ns))});
    }
    double geo_eps = std::exp(log_eps / n);
    rep.addRow({"GEOMEAN", "", "",
                std::to_string(static_cast<uint64_t>(geo_eps))});
    std::cout << rep.render();
    json.addTable("replay integrator", rep);
    json.setTiming("replay_events_per_sec", geo_eps);

    writeBenchJson(json);
    maybeWriteBenchTrace(entries);
    return 0;
}
