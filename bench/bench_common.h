/**
 * @file
 * Shared scaffolding for the experiment binaries: each bench/ target
 * regenerates one of the paper's tables or figures and prints it in
 * the paper's row/column shape (absolute numbers reflect our
 * substrate; the shapes are what reproduce).
 *
 * Every bench builds its workloads through one shared SimContext per
 * workload (record-once: each input is interpreted once per binary)
 * and evaluates configurations by trace replay on the
 * ExperimentRunner pool (replay-many).
 * Besides its text tables, each bench writes BENCH_<name>.json
 * (report/json.h) carrying the observability counters under
 * "metrics", and accepts --trace-out=<file> to additionally record
 * one canonical observed run as a Chrome trace-event JSON
 * (chrome://tracing / Perfetto).
 */

#ifndef NSE_BENCH_BENCH_COMMON_H
#define NSE_BENCH_BENCH_COMMON_H

#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/stall.h"
#include "sim/runner.h"
#include "sim/replay.h"
#include "workloads/workload.h"

namespace nse
{

/** A workload together with its shared context. */
struct BenchEntry
{
    Workload workload;
    std::shared_ptr<const SimContext> ctx;
};

/** The shared experiment pool (NSE_BENCH_THREADS; 0 = hardware). */
inline const ExperimentRunner &
benchRunner()
{
    static ExperimentRunner runner([] {
        const char *env = std::getenv("NSE_BENCH_THREADS");
        return env ? static_cast<unsigned>(std::atoi(env)) : 0u;
    }());
    return runner;
}

/** Build all six workloads with ready contexts. */
inline std::vector<BenchEntry>
benchWorkloads()
{
    std::vector<BenchEntry> out;
    for (Workload &w : allWorkloads()) {
        BenchEntry e;
        e.workload = std::move(w);
        out.push_back(std::move(e));
    }
    for (BenchEntry &e : out) {
        e.ctx = std::make_shared<SimContext>(
            e.workload.program, e.workload.natives,
            e.workload.trainInput, e.workload.testInput);
    }
    return out;
}

/** The entries as grid workloads for ExperimentRunner::runGrid. */
inline std::vector<GridWorkload>
gridWorkloads(const std::vector<BenchEntry> &entries)
{
    std::vector<GridWorkload> out;
    out.reserve(entries.size());
    for (const BenchEntry &e : entries)
        out.push_back({e.workload.name, e.ctx.get()});
    return out;
}

/** Print a bench header naming the paper artifact being reproduced. */
inline void
benchHeader(const std::string &artifact, const std::string &caption)
{
    std::cout << "==== " << artifact << " ====\n"
              << caption << "\n\n";
}

/** Destination of the --trace-out Chrome trace ("" = not requested). */
inline std::string &
benchTraceOut()
{
    static std::string path;
    return path;
}

/**
 * Parse the shared bench flags. Call first in every bench main.
 * Supported: --trace-out=<file> (write one observed run as Chrome
 * trace-event JSON; see maybeWriteBenchTrace). Unknown flags warn on
 * stderr and are ignored so wrappers can pass suites uniform args.
 */
inline void
benchInit(int argc, char **argv)
{
    const std::string kTraceOut = "--trace-out=";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind(kTraceOut, 0) == 0) {
            benchTraceOut() = arg.substr(kTraceOut.size());
        } else {
            std::cerr << "warning: unknown bench flag " << arg
                      << " (supported: --trace-out=<file>)\n";
        }
    }
}

/** Write the bench JSON and surface where it went (stderr, so stdout
 *  stays byte-identical to the golden report text). */
inline void
writeBenchJson(const BenchJson &json)
{
    std::string path = json.write();
    if (!path.empty())
        std::cerr << "bench JSON: " << path << "\n";
}

/**
 * Honor --trace-out: observe one canonical run of the first workload
 * (Parallel / Train ordering / T1 link / limit 4 — the paper's
 * headline configuration), write it as Chrome trace-event JSON, and
 * print its stall attribution. No-op when the flag was not given, so
 * un-traced bench output is unchanged.
 */
inline void
maybeWriteBenchTrace(const std::vector<BenchEntry> &entries)
{
    const std::string &path = benchTraceOut();
    if (path.empty() || entries.empty())
        return;
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Parallel;
    cfg.ordering = OrderingSource::Train;
    cfg.link = kT1Link;
    cfg.parallelLimit = 4;
    EventTrace trace;
    SimResult r = runReplay(*entries.front().ctx, cfg, &trace);
    if (writeChromeTraceFile(trace, path)) {
        std::cerr << "trace (" << entries.front().workload.name
                  << ", Parallel/Train/T1): " << path << "\n";
    }
    std::cout << "\n" << buildStallReport(trace, r).render();
}

} // namespace nse

#endif // NSE_BENCH_BENCH_COMMON_H
