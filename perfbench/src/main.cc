/**
 * @file
 * perfbench: run one workload of the host-time benchmark.
 *
 *   perfbench --workload <sweep|fleet|edge|load> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file>]
 *   perfbench --self-test
 *
 * A run makes passes over the workload's fixed operation list until
 * `seconds` have elapsed (at least three), and repeats the set-up at
 * least five times, interleaved with the passes (setup_s is their
 * median). Repeated timings of the same work are reduced by their
 * minimum, operation by operation (see opMinimums). Untraced
 * (--trace 0) it prints the end-to-end metrics. Traced (--trace 1) it alternates untraced and
 * traced passes, prints the per-layer metrics — each layer's self
 * time and counts for one set-up plus one pass — and writes the spans
 * as a Chrome trace-event file. The last line of standard output is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * `correct` requires every operation's output check to pass and every
 * pass (traced or not) to produce the same result digest.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

/** Set-up runs at least kMinSetups times, interleaved with the passes
 *  so that it takes about kSetupShare of the run: its repetitions then
 *  sample the same machine conditions as the passes do. */
constexpr size_t kMinSetups = 5;
constexpr double kSetupShare = 0.15;
constexpr size_t kMinPasses = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceOut;
    bool selfTest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <sweep|fleet|edge|load> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] | --self-test\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--self-test") {
            a.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !v.empty();
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = end && *end == '\0' && a.seconds > 0;
        } else if (k == "--trace") {
            haveTrace = v == "0" || v == "1";
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            usage("unknown argument " + k);
        }
    }
    if (!a.selfTest && (a.workload.empty() || !haveSeed || !haveSeconds ||
                        !haveTrace))
        usage("--workload, --seed, --seconds (> 0) and --trace (0|1) "
              "are required");
    return a;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "sweep")
        return makeSweep(seed);
    if (name == "fleet")
        return makeFleet(seed);
    if (name == "edge")
        return makeEdge(seed);
    if (name == "load")
        return makeLoad(seed);
    usage("unknown workload " + name);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** "a.b" -> "a.b_ms"; "a.b.c.d" -> "a.b_ms.c.d". */
std::string
msMetricOf(const std::string &span)
{
    size_t first = span.find('.');
    size_t second =
        first == std::string::npos ? first : span.find('.', first + 1);
    if (second == std::string::npos)
        return span + "_ms";
    return span.substr(0, second) + "_ms" + span.substr(second);
}

/**
 * Per-layer values: for every span name its self time in ms, and every
 * counter, each as the median over traced set-up repetitions (as
 * setup_s) plus the minimum over traced passes (as wall_s). Counters
 * repeat exactly from pass to pass.
 */
std::map<std::string, double>
layerValues(const Harness &h)
{
    const std::vector<Phase> &phases = h.phases();
    std::vector<std::map<std::string, double>> perPhase(phases.size());
    std::vector<double> self = selfTimesUs(h.spans());
    for (size_t i = 0; i < h.spans().size(); ++i) {
        const Span &s = h.spans()[i];
        perPhase[s.phase][msMetricOf(s.name)] += self[i] / 1e3;
    }
    for (size_t p = 0; p < phases.size(); ++p)
        for (const auto &[k, v] : phases[p].counts)
            perPhase[p][k] += v;

    std::map<std::string, std::vector<double>> setupVals, passVals;
    size_t setups = 0, passes = 0;
    for (size_t p = 0; p < phases.size(); ++p) {
        if (!phases[p].traced)
            continue;
        (phases[p].setup ? setups : passes) += 1;
        for (const auto &[k, v] : perPhase[p])
            (phases[p].setup ? setupVals : passVals)[k].push_back(v);
    }
    std::map<std::string, double> out;
    for (auto &[k, vs] : setupVals) {
        vs.resize(setups, 0.0); // a repetition that never touched k
        out[k] += median(vs);
    }
    for (auto &[k, vs] : passVals) {
        vs.resize(passes, 0.0);
        out[k] += *std::min_element(vs.begin(), vs.end());
    }
    // Gauges are per-pass statistics; every pass yields the same.
    for (const Phase &ph : phases)
        if (ph.traced && !ph.setup)
            for (const auto &[k, v] : ph.gauges)
                out[k] = v;
    return out;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Host time on a shared machine only ever gains interference, in
 * episodes lasting seconds, so repeated timings of the same work are
 * reduced by their minimum (min-of-N): it tracks the program's own cost
 * where a median tracks the machine's load. The reduction is per
 * operation — each position in the pass's fixed operation list takes
 * its minimum over the untraced passes — because one clean sample per
 * operation is far likelier than one clean pass. wall_s is the sum of
 * these minimums over the whole list; the latency percentiles and the
 * geomean are taken across the sampled operations.
 */
struct OpTimes
{
    std::vector<double> all;     ///< every operation, in list order
    std::vector<double> sampled; ///< the latency samples among them
    size_t passes = 0;

    double
    totalMs() const
    {
        return std::accumulate(all.begin(), all.end(), 0.0);
    }
};

OpTimes
opMinimums(const Harness &h, bool traced = false)
{
    std::vector<const Phase *> passes;
    size_t ops = SIZE_MAX;
    for (const Phase &p : h.phases()) {
        if (!p.setup && p.traced == traced) {
            passes.push_back(&p);
            ops = std::min(ops, p.opMs.size());
        }
    }
    OpTimes t;
    t.passes = passes.size();
    for (size_t j = 0; !passes.empty() && j < ops; ++j) {
        double m = passes[0]->opMs[j];
        for (const Phase *p : passes)
            m = std::min(m, p->opMs[j]);
        t.all.push_back(m);
        if (passes[0]->opSampled[j])
            t.sampled.push_back(m);
    }
    return t;
}

std::vector<Metric>
perLayerMetrics(const Harness &h)
{
    std::map<std::string, double> v = layerValues(h);
    auto at = [&](const std::string &k) {
        auto it = v.find(k);
        return it == v.end() ? 0.0 : it->second;
    };
    std::vector<Metric> m;
    auto ms = [&](const std::string &k) { m.push_back({k, "ms", at(k)}); };
    auto cnt = [&](const std::string &k) {
        m.push_back({k, "count", at(k)});
    };

    ms("workloads.build_ms");
    ms("classfile.write_ms");
    m.push_back({"classfile.bytes", "B", at("classfile.bytes")});
    ms("vm.stream_load_ms");
    ms("vm.verify_ms");
    ms("vm.decode_ms");
    cnt("vm.bytecodes");
    m.push_back({"vm.mbytecodes_per_s", "Mbytecode/s",
                 ratio(at("vm.bytecodes"),
                       (at("profile.train_ms") + at("sim.record_ms")) *
                           1e3)});
    ms("profile.train_ms");
    ms("sim.record_ms");
    ms("sim.context_ms");
    ms("analysis.callgraph_ms");
    ms("analysis.first_use_ms");
    ms("analysis.use_ms");
    ms("analysis.stall_bounds_ms");
    cnt("analysis.provable_stalls");
    m.push_back({"analysis.prover_certified_pct", "%",
                 100.0 * ratio(at("analysis.certified_stall_cycles"),
                               at("analysis.measured_stall_cycles"))});
    ms("restructure.partition_ms");
    ms("restructure.layout_ms");
    cnt("restructure.layouts_built");
    ms("transfer.schedule_ms");
    cnt("transfer.schedules_built");
    ms("sim.replay_ms.strict");
    ms("sim.replay_ms.nominal");
    ms("sim.replay_ms.faulted");
    ms("sim.replay_ms.runahead");
    m.push_back({"sim.replay_us_per_trace_event", "us",
                 ratio(1e3 * (at("sim.replay_ms.nominal") +
                              at("sim.replay_ms.faulted") +
                              at("sim.replay_ms.runahead")),
                       at("sim.trace_events"))});
    cnt("sim.mispredictions");
    cnt("transfer.retries");

    std::vector<std::string> cells = fleetCellNames();
    for (const std::string &c : edgeCellNames())
        cells.push_back(c);
    double runMs = 0.0;
    for (const std::string &c : cells) {
        ms("server.run_ms." + c);
        runMs += at("server.run_ms." + c);
        m.push_back({"server.us_per_event." + c, "us",
                     ratio(1e3 * at("server.run_ms." + c),
                           at("server.events." + c))});
    }
    cnt("server.events");
    cnt("server.allocator_runs");
    cnt("server.allocation_intervals");
    ms("server.allocate_ms");
    cnt("server.allocate_calls");
    m.push_back({"server.loop_ms", "ms", runMs - at("server.allocate_ms")});
    m.push_back({"server.changed_rate_share", "ratio",
                 ratio(at("server.changed_rate_share_sum"),
                       at("server.allocation_instants"))});

    cnt("cache.requests");
    cnt("cache.hits");
    cnt("cache.misses");
    cnt("cache.joins");
    cnt("cache.evictions");
    m.push_back({"cache.origin_mbytes", "MB", at("cache.origin_bytes") / 1e6});
    m.push_back({"cache.hit_rate_pct", "%",
                 100.0 * ratio(at("cache.hits"), at("cache.requests"))});
    m.push_back({"cache.origin_bytes_saved_pct", "%",
                 100.0 * ratio(at("cache.bytes_served") -
                                   at("cache.origin_bytes"),
                               at("cache.bytes_served"))});
    m.push_back({"cache.wait_mcycles_p99", "Mcycles",
                 at("cache.wait_mcycles_p99")});
    m.push_back({"server.door_wait_mcycles_p99", "Mcycles",
                 at("server.door_wait_mcycles_p99")});

    // Host-side tracing cost and how much of a pass the spans explain.
    OpTimes traced = opMinimums(h, /*traced=*/true);
    OpTimes untraced = opMinimums(h, /*traced=*/false);
    std::vector<double> coverage;
    std::vector<double> topUs(h.phases().size(), 0.0);
    for (const Span &s : h.spans())
        if (s.parent < 0)
            topUs[s.phase] += s.endUs - s.startUs;
    for (size_t p = 0; p < h.phases().size(); ++p) {
        const Phase &ph = h.phases()[p];
        if (ph.traced && !ph.setup)
            coverage.push_back(100.0 * topUs[p] / (ph.wallS * 1e6));
    }
    m.push_back({"obs.trace_overhead_pct", "%",
                 100.0 * (ratio(traced.totalMs(), untraced.totalMs()) - 1.0)});
    m.push_back({"obs.span_coverage_pct", "%", median(coverage)});
    return m;
}

std::vector<Metric>
endToEndMetrics(const Harness &h, const SimSummary &sim)
{
    std::vector<double> setupS;
    for (const Phase &p : h.phases())
        if (p.setup)
            setupS.push_back(p.wallS);
    OpTimes ops = opMinimums(h);
    Tail tail = tailPercentile(ops.sampled);
    std::cout << "op_ms_p99: nearest-rank p" << tail.percentile << " of "
              << tail.samples << " operations (each the minimum over "
              << ops.passes << " passes)\n";
    return {
        {"setup_s", "s", median(setupS)},
        {"wall_s", "s", ops.totalMs() / 1e3},
        {"op_ms_p50", "ms", nearestRank(ops.sampled, 50.0)},
        {"op_ms_p99", "ms", tail.value},
        {"op_ms_geomean", "ms", geomean(ops.sampled)},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"sim_norm_time_pct", "%", sim.normTimePct()},
        {"sim_invocation_pct", "%", sim.invocationPct()},
        {"sim_stall_p99_mcycles", "Mcycles", sim.stallP99Mcycles()},
        {"sim_makespan_gcycles", "Gcycles", sim.makespanGcycles()},
    };
}

void
writeChromeTrace(const Harness &h, const std::string &workload,
                 const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return;
    }
    os.precision(15);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"perfbench "
       << workload << "\"}},\n"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"phases\"}},\n"
       << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"spans\"}}";
    const std::vector<Phase> &phases = h.phases();
    for (size_t p = 0; p < phases.size(); ++p) {
        if (!phases[p].traced)
            continue;
        os << ",\n{\"name\":\"" << (phases[p].setup ? "setup" : "pass")
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":"
           << phases[p].startUs
           << ",\"dur\":" << phases[p].endUs - phases[p].startUs
           << ",\"args\":{\"phase\":" << p << "}}";
    }
    for (size_t i = 0; i < h.spans().size(); ++i) {
        const Span &s = h.spans()[i];
        os << ",\n{\"name\":\"" << s.name
           << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
              "\"ts\":"
           << s.startUs << ",\"dur\":" << s.endUs - s.startUs
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"op\":" << s.op << ",\"phase\":" << s.phase << "}}";
    }
    os << "\n]}\n";
}

void
printResult(bool correct, const Harness &h, const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << h.attempted()
       << ", \"failed\": " << h.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < ms.size(); ++i) {
        double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        os << (i ? ", " : "") << "\"" << ms[i].name
           << "\": {\"value\": " << v << ", \"unit\": \"" << ms[i].unit
           << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
run(const Args &args)
{
    std::unique_ptr<BenchWorkload> wl = makeWorkload(args.workload,
                                                     args.seed);
    Harness h;
    double setupS = 0.0, passS = 0.0;
    size_t setups = 0;
    auto setupOnce = [&] {
        h.beginPhase(/*setup=*/true, args.trace);
        wl->setup(h);
        h.endPhase();
        setupS += h.phases().back().wallS;
        ++setups;
    };

    setupOnce();
    std::optional<SimSummary> sim; // every pass yields the same
    size_t untracedPasses = 0, tracedPasses = 0;
    // Traced runs alternate untraced and traced passes so both see the
    // same machine conditions; the ratio is the tracing overhead.
    while (passS < args.seconds || untracedPasses < kMinPasses ||
           (args.trace && tracedPasses < kMinPasses)) {
        while (setupS < kSetupShare * passS)
            setupOnce();
        bool traced = args.trace && untracedPasses > tracedPasses;
        h.beginPhase(/*setup=*/false, traced);
        SimSummary summary = wl->pass(h);
        if (!sim)
            sim = summary;
        h.endPhase();
        passS += h.phases().back().wallS;
        (traced ? tracedPasses : untracedPasses) += 1;
    }
    while (setups < kMinSetups)
        setupOnce();

    bool sameDigest = true;
    uint64_t digest = 0;
    for (const Phase &p : h.phases()) {
        if (p.setup)
            continue;
        if (digest == 0)
            digest = p.digest.value();
        sameDigest = sameDigest && p.digest.value() == digest;
    }
    std::cout << "perfbench: workload=" << args.workload
              << " seed=" << args.seed << " passes=" << untracedPasses
              << " traced_passes=" << tracedPasses
              << " ops=" << h.attempted() << " failed=" << h.failed()
              << "\n";
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    std::cout << "digest: " << hex
              << (sameDigest ? " (identical across passes)"
                             : " MISMATCH across passes")
              << "\n";
    std::cout << "pass_s:";
    for (const Phase &p : h.phases())
        if (!p.setup)
            std::cout << " " << p.wallS << (p.traced ? "t" : "");
    std::cout << "\n";
    for (const std::string &f : h.failures())
        std::cerr << "perfbench: " << f << "\n";

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = perLayerMetrics(h);
        if (!args.traceOut.empty())
            writeChromeTrace(h, args.workload, args.traceOut);
    } else {
        metrics = endToEndMetrics(h, *sim);
    }
    bool correct = h.failed() == 0 && sameDigest && h.attempted() > 0;
    printResult(correct, h, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args = parseArgs(argc, argv);
    std::vector<std::string> failures = selfTest();
    for (const std::string &f : failures)
        std::cerr << "perfbench: self-test failed: " << f << "\n";
    if (!failures.empty())
        return 1;
    if (args.selfTest) {
        std::cout << "perfbench: self-test passed\n";
        return 0;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
