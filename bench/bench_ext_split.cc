/**
 * @file
 * Extension — procedure splitting (paper §4's unimplemented option).
 *
 * TestDes is the paper's cautionary tale: its first procedure is most
 * of its first class file, so method-level non-strictness barely
 * improves its invocation latency (Table 4: 1%). The paper notes the
 * fix — "large procedures can still benefit by using the compiler to
 * break the procedure up into smaller procedures" — without building
 * it. This bench runs our splitting pass (restructure/split) at a 2 KB
 * method threshold and reports, per workload, invocation latency and
 * normalized total time before and after splitting (interleaved
 * transfer, Test ordering, modem link).
 *
 * Expected shape: TestDes's invocation latency collapses once its
 * giant main is fragmented; already-small-method programs are
 * unchanged.
 */

#include "bench/bench_common.h"
#include "report/json.h"
#include "report/table.h"
#include "restructure/split.h"

using namespace nse;

namespace
{

struct Row
{
    uint64_t invocation;
    double normalized;
};

Row
measure(const Workload &w)
{
    SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = kModemLink;
    SimResult base = runReplay(ctx, strict);

    Row row;
    row.invocation = nonStrictInvocationLatency(ctx, kModemLink, false);
    SimConfig cfg;
    cfg.mode = SimConfig::Mode::Interleaved;
    cfg.ordering = OrderingSource::Test;
    cfg.link = kModemLink;
    row.normalized = normalizedPct(runReplay(ctx, cfg), base);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Extension (paper section 4)",
                "Procedure splitting at a 2KB method threshold: "
                "non-strict invocation latency (Mcycles, modem) and "
                "normalized time (interleaved, Test ordering)");

    Table t({"Program", "Tails Added", "Latency Before M",
             "Latency After M", "Norm Before", "Norm After"});

    const std::vector<std::string> names{"BIT",    "Hanoi",  "JavaCup",
                                         "Jess",   "JHLZip", "TestDes"};
    std::vector<std::vector<std::string>> rows(names.size());
    benchRunner().parallelFor(names.size(), [&](size_t i) {
        Workload plain = makeWorkload(names[i]);
        Row before = measure(plain);

        Workload split_wl = makeWorkload(names[i]);
        SplitStats stats = splitLargeMethods(split_wl.program, 2'048);
        Row after = measure(split_wl);

        rows[i] = {names[i], std::to_string(stats.tailsCreated),
                   fmtMillions(before.invocation),
                   fmtMillions(after.invocation),
                   fmtF(before.normalized, 1),
                   fmtF(after.normalized, 1)};
    });
    for (std::vector<std::string> &row : rows)
        t.addRow(std::move(row));

    std::cout << t.render();

    BenchJson json("ext_split");
    json.addTable("Procedure splitting", t);
    writeBenchJson(json);
    return 0;
}
