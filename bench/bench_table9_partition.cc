/**
 * @file
 * Reproduces paper Table 9: class-file data split into local (in
 * methods) vs global data, and the global data further broken into
 * the share needed before execution, the share that can travel with
 * methods (GMDs of executed methods), and the unused share.
 */

#include "bench/bench_common.h"
#include "classfile/writer.h"
#include "report/json.h"
#include "report/table.h"

using namespace nse;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Table 9",
                "Local vs global data, and the global-data split into "
                "needed-first / in-methods / unused (test-input run)");

    Table t({"Program", "Local Data KB", "Global Data KB",
             "% Needed First", "% In Methods", "% Unused"});

    std::vector<BenchEntry> entries = benchWorkloads();

    struct Row
    {
        uint64_t local = 0;
        uint64_t globalTotal = 0;
        double neededFirst = 0, inMethods = 0, unused = 0;
    };
    std::vector<Row> rows(entries.size());
    benchRunner().parallelFor(entries.size(), [&](size_t i) {
        const BenchEntry &e = entries[i];
        const Program &prog = e.workload.program;

        Row &r = rows[i];
        for (uint16_t c = 0; c < prog.classCount(); ++c)
            r.local += layoutOf(prog.classAt(c)).localDataBytes;

        const DataPartition &part =
            e.ctx->partition(OrderingSource::Test);

        std::set<MethodId> executed;
        for (auto &[id, mp] : e.ctx->testProfile().methods)
            executed.insert(id);
        GlobalDataUsage usage = analyzeUsage(prog, part, executed);
        r.globalTotal = usage.total();
        r.neededFirst = usage.pctNeededFirst();
        r.inMethods = usage.pctInMethods();
        r.unused = usage.pctUnused();
    });

    double sums[5] = {0, 0, 0, 0, 0};
    for (size_t i = 0; i < entries.size(); ++i) {
        const Row &r = rows[i];
        t.addRow({entries[i].workload.name, fmtKb(r.local, 1),
                  fmtKb(r.globalTotal, 1), fmtF(r.neededFirst, 0),
                  fmtF(r.inMethods, 0), fmtF(r.unused, 0)});
        sums[0] += static_cast<double>(r.local) / 1024.0;
        sums[1] += static_cast<double>(r.globalTotal) / 1024.0;
        sums[2] += r.neededFirst;
        sums[3] += r.inMethods;
        sums[4] += r.unused;
    }
    double n = static_cast<double>(entries.size());
    t.addRow({"AVG", fmtF(sums[0] / n, 1), fmtF(sums[1] / n, 1),
              fmtF(sums[2] / n, 0), fmtF(sums[3] / n, 0),
              fmtF(sums[4] / n, 0)});

    std::cout << t.render();

    BenchJson json("table9_partition");
    json.addTable("Table 9", t);
    writeBenchJson(json);
    maybeWriteBenchTrace(entries);
    return 0;
}
