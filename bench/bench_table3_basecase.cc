/**
 * @file
 * Reproduces paper Table 3 (base case statistics): per-program CPI,
 * execution cycles, and — for the T1 and modem links — transfer
 * cycles, total strict-execution cycles, and the percentage of strict
 * execution spent transferring. This is the baseline every other
 * experiment normalizes against.
 */

#include "bench/bench_common.h"
#include "report/json.h"
#include "report/table.h"

using namespace nse;

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Table 3",
                "Base case statistics per link (cycles in millions; "
                "strict = full transfer then execution)");

    Table t1({"Program", "CPI", "Exe Cycles M", "Transfer Cycles M",
              "Total Strict M", "% Transfer"});
    Table modem({"Program", "CPI", "Exe Cycles M", "Transfer Cycles M",
                 "Total Strict M", "% Transfer"});

    std::vector<BenchEntry> entries = benchWorkloads();

    std::vector<GridCell> cells(2);
    cells[0].label = "T1 strict";
    cells[0].config.mode = SimConfig::Mode::Strict;
    cells[0].config.link = kT1Link;
    cells[1].label = "Modem strict";
    cells[1].config.mode = SimConfig::Mode::Strict;
    cells[1].config.link = kModemLink;

    std::vector<GridRow> grid =
        benchRunner().runGrid(gridWorkloads(entries), cells);

    double cpi_sum = 0;
    int n = 0;
    for (size_t w = 0; w < grid.size(); ++w) {
        const VmResult &exec = entries[w].ctx->testProfile().result;
        Table *tables[] = {&t1, &modem};
        for (size_t c = 0; c < 2; ++c) {
            const SimResult &r = grid[w].cells[c].result;
            tables[c]->addRow({
                grid[w].workload,
                fmtF(exec.cpi(), 0),
                fmtMillions(exec.execCycles),
                fmtMillions(r.transferCycles),
                fmtMillions(r.totalCycles),
                fmtF(100.0 * static_cast<double>(r.transferCycles) /
                         static_cast<double>(r.totalCycles),
                     1),
            });
        }
        cpi_sum += exec.cpi();
        ++n;
    }

    std::cout << "--- T1 link (3,815 cycles/byte) ---\n"
              << t1.render() << "\n"
              << "--- Modem link (134,698 cycles/byte) ---\n"
              << modem.render() << "\nAVG CPI: " << fmtF(cpi_sum / n, 0)
              << "\n";

    BenchJson json("table3_basecase");
    setBenchMetrics(json, summarizeGrid(grid));
    json.addTable("T1 link", t1);
    json.addTable("Modem link", modem);
    writeBenchJson(json);
    maybeWriteBenchTrace(entries);
    return 0;
}
