/**
 * @file
 * Transfer-schedule visualizer: renders the paper's Figure 4 for a
 * real workload — an ASCII Gantt chart of when each class file
 * transfers under the greedy parallel schedule, annotated with each
 * class's first-use deadline.
 *
 * Usage:  ./build/examples/schedule_viz [workload] [limit]
 *         workload in {BIT, Hanoi, JavaCup, Jess, JHLZip, TestDes}
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>

#include "restructure/layout.h"
#include "sim/context.h"
#include "transfer/engine.h"
#include "transfer/schedule.h"
#include "workloads/workload.h"

using namespace nse;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "TestDes";
    int limit = argc > 2 ? std::stoi(argv[2]) : 4;

    Workload w = makeWorkload(name);
    SimContext ctx(w.program, w.natives, w.trainInput, w.testInput);
    const FirstUseOrder &order = ctx.ordering(OrderingSource::Test);
    TransferLayout layout =
        makeParallelLayout(w.program, order, nullptr);

    std::vector<uint64_t> cycles;
    for (const MethodId &id : order.order)
        cycles.push_back(ctx.testProfile().of(id).firstUseClock);
    StreamDemand demand =
        deriveStreamDemand(w.program, order, layout, cycles);
    TransferSchedule sched =
        buildGreedySchedule(layout, demand, kT1Link, limit);

    // Replay the schedule to find each stream's span.
    TransferEngine engine(kT1Link.cyclesPerByte, limit);
    for (const StreamInfo &s : layout.streams)
        engine.addStream(s.name, s.totalBytes);
    for (size_t i = 0; i < sched.startCycle.size(); ++i)
        engine.scheduleStart(static_cast<int>(i), sched.startCycle[i]);
    uint64_t end = engine.finishAll();

    std::cout << "Transfer schedule: " << name << ", T1 link, limit "
              << (limit <= 0 ? std::string("inf")
                             : std::to_string(limit))
              << " (first 24 classes by first use)\n"
              << "columns = time; '=' transferring, '|' first-use "
                 "deadline\n\n";

    constexpr int kCols = 100;
    double per_col =
        static_cast<double>(end) / static_cast<double>(kCols);
    int shown = 0;
    for (int s : demand.streamOrder) {
        if (shown++ >= 24)
            break;
        const Stream &st = engine.stream(s);
        auto col = [&](uint64_t cycle) {
            return std::min<int>(
                kCols - 1,
                static_cast<int>(static_cast<double>(cycle) / per_col));
        };
        std::string bar(kCols, ' ');
        int from = col(st.startedAt);
        int to = col(st.finishedAt);
        for (int c = from; c <= to; ++c)
            bar[static_cast<size_t>(c)] = '=';
        uint64_t deadline = demand.deadline[static_cast<size_t>(s)];
        if (deadline != UINT64_MAX && deadline <= end)
            bar[static_cast<size_t>(col(deadline))] = '|';
        std::cout << std::left << std::setw(14)
                  << st.name.substr(0, 13) << bar << "\n";
    }
    std::cout << "\ntotal transfer span: " << end << " cycles ("
              << static_cast<double>(end) / 500e6 << " s at 500 MHz)\n";
    return 0;
}
