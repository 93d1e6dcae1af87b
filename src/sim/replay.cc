#include "sim/replay.h"

#include <cmath>
#include <optional>

#include "analysis/callgraph.h"
#include "support/error.h"
#include "transfer/engine.h"
#include "transfer/runahead.h"
#include "transfer/schedule.h"
#include "vm/interpreter.h"

namespace nse
{

double
normalizedPct(const SimResult &result, const SimResult &strict)
{
    // Degenerate baseline (empty program): define the ratio as 100%
    // instead of poisoning report tables with inf/NaN.
    if (strict.totalCycles == 0)
        return 100.0;
    return 100.0 * static_cast<double>(result.totalCycles) /
           static_cast<double>(strict.totalCycles);
}

uint64_t
strictInvocationLatency(const SimContext &ctx, const LinkModel &link)
{
    return transferCost(ctx.entryClassBytes(), link);
}

uint64_t
nonStrictInvocationLatency(const SimContext &ctx, const LinkModel &link,
                           bool data_partition)
{
    // The entry method is first in every ordering, so any ordering
    // gives the same figure; use the static one.
    LayoutKey key;
    key.parallel = true;
    key.ordering = OrderingSource::Static;
    key.partitioned = data_partition;
    const TransferLayout &layout = ctx.layout(key);
    return transferCost(layout.of(ctx.program().entry()).availOffset,
                        link);
}

uint64_t
wholeProgramTransferCycles(uint64_t total_bytes, uint64_t entry_bytes,
                           const LinkModel &link, const FaultPlan &plan,
                           uint64_t *invocation_latency,
                           uint64_t *retry_count,
                           uint64_t *degraded_cycles, EventSink *obs)
{
    if (plan.nominal()) {
        if (invocation_latency)
            *invocation_latency = transferCost(entry_bytes, link);
        return transferCost(total_bytes, link);
    }
    TransferEngine engine(link.cyclesPerByte, 1, plan);
    engine.setSink(obs);
    int s = engine.addStream("whole-program", total_bytes);
    engine.scheduleStart(s, 0);
    uint64_t entry_arrival = engine.waitFor(s, entry_bytes, 0);
    if (invocation_latency)
        *invocation_latency = entry_arrival;
    uint64_t done = engine.finishAll();
    if (retry_count)
        *retry_count = engine.retryCount();
    if (degraded_cycles)
        *degraded_cycles = engine.degradedCycles();
    return done;
}

LayoutKey
layoutKeyOf(const SimConfig &cfg)
{
    LayoutKey key;
    key.parallel = cfg.mode == SimConfig::Mode::Parallel;
    key.ordering = cfg.ordering;
    key.partitioned = cfg.dataPartition;
    key.classStrict = cfg.classStrict;
    return key;
}

namespace
{

void
observe(EventSink *obs, const ObsEvent &ev)
{
    if (obs)
        obs->record(ev);
}

/** One first-use wait, attributed to the awaited stream/method. */
void
observeWait(EventSink *obs, uint64_t clock, uint64_t resume,
            int stream, MethodId id, uint64_t offset)
{
    if (!obs)
        return;
    ObsEvent ev;
    ev.cycle = clock;
    ev.kind = ObsKind::MethodWait;
    ev.stream = stream;
    ev.cls = id.classIdx;
    ev.method = id.methodIdx;
    ev.a = resume;
    ev.b = offset;
    obs->record(ev);
}

void
observeMispredict(EventSink *obs, uint64_t clock, int stream,
                  MethodId id)
{
    if (!obs)
        return;
    ObsEvent ev;
    ev.cycle = clock;
    ev.kind = ObsKind::Mispredict;
    ev.stream = stream;
    ev.cls = id.classIdx;
    ev.method = id.methodIdx;
    obs->record(ev);
}

void
observeEnd(EventSink *obs, const SimResult &r)
{
    ObsEvent ev;
    ev.cycle = r.totalCycles;
    ev.kind = ObsKind::RunEnd;
    ev.a = r.execCycles;
    observe(obs, ev);
}

/** Reject a link cost no transfer model can price: transferCost's
 *  rounding cast and the engine's rates need a finite positive value. */
void
checkLinkCost(const SimConfig &cfg)
{
    double c = cfg.link.cyclesPerByte;
    if (!(std::isfinite(c) && c > 0.0))
        fatal("SimConfig::link.cyclesPerByte must be finite and > 0, "
              "got ", c);
}

SimResult
runStrict(const SimContext &ctx, const SimConfig &cfg, EventSink *obs)
{
    const VmResult &exec = ctx.testProfile().result;
    SimResult r;
    r.transferCycles = wholeProgramTransferCycles(
        ctx.totalBytes(), ctx.entryClassBytes(), cfg.link, cfg.faults,
        &r.invocationLatency, &r.retryCount, &r.degradedCycles, obs);
    r.execCycles = exec.execCycles;
    r.totalCycles = r.transferCycles + r.execCycles;
    r.stallCycles = r.transferCycles;
    r.bytecodes = exec.bytecodes;
    r.cpi = exec.cpi();
    // Strict is one wait: the entry method's first use at cycle 0
    // blocks until the whole program has arrived (stream -1, the
    // single-connection whole-program transfer).
    observeWait(obs, 0, r.transferCycles, /*stream=*/-1,
                ctx.program().entry(), /*offset=*/0);
    observeEnd(obs, r);
    return r;
}

} // namespace

TransferEngine
makeOverlappedEngine(const SimContext &ctx, const SimConfig &cfg,
                     const TransferLayout &layout)
{
    bool parallel = cfg.mode == SimConfig::Mode::Parallel;
    TransferEngine engine(cfg.link.cyclesPerByte,
                          parallel ? cfg.parallelLimit : 1, cfg.faults);
    for (const StreamInfo &s : layout.streams)
        engine.addStream(s.name, s.totalBytes);

    if (parallel) {
        ScheduleKey skey;
        skey.layout = layoutKeyOf(cfg);
        skey.cyclesPerByte = cfg.link.cyclesPerByte;
        skey.limit = cfg.parallelLimit;
        const TransferSchedule &sched = ctx.schedule(skey);
        for (size_t i = 0; i < sched.startCycle.size(); ++i)
            engine.scheduleStart(static_cast<int>(i),
                                 sched.startCycle[i]);
    } else {
        engine.scheduleStart(0, 0);
    }
    return engine;
}

SimResult
runReplay(const SimContext &ctx, const SimConfig &cfg, EventSink *obs)
{
    checkLinkCost(cfg);
    if (cfg.mode == SimConfig::Mode::Strict)
        return runStrict(ctx, cfg, obs);

    bool parallel = cfg.mode == SimConfig::Mode::Parallel;
    const TransferLayout &layout = ctx.layout(layoutKeyOf(cfg));
    TransferEngine engine = makeOverlappedEngine(ctx, cfg, layout);
    engine.setSink(obs);

    SimResult r;
    bool entry_seen = false;
    const ExecTrace &trace = ctx.trace();
    std::optional<RunaheadScheduler> runahead;
    if (parallel && cfg.runaheadDepth > 0)
        runahead.emplace(trace, layout, &ctx.callGraph(),
                         RunaheadConfig{cfg.runaheadDepth, cfg.runaheadK});
    size_t ev_idx = 0;
    uint64_t final_clock =
        replayTrace(trace, [&](MethodId id, uint64_t clock) {
            size_t idx = ev_idx++;
            const MethodPlacement &pl = layout.of(id);
            if (parallel) {
                engine.advanceTo(clock);
                const Stream &s = engine.stream(pl.streamIdx);
                bool mispredicted = false;
                if (s.state == StreamState::Idle &&
                    s.scheduledStart > clock) {
                    // Misprediction (§5.1): the class is needed but
                    // neither transferring nor about to — fetch it on
                    // demand.
                    ++r.mispredictions;
                    observeMispredict(obs, clock, pl.streamIdx, id);
                    engine.demandStart(pl.streamIdx, clock);
                    mispredicted = true;
                }
                if (runahead && mispredicted &&
                    !engine.hasArrived(pl.streamIdx, pl.availOffset))
                    runahead->onStall(engine, idx, clock, obs);
            }
            uint64_t resume =
                engine.waitFor(pl.streamIdx, pl.availOffset, clock);
            r.stallCycles += resume - clock;
            observeWait(obs, clock, resume, pl.streamIdx, id,
                        pl.availOffset);
            if (!entry_seen) {
                entry_seen = true;
                r.invocationLatency = resume;
            }
            return resume;
        });

    r.totalCycles = final_clock;
    r.execCycles = trace.totals.execCycles;
    r.transferCycles = wholeProgramTransferCycles(
        ctx.totalBytes(), ctx.entryClassBytes(), cfg.link, cfg.faults);
    r.bytecodes = trace.totals.bytecodes;
    r.cpi = trace.totals.cpi();
    r.retryCount = engine.retryCount();
    r.degradedCycles = engine.degradedCycles();
    observeEnd(obs, r);
    return r;
}

SimResult
runLiveReference(const SimContext &ctx, const SimConfig &cfg,
                 EventSink *obs)
{
    checkLinkCost(cfg);
    if (cfg.mode == SimConfig::Mode::Strict)
        return runStrict(ctx, cfg, obs);

    bool parallel = cfg.mode == SimConfig::Mode::Parallel;
    const TransferLayout &layout = ctx.layout(layoutKeyOf(cfg));
    TransferEngine engine = makeOverlappedEngine(ctx, cfg, layout);
    engine.setSink(obs);

    SimResult r;
    bool entry_seen = false;
    // The live run's first-use sequence is identical to the recorded
    // trace's (that is the record-once/replay-many invariant), so the
    // runahead scheduler may run ahead in the recorded trace indexed
    // by a plain hook counter.
    std::optional<RunaheadScheduler> runahead;
    if (parallel && cfg.runaheadDepth > 0)
        runahead.emplace(ctx.trace(), layout, &ctx.callGraph(),
                         RunaheadConfig{cfg.runaheadDepth, cfg.runaheadK});
    size_t hook_idx = 0;
    Vm vm(ctx.program(), ctx.natives(), ctx.testInput(), {},
          &ctx.decoded());
    vm.setFirstUseHook([&](MethodId id, uint64_t clock) {
        size_t idx = hook_idx++;
        const MethodPlacement &pl = layout.of(id);
        if (parallel) {
            engine.advanceTo(clock);
            const Stream &s = engine.stream(pl.streamIdx);
            bool mispredicted = false;
            if (s.state == StreamState::Idle &&
                s.scheduledStart > clock) {
                ++r.mispredictions;
                observeMispredict(obs, clock, pl.streamIdx, id);
                engine.demandStart(pl.streamIdx, clock);
                mispredicted = true;
            }
            if (runahead && mispredicted &&
                !engine.hasArrived(pl.streamIdx, pl.availOffset))
                runahead->onStall(engine, idx, clock, obs);
        }
        uint64_t resume = engine.waitFor(pl.streamIdx, pl.availOffset,
                                         clock);
        r.stallCycles += resume - clock;
        observeWait(obs, clock, resume, pl.streamIdx, id,
                    pl.availOffset);
        if (!entry_seen) {
            entry_seen = true;
            r.invocationLatency = resume;
        }
        return resume;
    });

    VmResult exec = vm.run();
    r.totalCycles = exec.clock;
    r.execCycles = exec.execCycles;
    r.transferCycles = wholeProgramTransferCycles(
        ctx.totalBytes(), ctx.entryClassBytes(), cfg.link, cfg.faults);
    r.bytecodes = exec.bytecodes;
    r.cpi = exec.cpi();
    r.retryCount = engine.retryCount();
    r.degradedCycles = engine.degradedCycles();
    observeEnd(obs, r);
    return r;
}

} // namespace nse
