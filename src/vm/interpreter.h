/**
 * @file
 * The bytecode interpreter with a cycle cost model and non-strict
 * execution hooks.
 *
 * The interpreter really executes programs (workload outputs are
 * checked in tests) while advancing a cycle clock: each bytecode costs
 * its opcode's interpreter cycles, and native calls cost their
 * registered amounts — this is the paper's "CPI x bytecodes" timing
 * model, derived instead of assumed.
 *
 * Two hooks integrate the co-simulation and profiling layers:
 *  - the *first-use hook* fires before the first execution of every
 *    method and may advance the clock (this is where the transfer
 *    engine stalls execution until the method's delimiter arrives);
 *  - the *instruction hook* observes every executed instruction
 *    (first-use profiling, executed-bytes accounting).
 *
 * Two dispatch strategies execute the same semantics bit-exactly:
 * computed-goto direct threading over the pre-decoded IR (vm/decoded.h;
 * the GNU labels-as-values extension, so the build requires GCC or
 * Clang), and the classic one-Instruction-at-a-time switch retained as
 * the equivalence oracle.
 */

#ifndef NSE_VM_INTERPRETER_H
#define NSE_VM_INTERPRETER_H

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "program/program.h"
#include "vm/decoded.h"
#include "vm/heap.h"
#include "vm/linker.h"
#include "vm/natives.h"
#include "vm/verifier.h"

namespace nse
{

/** How Vm::run() dispatches instructions. Results are bit-identical
 *  across both modes; only wall-clock speed differs. */
enum class DispatchMode : uint8_t
{
    /** Computed-goto direct threading on the decoded IR (production). */
    Threaded,
    /** The original per-Instruction switch (the oracle). */
    Classic,
};

/** Interpreter limits and switches. */
struct VmOptions
{
    /** Safety valve against runaway workloads. */
    uint64_t maxBytecodes = 400'000'000;
    /**
     * Extra cycles charged at every branch/return (basic-block
     * boundary), modelling delimiter checks when non-strictness is
     * enforced at basic-block rather than method granularity
     * (paper §4's rejected design; used by the granularity ablation).
     */
    uint32_t blockDelimiterCost = 0;
    DispatchMode dispatch = DispatchMode::Threaded;
};

/** Result of one complete program execution. */
struct VmResult
{
    /** Final clock: execution cycles plus hook-injected stalls. */
    uint64_t clock = 0;
    /** Pure execution cycles (opcode + native costs, no stalls). */
    uint64_t execCycles = 0;
    /** Dynamic bytecode count. */
    uint64_t bytecodes = 0;
    uint64_t nativeCalls = 0;
    /** Distinct methods that executed at least once. */
    uint64_t methodsExecuted = 0;
    /** Observable program output (Sys.print / Gfx / File natives). */
    std::vector<int64_t> output;

    /** Average cycles per bytecode — the paper's CPI metric. */
    double
    cpi() const
    {
        return bytecodes ? static_cast<double>(execCycles) /
                               static_cast<double>(bytecodes)
                         : 0.0;
    }
};

/** One program execution. Construct, configure hooks, run() once. */
class Vm
{
  public:
    /**
     * @param prog    the program to execute
     * @param natives native bodies (see standardNatives())
     * @param input   workload input stream, readable via Sys natives
     * @param decoded optional shared decode cache (SimContext::decoded)
     *                — used when its delimiter cost matches the
     *                options; otherwise the Vm decodes privately
     */
    Vm(const Program &prog, const NativeRegistry &natives,
       std::vector<int64_t> input = {}, VmOptions opts = {},
       const DecodedCache *decoded = nullptr);

    /**
     * Called before the first execution of each method with the current
     * clock; returns the (>=) clock at which execution may proceed.
     */
    using FirstUseHook = std::function<uint64_t(MethodId, uint64_t)>;

    /** Called after each instruction's cost is charged. */
    using InstrHook =
        std::function<void(MethodId, const Instruction &, uint64_t)>;

    void setFirstUseHook(FirstUseHook hook) { firstUse_ = std::move(hook); }
    void setInstructionHook(InstrHook hook) { instr_ = std::move(hook); }

    /** Execute from the program entry point to completion. */
    VmResult run();

    Heap &heap() { return heap_; }
    Linker &linker() { return linker_; }

  private:
    struct Frame
    {
        MethodId id;
        const VerifiedMethod *code;
        std::vector<Value> locals;
        std::vector<Value> stack;
        size_t pc = 0;
    };

    /** Decoded-IR frame: locals + operand stack live in arena_. */
    struct DFrame
    {
        MethodId id;
        const DecodedMethod *dm;
        const DInst *code;
        /** arena_ offset of the locals (stack follows at stackBase). */
        uint32_t base = 0;
        uint32_t stackBase = 0;
        uint32_t pc = 0;
        int32_t sp = 0;
    };

    /** Per-target invoke memo (dense-indexed by method). */
    struct Callee
    {
        const DecodedMethod *dm = nullptr;
        const NativeMethod *native = nullptr;
        TypeKind nativeRet = TypeKind::Void;
        bool isNative = false;
        bool known = false;
    };

    void step();
    void charge(uint64_t cycles);
    void noteFirstUse(MethodId id);
    const VerifiedMethod &codeOf(MethodId id);
    void pushFrame(MethodId id, std::vector<Value> args);
    void invoke(Frame &f, const Instruction &inst, bool is_virtual);
    void callNative(MethodId id, std::vector<Value> args,
                    Frame *caller);
    Ref internString(uint16_t class_idx, uint16_t cp_idx);

    Value popVal(Frame &f);
    int64_t popInt(Frame &f);
    Ref popRef(Frame &f);
    void push(Frame &f, Value v);

    /** Dense method index for the seen_ bitmap / callee memo. */
    size_t denseIndex(MethodId id) const
    {
        return methodBase_[id.classIdx] + id.methodIdx;
    }

    void runClassic();
    void runDecoded();
    void pushDFrame(MethodId id, const DecodedMethod &dm,
                    size_t args_off, uint32_t n_args);
    void doInvoke(uint16_t cp_idx, bool is_virtual);
    /** kHooked compiles the instruction-hook dispatch in or out, so
     *  unobserved runs carry no per-fetch hook check at all. */
    template <bool kHooked> void execThreaded();

    const Program &prog_;
    const NativeRegistry &natives_;
    std::vector<int64_t> input_;
    VmOptions opts_;

    Verifier verifier_;
    Linker linker_;
    Heap heap_;

    FirstUseHook firstUse_;
    InstrHook instr_;

    std::map<MethodId, VerifiedMethod> codeCache_;
    std::map<std::pair<uint16_t, uint16_t>, Ref> stringCache_;

    /** First-use bitmap over dense method indices (replaces a set). */
    std::vector<uint32_t> methodBase_;
    std::vector<uint8_t> seen_;
    uint64_t seenCount_ = 0;

    std::vector<Frame> frames_;

    /** Decoded-dispatch state. */
    const DecodedCache *decoded_ = nullptr;
    std::unique_ptr<DecodedCache> ownedDecoded_;
    std::vector<Callee> callees_;
    std::vector<DFrame> dframes_;
    std::vector<Value> arena_;
    size_t arenaTop_ = 0;

    VmResult result_;
    bool ran_ = false;
};

} // namespace nse

#endif // NSE_VM_INTERPRETER_H
