/**
 * @file
 * Interpreter tests: opcode semantics (parameterized over the
 * arithmetic/compare tables), objects and virtual dispatch, arrays,
 * statics, strings, natives, runtime traps, the cycle cost model, and
 * the first-use / instruction hooks.
 */

#include <functional>
#include <gtest/gtest.h>

#include "support/error.h"
#include "vm/interpreter.h"
#include "workloads/common.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

namespace nse
{
namespace
{

using EmitFn = std::function<void(MethodBuilder &)>;

/** Build T.main() that runs `emit` (leaving an int) and prints it. */
Program
exprProgram(const EmitFn &emit)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &t = pb.addClass("T");
    t.addStaticField("g", "I");
    t.addStaticField("obj", "A");
    MethodBuilder &m = t.addMethod("main", "()V");
    emit(m);
    m.invokeStatic("Sys", "print", "(I)V");
    m.emit(Opcode::RETURN);
    return pb.build("T");
}

int64_t
evalExpr(const EmitFn &emit, std::vector<int64_t> input = {})
{
    Program p = exprProgram(emit);
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives, std::move(input));
    VmResult r = vm.run();
    EXPECT_EQ(r.output.size(), 1u);
    return r.output.at(0);
}

// ---------------------------------------------------------------------
// Arithmetic and logic, parameterized.
// ---------------------------------------------------------------------

struct BinCase
{
    Opcode op;
    int64_t a;
    int64_t b;
    int64_t expected;
};

class BinaryOps : public ::testing::TestWithParam<BinCase>
{
};

TEST_P(BinaryOps, Computes)
{
    const BinCase &c = GetParam();
    int64_t got = evalExpr([&](MethodBuilder &m) {
        m.pushInt(static_cast<int32_t>(c.a));
        m.pushInt(static_cast<int32_t>(c.b));
        m.emit(c.op);
    });
    EXPECT_EQ(got, c.expected) << opcodeInfo(c.op).name;
}

INSTANTIATE_TEST_SUITE_P(
    Table, BinaryOps,
    ::testing::Values(
        BinCase{Opcode::IADD, 7, 5, 12},
        BinCase{Opcode::IADD, -7, 5, -2},
        BinCase{Opcode::ISUB, 7, 5, 2},
        BinCase{Opcode::ISUB, 5, 7, -2},
        BinCase{Opcode::IMUL, -3, 9, -27},
        BinCase{Opcode::IDIV, 17, 5, 3},
        BinCase{Opcode::IDIV, -17, 5, -3},
        BinCase{Opcode::IREM, 17, 5, 2},
        BinCase{Opcode::IREM, -17, 5, -2},
        BinCase{Opcode::ISHL, 3, 4, 48},
        BinCase{Opcode::ISHR, -16, 2, -4},
        BinCase{Opcode::IUSHR, -1, 60, 15},
        BinCase{Opcode::IAND, 0b1100, 0b1010, 0b1000},
        BinCase{Opcode::IOR, 0b1100, 0b1010, 0b1110},
        BinCase{Opcode::IXOR, 0b1100, 0b1010, 0b0110}));

struct CmpCase
{
    Cond cond;
    int64_t a;
    int64_t b;
    bool expected;
};

class CompareOps : public ::testing::TestWithParam<CmpCase>
{
};

TEST_P(CompareOps, Branches)
{
    const CmpCase &c = GetParam();
    int64_t got = evalExpr([&](MethodBuilder &m) {
        m.pushInt(static_cast<int32_t>(c.a));
        m.pushInt(static_cast<int32_t>(c.b));
        m.ifICmpElse(c.cond, [&] { m.pushInt(1); },
                     [&] { m.pushInt(0); });
    });
    EXPECT_EQ(got, c.expected ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(
    Table, CompareOps,
    ::testing::Values(CmpCase{Cond::Eq, 3, 3, true},
                      CmpCase{Cond::Eq, 3, 4, false},
                      CmpCase{Cond::Ne, 3, 4, true},
                      CmpCase{Cond::Lt, -1, 0, true},
                      CmpCase{Cond::Lt, 0, 0, false},
                      CmpCase{Cond::Ge, 0, 0, true},
                      CmpCase{Cond::Gt, 1, 0, true},
                      CmpCase{Cond::Le, 1, 0, false},
                      CmpCase{Cond::Le, -5, -5, true}));

TEST(VmOps, NegationAndStack)
{
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  m.pushInt(9);
                  m.emit(Opcode::INEG);
              }),
              -9);
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  m.pushInt(1);
                  m.pushInt(2);
                  m.emit(Opcode::SWAP);
                  m.emit(Opcode::ISUB); // 2 - 1
              }),
              1);
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  m.pushInt(6);
                  m.emit(Opcode::DUP);
                  m.emit(Opcode::IMUL);
              }),
              36);
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  m.pushInt(1);
                  m.pushInt(99);
                  m.emit(Opcode::POP);
              }),
              1);
}

TEST(VmOps, DupX1)
{
    // a b -> b a b; compute b - (a - b) style check: push 10 3,
    // DUP_X1 gives 3 10 3; IADD -> 3 13; ISUB -> -10.
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  m.pushInt(10);
                  m.pushInt(3);
                  m.emit(Opcode::DUP_X1);
                  m.emit(Opcode::IADD);
                  m.emit(Opcode::ISUB);
              }),
              -10);
}

TEST(VmOps, LoopComputesFactorial)
{
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  uint16_t acc = m.newLocal();
                  uint16_t i = m.newLocal();
                  m.pushInt(1);
                  m.istore(acc);
                  m.forRange(i, 1, 7, [&] {
                      m.iload(acc);
                      m.iload(i);
                      m.emit(Opcode::IMUL);
                      m.istore(acc);
                  });
                  m.iload(acc);
              }),
              720);
}

TEST(VmOps, IntsAre64Bit)
{
    // 2^40 via repeated shifts does not wrap.
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  m.pushInt(1);
                  m.pushInt(40);
                  m.emit(Opcode::ISHL);
              }),
              1LL << 40);
}

// ---------------------------------------------------------------------
// Arrays, statics, objects.
// ---------------------------------------------------------------------

TEST(VmHeapOps, IntArrays)
{
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  uint16_t arr = m.newLocal();
                  m.pushInt(5);
                  m.emit(Opcode::NEWARRAY);
                  m.astore(arr);
                  m.aload(arr);
                  m.pushInt(2);
                  m.pushInt(77);
                  m.emit(Opcode::IASTORE);
                  m.aload(arr);
                  m.pushInt(2);
                  m.emit(Opcode::IALOAD);
                  m.aload(arr);
                  m.emit(Opcode::ARRAYLENGTH);
                  m.emit(Opcode::IADD); // 77 + 5
              }),
              82);
}

TEST(VmHeapOps, RefArraysHoldNulls)
{
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  uint16_t arr = m.newLocal();
                  m.pushInt(3);
                  m.emit(Opcode::ANEWARRAY);
                  m.astore(arr);
                  // Fresh ref-array elements are null: IFNULL taken.
                  m.aload(arr);
                  m.pushInt(0);
                  m.emit(Opcode::AALOAD);
                  CodeBuilder::Label yes = m.newLabel();
                  CodeBuilder::Label done = m.newLabel();
                  m.branch(Opcode::IFNULL, yes);
                  m.pushInt(0);
                  m.branch(Opcode::GOTO, done);
                  m.bind(yes);
                  m.pushInt(1);
                  m.bind(done);
              }),
              1);
}

TEST(VmHeapOps, RefArrayStoreAndLoad)
{
    EXPECT_EQ(evalExpr([](MethodBuilder &m) {
                  uint16_t arr = m.newLocal();
                  uint16_t inner = m.newLocal();
                  m.pushInt(2);
                  m.emit(Opcode::ANEWARRAY);
                  m.astore(arr);
                  m.pushInt(4);
                  m.emit(Opcode::NEWARRAY);
                  m.astore(inner);
                  m.aload(arr);
                  m.pushInt(1);
                  m.aload(inner);
                  m.emit(Opcode::AASTORE);
                  m.aload(arr);
                  m.pushInt(1);
                  m.emit(Opcode::AALOAD);
                  m.emit(Opcode::ARRAYLENGTH);
              }),
              4);
}

TEST(VmHeapOps, StaticsPersistAcrossCalls)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &t = pb.addClass("T");
    t.addStaticField("g", "I");
    MethodBuilder &bump = t.addMethod("bump", "()V");
    bump.getStatic("T", "g", "I");
    bump.pushInt(1);
    bump.emit(Opcode::IADD);
    bump.putStatic("T", "g", "I");
    bump.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    uint16_t i = m.newLocal();
    m.forRange(i, 0, 10,
               [&] { m.invokeStatic("T", "bump", "()V"); });
    m.getStatic("T", "g", "I");
    m.invokeStatic("Sys", "print", "(I)V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    EXPECT_EQ(vm.run().output.at(0), 10);
}

TEST(VmHeapOps, VirtualDispatchUsesDynamicType)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &base = pb.addClass("Shape");
    base.addField("tag", "I");
    MethodBuilder &area = base.addVirtualMethod("area", "()I");
    area.pushInt(1);
    area.emit(Opcode::IRETURN);

    ClassBuilder &circle = pb.addClass("Circle");
    circle.setSuper("Shape");
    MethodBuilder &carea = circle.addVirtualMethod("area", "()I");
    carea.pushInt(314);
    carea.emit(Opcode::IRETURN);

    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("main", "()V");
    uint16_t obj = m.newLocal();
    // Static type Shape, dynamic type Circle: must dispatch to Circle.
    m.newObject("Circle");
    m.astore(obj);
    m.aload(obj);
    m.invokeVirtual("Shape", "area", "()I");
    // Inherited field slot works on the subclass instance.
    m.aload(obj);
    m.pushInt(5);
    m.putField("Shape", "tag", "I");
    m.aload(obj);
    m.getField("Shape", "tag", "I");
    m.emit(Opcode::IADD);
    m.invokeStatic("Sys", "print", "(I)V");
    m.emit(Opcode::RETURN);

    Program p = pb.build("T");
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    EXPECT_EQ(vm.run().output.at(0), 319);
}

TEST(VmHeapOps, LdcStringInternsOnce)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("main", "()V");
    // Same literal twice: identical reference (IF_ACMPEQ -> 1).
    m.ldcString("abc");
    m.ldcString("abc");
    CodeBuilder::Label eq = m.newLabel();
    CodeBuilder::Label done = m.newLabel();
    m.branch(Opcode::IF_ACMPEQ, eq);
    m.pushInt(0);
    m.branch(Opcode::GOTO, done);
    m.bind(eq);
    m.pushInt(1);
    m.bind(done);
    m.invokeStatic("Sys", "print", "(I)V");
    // Contents readable as char codes.
    m.ldcString("AB");
    m.invokeStatic("Sys", "printArr", "(A)V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    VmResult r = vm.run();
    EXPECT_EQ(r.output, (std::vector<int64_t>{1, 'A', 'B'}));
}

// ---------------------------------------------------------------------
// Traps and limits.
// ---------------------------------------------------------------------

TEST(VmTraps, DivisionByZero)
{
    Program p = exprProgram([](MethodBuilder &m) {
        m.pushInt(1);
        m.pushInt(0);
        m.emit(Opcode::IDIV);
    });
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(VmTraps, ArrayIndexOutOfBounds)
{
    Program p = exprProgram([](MethodBuilder &m) {
        m.pushInt(2);
        m.emit(Opcode::NEWARRAY);
        m.pushInt(5);
        m.emit(Opcode::IALOAD);
    });
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(VmTraps, NegativeArrayLength)
{
    Program p = exprProgram([](MethodBuilder &m) {
        m.pushInt(-1);
        m.emit(Opcode::NEWARRAY);
        m.emit(Opcode::ARRAYLENGTH);
    });
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(VmTraps, NullReceiver)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &f = t.addVirtualMethod("f", "()I");
    f.pushInt(0);
    f.emit(Opcode::IRETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    m.emit(Opcode::ACONST_NULL);
    m.invokeVirtual("T", "f", "()I");
    m.invokeStatic("Sys", "print", "(I)V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(VmTraps, BytecodeBudgetStopsInfiniteLoops)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &m = t.addMethod("main", "()V");
    auto head = m.newLabel();
    m.bind(head);
    m.emit(Opcode::NOP);
    m.branch(Opcode::GOTO, head);
    Program p = pb.build("T");
    NativeRegistry natives = standardNatives();
    VmOptions opts;
    opts.maxBytecodes = 10'000;
    Vm vm(p, natives, {}, opts);
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(VmTraps, RunTwiceRejected)
{
    Program p = exprProgram([](MethodBuilder &m) { m.pushInt(0); });
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    vm.run();
    EXPECT_THROW(vm.run(), FatalError);
}

TEST(VmTraps, UnknownNativeIsFatal)
{
    ProgramBuilder pb;
    ClassBuilder &t = pb.addClass("T");
    t.addNativeMethod("mystery", "()V");
    MethodBuilder &m = t.addMethod("main", "()V");
    m.invokeStatic("T", "mystery", "()V");
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    NativeRegistry natives; // empty
    Vm vm(p, natives);
    EXPECT_THROW(vm.run(), FatalError);
}

// ---------------------------------------------------------------------
// Cost model and hooks.
// ---------------------------------------------------------------------

TEST(VmClock, CostsAreExactPerOpcode)
{
    Program p = exprProgram([](MethodBuilder &m) {
        m.pushInt(3);
        m.pushInt(4);
        m.emit(Opcode::IADD);
    });
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    VmResult r = vm.run();
    uint64_t expected = 2 * opcodeInfo(Opcode::PUSH_I8).cycleCost +
                        opcodeInfo(Opcode::IADD).cycleCost +
                        opcodeInfo(Opcode::INVOKESTATIC).cycleCost +
                        opcodeInfo(Opcode::RETURN).cycleCost +
                        natives.lookup("Sys.print").cycleCost;
    EXPECT_EQ(r.execCycles, expected);
    EXPECT_EQ(r.clock, expected); // no stalls without a hook
    EXPECT_EQ(r.bytecodes, 5u);
    EXPECT_EQ(r.nativeCalls, 1u);
}

TEST(VmClock, BlockDelimiterCostCharged)
{
    auto build = [] {
        return exprProgram([](MethodBuilder &m) {
            m.pushInt(1);
            m.ifNZElse([&] { m.pushInt(5); }, [&] { m.pushInt(6); });
        });
    };
    NativeRegistry natives = standardNatives();
    Program p1 = build();
    Program p2 = build();
    Vm plain(p1, natives);
    VmOptions opts;
    opts.blockDelimiterCost = 12;
    Vm checked(p2, natives, {}, opts);
    uint64_t base = plain.run().execCycles;
    uint64_t with = checked.run().execCycles;
    // Executed block boundaries: IFEQ, GOTO, RETURN = 3 x 12.
    EXPECT_EQ(with - base, 36u);
}

TEST(VmHooks, FirstUseFiresOncePerMethodInOrder)
{
    ProgramBuilder pb;
    addRuntimeClasses(pb);
    ClassBuilder &t = pb.addClass("T");
    MethodBuilder &leaf = t.addMethod("leaf", "()V");
    leaf.emit(Opcode::RETURN);
    MethodBuilder &m = t.addMethod("main", "()V");
    m.invokeStatic("T", "leaf", "()V");
    m.invokeStatic("T", "leaf", "()V"); // second call: no first use
    m.emit(Opcode::RETURN);
    Program p = pb.build("T");
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    std::vector<std::string> uses;
    vm.setFirstUseHook([&](MethodId id, uint64_t clock) {
        uses.push_back(p.methodLabel(id));
        return clock + 1000; // inject a stall
    });
    VmResult r = vm.run();
    ASSERT_EQ(uses.size(), 2u);
    EXPECT_EQ(uses[0], "T.main");
    EXPECT_EQ(uses[1], "T.leaf");
    EXPECT_EQ(r.clock - r.execCycles, 2000u); // stalls tracked in clock
    EXPECT_EQ(r.methodsExecuted, 2u);
}

TEST(VmHooks, InstructionHookSeesEveryBytecode)
{
    Program p = exprProgram([](MethodBuilder &m) { m.pushInt(3); });
    NativeRegistry natives = standardNatives();
    Vm vm(p, natives);
    uint64_t count = 0;
    uint64_t last_clock = 0;
    vm.setInstructionHook(
        [&](MethodId, const Instruction &, uint64_t clock) {
            ++count;
            EXPECT_GE(clock, last_clock);
            last_clock = clock;
        });
    VmResult r = vm.run();
    EXPECT_EQ(count, r.bytecodes);
}

TEST(VmHooks, InputNativesReadArgs)
{
    int64_t got = evalExpr(
        [](MethodBuilder &m) {
            m.pushInt(1);
            m.invokeStatic("Sys", "arg", "(I)I");
            m.invokeStatic("Sys", "argCount", "()I");
            m.emit(Opcode::IMUL);
        },
        {7, 11});
    EXPECT_EQ(got, 22); // arg(1)=11 times argCount=2
}

// ---------------------------------------------------------------------
// Dispatch equivalence: threaded decoded dispatch against the Classic
// oracle.
// ---------------------------------------------------------------------

VmResult
runWith(const Workload &wl, DispatchMode mode, const DecodedCache *dc,
        uint32_t block_delimiter_cost = 0)
{
    VmOptions opts;
    opts.dispatch = mode;
    opts.blockDelimiterCost = block_delimiter_cost;
    Vm vm(wl.program, wl.natives, wl.testInput, opts, dc);
    return vm.run();
}

void
expectSameRun(const VmResult &a, const VmResult &oracle,
              const std::string &what)
{
    EXPECT_EQ(a.clock, oracle.clock) << what;
    EXPECT_EQ(a.execCycles, oracle.execCycles) << what;
    EXPECT_EQ(a.bytecodes, oracle.bytecodes) << what;
    EXPECT_EQ(a.nativeCalls, oracle.nativeCalls) << what;
    EXPECT_EQ(a.methodsExecuted, oracle.methodsExecuted) << what;
    EXPECT_EQ(a.output, oracle.output) << what;
}

TEST(VmDispatch, ModesAgreeOnEveryWorkload)
{
    for (const Workload &wl : allWorkloads()) {
        DecodedCache dc(wl.program);
        expectSameRun(runWith(wl, DispatchMode::Threaded, &dc),
                      runWith(wl, DispatchMode::Classic, nullptr),
                      wl.name);
    }
}

TEST(VmDispatch, ModesAgreeUnderBlockDelimiterCost)
{
    // The delimiter surcharge is baked into decoded branch/return
    // costs; clocks must still match the classic per-boundary charge.
    // The shared cache was built with cost 0, so the Vm must detect
    // the mismatch and decode privately at cost 9.
    Workload wl = makeZipper();
    DecodedCache dc(wl.program, /*block_delimiter_cost=*/0);
    expectSameRun(runWith(wl, DispatchMode::Threaded, &dc, 9),
                  runWith(wl, DispatchMode::Classic, nullptr, 9), "bdc");
}

TEST(VmDispatch, HookSequencesAreBitIdenticalAcrossModes)
{
    // Under an instruction hook the decoded loop runs the plain
    // (unfused) stream: the hook must see every source bytecode with
    // the same offsets and clocks as the classic interpreter, and the
    // first-use hook the same methods in the same order at the same
    // clocks.
    SyntheticSpec spec;
    spec.seed = 21;
    spec.classCount = 4;
    spec.methodsPerClass = 5;
    Program prog = makeSyntheticProgram(spec);
    NativeRegistry natives = standardNatives();

    struct Seq
    {
        std::vector<uint64_t> instrs;
        std::vector<uint64_t> firstUses;
    };
    auto record = [&](DispatchMode mode) {
        VmOptions opts;
        opts.dispatch = mode;
        Vm vm(prog, natives, {3, 1, 4}, opts);
        Seq seq;
        vm.setInstructionHook(
            [&](MethodId id, const Instruction &inst, uint64_t clock) {
                seq.instrs.push_back(
                    (static_cast<uint64_t>(id.classIdx) << 48) ^
                    (static_cast<uint64_t>(id.methodIdx) << 32) ^
                    (static_cast<uint64_t>(inst.offset) << 20) ^
                    clock);
            });
        vm.setFirstUseHook([&](MethodId id, uint64_t clock) {
            seq.firstUses.push_back(
                (static_cast<uint64_t>(id.classIdx) << 48) ^
                (static_cast<uint64_t>(id.methodIdx) << 32) ^ clock);
            return clock;
        });
        vm.run();
        return seq;
    };

    Seq oracle = record(DispatchMode::Classic);
    ASSERT_FALSE(oracle.instrs.empty());
    Seq got = record(DispatchMode::Threaded);
    EXPECT_EQ(got.instrs, oracle.instrs);
    EXPECT_EQ(got.firstUses, oracle.firstUses);
}

} // namespace
} // namespace nse
