/**
 * @file
 * Quickstart: the paper's running example, end to end.
 *
 * Builds the two-class application from the paper's Figure 1 (Class A
 * with Main/Foo_A/Bar_A, Class B with Foo_B/Bar_B), executes it,
 * predicts its first-use order (Figure 2), restructures the class
 * files (Figure 3), and simulates strict vs non-strict transfer over
 * a modem link — printing the invocation-latency and total-time wins.
 *
 * Build and run:  ./build/examples/quickstart
 */

#include <iostream>

#include "analysis/first_use.h"
#include "program/builder.h"
#include "restructure/reorder.h"
#include "sim/replay.h"
#include "vm/interpreter.h"
#include "vm/natives.h"

using namespace nse;

namespace
{

/** Class A: global data + Main, Foo_A, Bar_A (paper Figure 1). */
void
buildClassA(ProgramBuilder &pb)
{
    ClassBuilder &a = pb.addClass("A");
    a.addStaticField("counter", "I");

    // Main: calls Bar_B (in class B!) first, then Foo_A — the
    // cross-class first-use dependency Figure 4's schedule solves.
    MethodBuilder &main = a.addMethod("Main", "()V");
    main.pushInt(21);
    main.invokeStatic("B", "Bar_B", "(I)I");
    main.invokeStatic("A", "Foo_A", "(I)I");
    main.invokeStatic("Sys", "print", "(I)V");
    main.emit(Opcode::RETURN);

    MethodBuilder &foo = a.addMethod("Foo_A", "(I)I");
    uint16_t i = foo.newLocal();
    foo.forRange(i, 0, 50, [&] {
        foo.getStatic("A", "counter", "I");
        foo.pushInt(1);
        foo.emit(Opcode::IADD);
        foo.putStatic("A", "counter", "I");
    });
    foo.iload(0);
    foo.getStatic("A", "counter", "I");
    foo.emit(Opcode::IADD);
    foo.emit(Opcode::IRETURN);

    MethodBuilder &bar = a.addMethod("Bar_A", "(I)I");
    bar.iload(0);
    bar.pushInt(3);
    bar.emit(Opcode::IMUL);
    bar.emit(Opcode::IRETURN);
}

/** Class B: global data + Foo_B, Bar_B. */
void
buildClassB(ProgramBuilder &pb)
{
    ClassBuilder &b = pb.addClass("B");
    b.addStaticField("scale", "I");

    MethodBuilder &foo = b.addMethod("Foo_B", "(I)I");
    foo.iload(0);
    foo.pushInt(7);
    foo.emit(Opcode::IADD);
    foo.emit(Opcode::IRETURN);

    MethodBuilder &bar = b.addMethod("Bar_B", "(I)I");
    bar.iload(0);
    bar.invokeStatic("B", "Foo_B", "(I)I");
    bar.pushInt(2);
    bar.emit(Opcode::IMUL);
    bar.emit(Opcode::IRETURN);
}

} // namespace

int
main()
{
    // --- 1. Author the mobile program (paper Figure 1) -------------
    ProgramBuilder pb;
    buildClassA(pb);
    buildClassB(pb);
    ClassBuilder &sys = pb.addClass("Sys");
    sys.addNativeMethod("print", "(I)V");
    sys.addNativeMethod("argCount", "()I");
    sys.addNativeMethod("arg", "(I)I");
    Program prog = pb.build("A", "Main");

    // --- 2. Execute it locally --------------------------------------
    NativeRegistry natives = standardNatives();
    Vm vm(prog, natives);
    VmResult run = vm.run();
    std::cout << "program output: " << run.output.at(0)
              << " (expected " << ((21 + 7) * 2 + 50) << ")\n"
              << "bytecodes: " << run.bytecodes
              << ", exec cycles: " << run.execCycles << "\n\n";

    // --- 3. Predict first-use order (paper Figure 2) ----------------
    FirstUseOrder order = staticFirstUse(prog);
    std::cout << "static first-use order:\n";
    for (const MethodId &id : order.order)
        std::cout << "  " << prog.methodLabel(id) << "\n";

    // --- 4. Restructure the class files (paper Figure 3) ------------
    Program restructured = reorderProgram(prog, order);
    std::cout << "\nclass A methods after restructuring:";
    for (const MethodInfo &m : restructured.classByName("A").methods)
        std::cout << " " << restructured.classByName("A").methodName(m);
    std::cout << "\n\n";

    // --- 5. Strict vs non-strict over a modem -----------------------
    SimContext ctx(prog, natives, {}, {});
    SimConfig strict;
    strict.mode = SimConfig::Mode::Strict;
    strict.link = kModemLink;
    SimResult s = runReplay(ctx, strict);

    SimConfig ns;
    ns.mode = SimConfig::Mode::Parallel;
    ns.ordering = OrderingSource::Static;
    ns.link = kModemLink;
    ns.parallelLimit = 4;
    SimResult n = runReplay(ctx, ns);

    std::cout << "strict:     invocation " << s.invocationLatency
              << " cycles, total " << s.totalCycles << " cycles\n"
              << "non-strict: invocation " << n.invocationLatency
              << " cycles, total " << n.totalCycles << " cycles\n"
              << "normalized execution time: "
              << normalizedPct(n, s) << "% of strict\n";
    return 0;
}
