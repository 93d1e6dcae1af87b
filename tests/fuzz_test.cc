/**
 * @file
 * Robustness sweeps: randomly corrupted wire bytes and random byte
 * junk must never crash, hang, or raise anything other than a clean
 * FatalError from the parser, the streaming loader, or the bytecode
 * decoder. (A PanicError here would mean an internal invariant can be
 * violated by untrusted input — exactly what a mobile-code loader
 * cannot afford.)
 *
 * Plus a dispatch differential sweep: randomized verified program
 * shapes and inputs must produce bit-identical results (clock,
 * counts, output) under direct-threaded and classic dispatch.
 */

#include <gtest/gtest.h>

#include "support/error.h"
#include "support/rng.h"

#include "bytecode/instruction.h"
#include "classfile/parser.h"
#include "classfile/writer.h"
#include "vm/interpreter.h"
#include "vm/streaming_loader.h"
#include "workloads/synthetic.h"

namespace nse
{
namespace
{

std::vector<uint8_t>
sampleBytes()
{
    SyntheticSpec spec;
    spec.seed = 404;
    spec.classCount = 3;
    spec.methodsPerClass = 5;
    Program p = makeSyntheticProgram(spec);
    return writeClassFile(p.classAt(0)).bytes;
}

class CorruptionSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CorruptionSweep, ParserNeverPanics)
{
    std::vector<uint8_t> base = sampleBytes();
    Rng rng(GetParam());
    for (int round = 0; round < 200; ++round) {
        std::vector<uint8_t> bytes = base;
        int flips = 1 + static_cast<int>(rng.below(8));
        for (int f = 0; f < flips; ++f) {
            size_t pos = rng.below(bytes.size());
            bytes[pos] ^= static_cast<uint8_t>(1 + rng.below(255));
        }
        try {
            ClassFile cf = parseClassFile(bytes);
            // Parsed despite corruption (flip hit a don't-care byte):
            // it must still re-serialize without crashing.
            writeClassFile(cf);
        } catch (const FatalError &) {
            // clean rejection
        }
        // PanicError / std::bad_alloc / segfault => test failure.
    }
}

TEST_P(CorruptionSweep, TruncationsAlwaysRejectCleanly)
{
    std::vector<uint8_t> base = sampleBytes();
    Rng rng(GetParam() ^ 0x7777);
    for (int round = 0; round < 100; ++round) {
        size_t keep = rng.below(base.size());
        std::vector<uint8_t> bytes(base.begin(),
                                   base.begin() +
                                       static_cast<long>(keep));
        EXPECT_THROW(parseClassFile(bytes), FatalError);
    }
}

TEST_P(CorruptionSweep, StreamingLoaderNeverPanics)
{
    std::vector<uint8_t> base = sampleBytes();
    Rng rng(GetParam() ^ 0xbeef);
    for (int round = 0; round < 100; ++round) {
        std::vector<uint8_t> bytes = base;
        size_t pos = rng.below(bytes.size());
        bytes[pos] ^= static_cast<uint8_t>(1 + rng.below(255));
        StreamingLoader loader;
        try {
            // Feed in ragged chunks.
            size_t off = 0;
            while (off < bytes.size()) {
                size_t n = std::min<size_t>(1 + rng.below(73),
                                            bytes.size() - off);
                loader.feed(bytes.data() + off, n);
                off += n;
            }
        } catch (const FatalError &) {
            // clean rejection mid-stream
        }
    }
}

TEST_P(CorruptionSweep, DecoderNeverPanicsOnJunk)
{
    Rng rng(GetParam() ^ 0x5150);
    for (int round = 0; round < 300; ++round) {
        std::vector<uint8_t> junk(1 + rng.below(64));
        for (auto &b : junk)
            b = static_cast<uint8_t>(rng.next());
        try {
            auto insts = decodeCode(junk);
            // Decodable junk must re-encode to the same bytes.
            EXPECT_EQ(encodeCode(insts), junk);
        } catch (const FatalError &) {
            // clean rejection
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweep,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Dispatch differential fuzzing: randomized verified program shapes
// must execute bit-identically under every dispatch strategy.
// ---------------------------------------------------------------------

class DispatchSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DispatchSweep, RandomProgramsAgreeAcrossDispatchModes)
{
    Rng rng(GetParam() ^ 0xd15);
    NativeRegistry natives = standardNatives();
    for (int round = 0; round < 6; ++round) {
        SyntheticSpec spec;
        spec.seed = rng.next();
        spec.classCount = 2 + static_cast<int>(rng.below(6));
        spec.methodsPerClass = 2 + static_cast<int>(rng.below(8));
        spec.reachablePct = 50 + static_cast<int>(rng.below(51));
        spec.workScale = 1 + static_cast<int>(rng.below(48));
        Program prog = makeSyntheticProgram(spec);

        std::vector<int64_t> input(rng.below(24));
        for (int64_t &v : input)
            v = static_cast<int64_t>(rng.below(20001)) - 10000;

        DecodedCache dc(prog);
        auto run = [&](DispatchMode mode, const DecodedCache *cache) {
            VmOptions opts;
            opts.dispatch = mode;
            Vm vm(prog, natives, input, opts, cache);
            return vm.run();
        };
        VmResult oracle = run(DispatchMode::Classic, nullptr);
        VmResult got = run(DispatchMode::Threaded, &dc);
        EXPECT_EQ(got.clock, oracle.clock);
        EXPECT_EQ(got.execCycles, oracle.execCycles);
        EXPECT_EQ(got.bytecodes, oracle.bytecodes);
        EXPECT_EQ(got.nativeCalls, oracle.nativeCalls);
        EXPECT_EQ(got.methodsExecuted, oracle.methodsExecuted);
        EXPECT_EQ(got.output, oracle.output);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchSweep,
                         ::testing::Values(11, 12, 13, 14));

} // namespace
} // namespace nse
