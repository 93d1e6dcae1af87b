#include "vm/interpreter.h"

#include "support/error.h"

namespace nse
{

namespace
{

// VM integer arithmetic wraps (two's complement, like JVM iadd/imul);
// signed overflow is undefined in C++, so wrap in unsigned space.
int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

int64_t
wrapNeg(int64_t a)
{
    return static_cast<int64_t>(0 - static_cast<uint64_t>(a));
}

} // namespace

Vm::Vm(const Program &prog, const NativeRegistry &natives,
       std::vector<int64_t> input, VmOptions opts,
       const DecodedCache *decoded)
    : prog_(prog), natives_(natives), input_(std::move(input)),
      opts_(opts), verifier_(prog), linker_(prog)
{
    linker_.prepareAll();
    methodBase_.resize(prog_.classCount());
    uint32_t total = 0;
    for (uint16_t c = 0; c < prog_.classCount(); ++c) {
        methodBase_[c] = total;
        total += static_cast<uint32_t>(prog_.classAt(c).methods.size());
    }
    seen_.assign(total, 0);
    // A shared cache decoded with a different delimiter cost carries
    // different baked-in branch costs; fall back to a private decode.
    if (decoded &&
        decoded->blockDelimiterCost() == opts_.blockDelimiterCost)
        decoded_ = decoded;
}

void
Vm::charge(uint64_t cycles)
{
    result_.clock += cycles;
    result_.execCycles += cycles;
}

void
Vm::noteFirstUse(MethodId id)
{
    uint8_t &flag = seen_[denseIndex(id)];
    if (flag)
        return;
    flag = 1;
    ++seenCount_;
    if (firstUse_) {
        uint64_t advanced = firstUse_(id, result_.clock);
        NSE_ASSERT(advanced >= result_.clock,
                   "first-use hook moved the clock backwards");
        result_.clock = advanced;
    }
}

const VerifiedMethod &
Vm::codeOf(MethodId id)
{
    auto it = codeCache_.find(id);
    if (it == codeCache_.end()) {
        // Step-3 verification happens the first time a method is about
        // to run (in a non-strict loader: right after it transfers).
        it = codeCache_.emplace(id, verifier_.verifyMethod(id)).first;
    }
    return it->second;
}

void
Vm::pushFrame(MethodId id, std::vector<Value> args)
{
    noteFirstUse(id);
    const MethodInfo &m = prog_.method(id);
    Frame f;
    f.id = id;
    f.code = &codeOf(id);
    f.locals.assign(m.maxLocals, Value::makeInt(0));
    NSE_ASSERT(args.size() <= m.maxLocals, "argument overflow in ",
               prog_.methodLabel(id));
    for (size_t i = 0; i < args.size(); ++i)
        f.locals[i] = args[i];
    f.stack.reserve(f.code->maxStack);
    frames_.push_back(std::move(f));
}

Value
Vm::popVal(Frame &f)
{
    NSE_ASSERT(!f.stack.empty(), "operand stack underflow at runtime");
    Value v = f.stack.back();
    f.stack.pop_back();
    return v;
}

int64_t
Vm::popInt(Frame &f)
{
    return popVal(f).asInt();
}

Ref
Vm::popRef(Frame &f)
{
    return popVal(f).asRef();
}

void
Vm::push(Frame &f, Value v)
{
    f.stack.push_back(v);
}

Ref
Vm::internString(uint16_t class_idx, uint16_t cp_idx)
{
    auto key = std::make_pair(class_idx, cp_idx);
    auto it = stringCache_.find(key);
    if (it != stringCache_.end())
        return it->second;
    const ClassFile &cf = prog_.classAt(class_idx);
    const CpEntry &e = cf.cpool.at(cp_idx, CpTag::String);
    const std::string &s = cf.cpool.utf8At(e.ref1);
    Ref arr = heap_.allocIntArray(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        heap_.arraySet(arr, static_cast<int64_t>(i),
                       Value::makeInt(static_cast<uint8_t>(s[i])));
    }
    stringCache_.emplace(key, arr);
    return arr;
}

void
Vm::callNative(MethodId id, std::vector<Value> args, Frame *caller)
{
    noteFirstUse(id);
    const ClassFile &cf = prog_.classAt(id.classIdx);
    const MethodInfo &m = prog_.method(id);
    std::string qualified = cat(cf.name(), ".", cf.methodName(m));
    const NativeMethod &native = natives_.lookup(qualified);
    charge(native.cycleCost);
    ++result_.nativeCalls;
    NativeContext ctx{heap_, result_.output, input_};
    Value ret = native.fn(ctx, args);
    MethodSig sig = parseMethodDescriptor(cf.methodDescriptor(m));
    if (sig.ret != TypeKind::Void) {
        NSE_ASSERT(caller, "native with return value at program entry");
        push(*caller, sig.ret == TypeKind::Int
                          ? Value::makeInt(ret.asInt())
                          : Value::makeRef(ret.asRef()));
    }
}

void
Vm::invoke(Frame &f, const Instruction &inst, bool is_virtual)
{
    const CallRef &ref = linker_.resolveCall(
        f.id.classIdx, static_cast<uint16_t>(inst.operand));

    size_t n_params = ref.sig.params.size();
    size_t n_args = n_params + (is_virtual ? 1 : 0);
    std::vector<Value> args(n_args);
    for (size_t i = 0; i < n_params; ++i)
        args[n_args - 1 - i] = popVal(f);

    MethodId target;
    if (is_virtual) {
        Ref receiver = popRef(f);
        if (receiver == kNullRef)
            fatal("null receiver calling ", ref.className, ".", ref.name);
        args[0] = Value::makeRef(receiver);
        target =
            linker_.virtualTarget(heap_.deref(receiver).classIdx, ref);
    } else {
        target = linker_.staticTarget(ref);
    }

    const MethodInfo &m = prog_.method(target);
    if (m.isNative()) {
        NSE_CHECK(!is_virtual, "virtual dispatch to native method ",
                  prog_.methodLabel(target));
        callNative(target, std::move(args), &f);
    } else {
        pushFrame(target, std::move(args));
    }
}

void
Vm::step()
{
    Frame &f = frames_.back();
    NSE_ASSERT(f.pc < f.code->insts.size(), "pc past method end in ",
               prog_.methodLabel(f.id));
    const Instruction &inst = f.code->insts[f.pc];

    charge(opcodeInfo(inst.op).cycleCost);
    if (opts_.blockDelimiterCost &&
        (isBranch(inst.op) || isReturn(inst.op))) {
        charge(opts_.blockDelimiterCost);
    }
    ++result_.bytecodes;
    if (instr_)
        instr_(f.id, inst, result_.clock);

    size_t next_pc = f.pc + 1;
    auto branch = [&](bool taken) {
        if (taken)
            next_pc = f.code->indexOf(static_cast<uint32_t>(inst.operand));
    };

    switch (inst.op) {
      case Opcode::NOP:
        break;
      case Opcode::PUSH_I8:
      case Opcode::PUSH_I32:
        push(f, Value::makeInt(inst.operand));
        break;
      case Opcode::LDC: {
        auto idx = static_cast<uint16_t>(inst.operand);
        const CpEntry &e = prog_.classAt(f.id.classIdx).cpool.at(idx);
        if (e.tag == CpTag::Integer)
            push(f, Value::makeInt(e.value));
        else
            push(f, Value::makeRef(internString(f.id.classIdx, idx)));
        break;
      }
      case Opcode::ACONST_NULL:
        push(f, Value::makeNull());
        break;
      case Opcode::ILOAD:
      case Opcode::ALOAD:
        push(f, f.locals[static_cast<size_t>(inst.operand)]);
        break;
      case Opcode::ISTORE:
      case Opcode::ASTORE:
        f.locals[static_cast<size_t>(inst.operand)] = popVal(f);
        break;
      case Opcode::POP:
        popVal(f);
        break;
      case Opcode::DUP: {
        Value v = popVal(f);
        push(f, v);
        push(f, v);
        break;
      }
      case Opcode::DUP_X1: {
        Value a = popVal(f);
        Value b = popVal(f);
        push(f, a);
        push(f, b);
        push(f, a);
        break;
      }
      case Opcode::SWAP: {
        Value a = popVal(f);
        Value b = popVal(f);
        push(f, a);
        push(f, b);
        break;
      }
      case Opcode::IADD: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(wrapAdd(a, b)));
        break;
      }
      case Opcode::ISUB: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(wrapSub(a, b)));
        break;
      }
      case Opcode::IMUL: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(wrapMul(a, b)));
        break;
      }
      case Opcode::IDIV: {
        int64_t b = popInt(f), a = popInt(f);
        if (b == 0)
            fatal("division by zero in ", prog_.methodLabel(f.id));
        // INT64_MIN / -1 overflows; it wraps back to INT64_MIN.
        push(f, Value::makeInt(b == -1 ? wrapNeg(a) : a / b));
        break;
      }
      case Opcode::IREM: {
        int64_t b = popInt(f), a = popInt(f);
        if (b == 0)
            fatal("remainder by zero in ", prog_.methodLabel(f.id));
        push(f, Value::makeInt(b == -1 ? 0 : a % b));
        break;
      }
      case Opcode::INEG:
        push(f, Value::makeInt(wrapNeg(popInt(f))));
        break;
      case Opcode::ISHL: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(static_cast<int64_t>(
                    static_cast<uint64_t>(a) << (b & 63))));
        break;
      }
      case Opcode::ISHR: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(a >> (b & 63)));
        break;
      }
      case Opcode::IUSHR: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(static_cast<int64_t>(
                    static_cast<uint64_t>(a) >> (b & 63))));
        break;
      }
      case Opcode::IAND: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(a & b));
        break;
      }
      case Opcode::IOR: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(a | b));
        break;
      }
      case Opcode::IXOR: {
        int64_t b = popInt(f), a = popInt(f);
        push(f, Value::makeInt(a ^ b));
        break;
      }
      case Opcode::IFEQ:
        branch(popInt(f) == 0);
        break;
      case Opcode::IFNE:
        branch(popInt(f) != 0);
        break;
      case Opcode::IFLT:
        branch(popInt(f) < 0);
        break;
      case Opcode::IFGE:
        branch(popInt(f) >= 0);
        break;
      case Opcode::IFGT:
        branch(popInt(f) > 0);
        break;
      case Opcode::IFLE:
        branch(popInt(f) <= 0);
        break;
      case Opcode::IF_ICMPEQ: {
        int64_t b = popInt(f), a = popInt(f);
        branch(a == b);
        break;
      }
      case Opcode::IF_ICMPNE: {
        int64_t b = popInt(f), a = popInt(f);
        branch(a != b);
        break;
      }
      case Opcode::IF_ICMPLT: {
        int64_t b = popInt(f), a = popInt(f);
        branch(a < b);
        break;
      }
      case Opcode::IF_ICMPGE: {
        int64_t b = popInt(f), a = popInt(f);
        branch(a >= b);
        break;
      }
      case Opcode::IF_ICMPGT: {
        int64_t b = popInt(f), a = popInt(f);
        branch(a > b);
        break;
      }
      case Opcode::IF_ICMPLE: {
        int64_t b = popInt(f), a = popInt(f);
        branch(a <= b);
        break;
      }
      case Opcode::IF_ACMPEQ: {
        Ref b = popRef(f), a = popRef(f);
        branch(a == b);
        break;
      }
      case Opcode::IF_ACMPNE: {
        Ref b = popRef(f), a = popRef(f);
        branch(a != b);
        break;
      }
      case Opcode::IFNULL:
        branch(popRef(f) == kNullRef);
        break;
      case Opcode::IFNONNULL:
        branch(popRef(f) != kNullRef);
        break;
      case Opcode::GOTO:
        branch(true);
        break;
      case Opcode::INVOKESTATIC:
        f.pc = next_pc;
        invoke(f, inst, false);
        return;
      case Opcode::INVOKEVIRTUAL:
        f.pc = next_pc;
        invoke(f, inst, true);
        return;
      case Opcode::RETURN:
        frames_.pop_back();
        return;
      case Opcode::IRETURN: {
        Value v = Value::makeInt(popInt(f));
        frames_.pop_back();
        if (!frames_.empty())
            push(frames_.back(), v);
        return;
      }
      case Opcode::ARETURN: {
        Value v = Value::makeRef(popRef(f));
        frames_.pop_back();
        if (!frames_.empty())
            push(frames_.back(), v);
        return;
      }
      case Opcode::NEW: {
        const ClassFile &cf = prog_.classAt(f.id.classIdx);
        const std::string &cls_name = cf.cpool.className(
            static_cast<uint16_t>(inst.operand));
        int cidx = prog_.classIndex(cls_name);
        if (cidx < 0)
            fatal("NEW of unknown class ", cls_name);
        push(f, Value::makeRef(heap_.allocInstance(
                    static_cast<uint16_t>(cidx),
                    linker_.instanceSlotCount(
                        static_cast<uint16_t>(cidx)))));
        break;
      }
      case Opcode::NEWARRAY: {
        int64_t len = popInt(f);
        if (len < 0)
            fatal("negative array length: ", len);
        push(f, Value::makeRef(
                    heap_.allocIntArray(static_cast<size_t>(len))));
        break;
      }
      case Opcode::ANEWARRAY: {
        int64_t len = popInt(f);
        if (len < 0)
            fatal("negative array length: ", len);
        push(f, Value::makeRef(
                    heap_.allocRefArray(static_cast<size_t>(len))));
        break;
      }
      case Opcode::IALOAD:
      case Opcode::AALOAD: {
        int64_t idx = popInt(f);
        Ref arr = popRef(f);
        push(f, heap_.arrayGet(arr, idx));
        break;
      }
      case Opcode::IASTORE: {
        int64_t v = popInt(f);
        int64_t idx = popInt(f);
        Ref arr = popRef(f);
        heap_.arraySet(arr, idx, Value::makeInt(v));
        break;
      }
      case Opcode::AASTORE: {
        Ref v = popRef(f);
        int64_t idx = popInt(f);
        Ref arr = popRef(f);
        heap_.arraySet(arr, idx, Value::makeRef(v));
        break;
      }
      case Opcode::ARRAYLENGTH:
        push(f, Value::makeInt(heap_.arrayLength(popRef(f))));
        break;
      case Opcode::GETSTATIC: {
        const FieldSlot &fs = linker_.resolveField(
            f.id.classIdx, static_cast<uint16_t>(inst.operand));
        NSE_CHECK(fs.isStatic, "GETSTATIC of instance field");
        push(f, linker_.getStatic(fs));
        break;
      }
      case Opcode::PUTSTATIC: {
        const FieldSlot &fs = linker_.resolveField(
            f.id.classIdx, static_cast<uint16_t>(inst.operand));
        NSE_CHECK(fs.isStatic, "PUTSTATIC of instance field");
        linker_.setStatic(fs, popVal(f));
        break;
      }
      case Opcode::GETFIELD: {
        const FieldSlot &fs = linker_.resolveField(
            f.id.classIdx, static_cast<uint16_t>(inst.operand));
        NSE_CHECK(!fs.isStatic, "GETFIELD of static field");
        Ref obj = popRef(f);
        push(f, heap_.deref(obj).slots.at(fs.slot));
        break;
      }
      case Opcode::PUTFIELD: {
        const FieldSlot &fs = linker_.resolveField(
            f.id.classIdx, static_cast<uint16_t>(inst.operand));
        NSE_CHECK(!fs.isStatic, "PUTFIELD of static field");
        Value v = popVal(f);
        Ref obj = popRef(f);
        heap_.deref(obj).slots.at(fs.slot) = v;
        break;
      }
    }

    f.pc = next_pc;
}

void
Vm::runClassic()
{
    pushFrame(prog_.entry(), {});
    while (!frames_.empty()) {
        if (result_.bytecodes >= opts_.maxBytecodes)
            fatal("bytecode budget exceeded (", opts_.maxBytecodes, ")");
        step();
    }
}

// ---------------------------------------------------------------------
// Decoded-IR execution: frames carry offsets into one Value arena,
// operands are inlined, costs pre-summed. The handler bodies live in
// exec_loop.inc and run under computed-goto direct threading.
// ---------------------------------------------------------------------

void
Vm::pushDFrame(MethodId id, const DecodedMethod &dm, size_t args_off,
               uint32_t n_args)
{
    NSE_ASSERT(n_args <= dm.maxLocals, "argument overflow in ",
               prog_.methodLabel(id));
    size_t need =
        static_cast<size_t>(dm.maxLocals) + dm.verified.maxStack;
    if (arena_.size() < arenaTop_ + need)
        arena_.resize(std::max(arena_.size() * 2, arenaTop_ + need));
    Value *loc = arena_.data() + arenaTop_;
    const Value *args = arena_.data() + args_off;
    for (uint32_t i = 0; i < n_args; ++i)
        loc[i] = args[i];
    for (uint32_t i = n_args; i < dm.maxLocals; ++i)
        loc[i] = Value::makeInt(0);
    DFrame f;
    f.id = id;
    f.dm = &dm;
    f.code = instr_ ? dm.plain.data() : dm.fast.data();
    f.base = static_cast<uint32_t>(arenaTop_);
    f.stackBase = f.base + dm.maxLocals;
    arenaTop_ += need;
    dframes_.push_back(f);
}

void
Vm::doInvoke(uint16_t cp_idx, bool is_virtual)
{
    DFrame &f = dframes_.back();
    const CallRef &ref = linker_.resolveCall(f.id.classIdx, cp_idx);
    auto n_params = static_cast<uint32_t>(ref.sig.params.size());
    uint32_t n_args = n_params + (is_virtual ? 1u : 0u);
    // The args are the top n_args stack slots, already in call order.
    size_t args_off = f.stackBase + static_cast<size_t>(f.sp) - n_args;
    f.sp -= static_cast<int32_t>(n_args);

    MethodId target;
    if (is_virtual) {
        Ref receiver = arena_[args_off].ref;
        if (receiver == kNullRef)
            fatal("null receiver calling ", ref.className, ".",
                  ref.name);
        target =
            linker_.virtualTarget(heap_.deref(receiver).classIdx, ref);
    } else {
        target = linker_.staticTarget(ref);
    }

    Callee &ce = callees_[denseIndex(target)];
    if (!ce.known) {
        ce.isNative = prog_.method(target).isNative();
        ce.known = true;
    }
    if (!ce.isNative) {
        noteFirstUse(target);
        if (!ce.dm)
            ce.dm = &decoded_->get(target);
        pushDFrame(target, *ce.dm, args_off, n_args);
        return;
    }

    NSE_CHECK(!is_virtual, "virtual dispatch to native method ",
              prog_.methodLabel(target));
    noteFirstUse(target);
    if (!ce.native) {
        const ClassFile &cf = prog_.classAt(target.classIdx);
        const MethodInfo &m = prog_.method(target);
        ce.native =
            &natives_.lookup(cat(cf.name(), ".", cf.methodName(m)));
        ce.nativeRet =
            parseMethodDescriptor(cf.methodDescriptor(m)).ret;
    }
    charge(ce.native->cycleCost);
    ++result_.nativeCalls;
    std::vector<Value> args(
        arena_.begin() + static_cast<std::ptrdiff_t>(args_off),
        arena_.begin() + static_cast<std::ptrdiff_t>(args_off + n_args));
    NativeContext nctx{heap_, result_.output, input_};
    Value ret = ce.native->fn(nctx, args);
    if (ce.nativeRet != TypeKind::Void) {
        arena_[f.stackBase + static_cast<size_t>(f.sp)] =
            ce.nativeRet == TypeKind::Int ? Value::makeInt(ret.asInt())
                                          : Value::makeRef(ret.asRef());
        ++f.sp;
    }
}

// Execution registers shared by both compiled loops. The clock /
// exec-cycle / bytecode accumulators live in locals so the hot path
// never touches result_; VM_SAVE flushes them (and pc/sp) before
// anything that can observe result_ or move the frame stack, and
// VM_RELOAD refetches everything afterwards. VM_FETCH mirrors the
// classic run()/step() preamble exactly: budget check first, then
// charge the (pre-summed) cost, count the covered bytecodes, and fire
// the instruction hook (only ever set with the 1:1 plain stream).
/** Frame-register reload only; the accounting locals stay live. */
#define VM_POP_RELOAD()                                                 \
    do {                                                                \
        fr = &dframes_.back();                                          \
        code = fr->code;                                                \
        pc = fr->pc;                                                    \
        sp = fr->sp;                                                    \
        loc = arena_.data() + fr->base;                                 \
        stk = arena_.data() + fr->stackBase;                            \
    } while (0)

/** Spill the accounting locals into result_. */
#define VM_FLUSH()                                                      \
    do {                                                                \
        result_.clock = lclock;                                         \
        result_.execCycles = lexec;                                     \
        result_.bytecodes = lbc;                                        \
    } while (0)

#define VM_RELOAD()                                                     \
    do {                                                                \
        VM_POP_RELOAD();                                                \
        lclock = result_.clock;                                         \
        lexec = result_.execCycles;                                     \
        lbc = result_.bytecodes;                                        \
    } while (0)

#define VM_SAVE()                                                       \
    do {                                                                \
        fr->pc = pc;                                                    \
        fr->sp = sp;                                                    \
        VM_FLUSH();                                                     \
    } while (0)

#define VM_FETCH()                                                      \
    do {                                                                \
        if (lbc >= opts_.maxBytecodes) {                                \
            VM_SAVE();                                                  \
            fatal("bytecode budget exceeded (", opts_.maxBytecodes,     \
                  ")");                                                 \
        }                                                               \
        d = &code[pc];                                                  \
        ++pc;                                                           \
        lclock += d->cost;                                              \
        lexec += d->cost;                                               \
        lbc += d->count;                                                \
        if constexpr (kHooked) {                                        \
            result_.clock = lclock;                                     \
            result_.execCycles = lexec;                                 \
            result_.bytecodes = lbc;                                    \
            instr_(fr->id, fr->dm->verified.insts[pc - 1], lclock);     \
        }                                                               \
    } while (0)

// Computed-goto direct threading (the GNU address-of-label extension,
// supported by GCC and Clang — the compilers this project builds with).
template <bool kHooked>
void
Vm::execThreaded()
{
    static const void *const kLabels[] = {
#define NSE_DOP_LABEL(name, kind, cost) &&L_##name,
        NSE_OPCODE_LIST(NSE_DOP_LABEL)
#undef NSE_DOP_LABEL
        &&L_LdcInt,       &&L_LdcStr,       &&L_StoreConst,
        &&L_Load2Add,     &&L_Load2Sub,     &&L_Load2Mul,
        &&L_IncLocal,     &&L_LoadAddConst, &&L_AddConst,
        &&L_AddStore,     &&L_LoadIdxALoad, &&L_GsLoad,
        &&L_LoadGs,       &&L_StoreGoto,    &&L_LoadLoad,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumDOps,
                  "label table must cover every DOp");

    DFrame *fr = nullptr;
    const DInst *code = nullptr;
    uint32_t pc = 0;
    int32_t sp = 0;
    Value *loc = nullptr;
    Value *stk = nullptr;
    const DInst *d = nullptr;
    uint64_t lclock = 0, lexec = 0, lbc = 0;
    VM_RELOAD();

#define VM_NEXT()                                                       \
    do {                                                                \
        VM_FETCH();                                                     \
        goto *kLabels[static_cast<size_t>(d->op)];                      \
    } while (0)
#define VM_CASE(name) L_##name:
#define VM_BREAK VM_NEXT()

    VM_NEXT();

#include "vm/exec_loop.inc"

#undef VM_BREAK
#undef VM_CASE
#undef VM_NEXT
}

#undef VM_FETCH
#undef VM_SAVE
#undef VM_RELOAD

void
Vm::runDecoded()
{
    if (!decoded_) {
        ownedDecoded_ = std::make_unique<DecodedCache>(
            prog_, opts_.blockDelimiterCost);
        decoded_ = ownedDecoded_.get();
    }
    callees_.assign(seen_.size(), Callee{});
    arena_.resize(1024);
    dframes_.reserve(64);

    MethodId entry = prog_.entry();
    noteFirstUse(entry);
    const DecodedMethod &dm = decoded_->get(entry);
    pushDFrame(entry, dm, /*args_off=*/0, /*n_args=*/0);
    if (instr_)
        execThreaded<true>();
    else
        execThreaded<false>();
}

VmResult
Vm::run()
{
    NSE_CHECK(!ran_, "Vm::run() called twice; construct a fresh Vm");
    ran_ = true;

    if (opts_.dispatch == DispatchMode::Classic)
        runClassic();
    else
        runDecoded();

    result_.methodsExecuted = seenCount_;
    return std::move(result_);
}

} // namespace nse
