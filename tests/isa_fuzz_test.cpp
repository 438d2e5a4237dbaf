/**
 * @file
 * Randomized instruction fuzzing against golden models.
 *
 * For each seed, generates random register states and random well-formed
 * instructions, executes them on the interpreter cores, and compares the
 * result against an independent C++ computation of the architectural
 * semantics. Catches decode/semantics bugs the hand-written unit tests
 * miss.
 */

#include <gtest/gtest.h>

#include "isa/hx64/core.hh"
#include "isa/hx64/insn.hh"
#include "isa/rv64/core.hh"
#include "isa/rv64/encoding.hh"
#include "sim/random.hh"
#include "vm/page_table.hh"

namespace flick
{
namespace
{

/** Shared single-instruction execution harness. */
class FuzzEnv
{
  public:
    FuzzEnv() : mem(timing, platform), alloc("t", 0x100000, 16 << 20, 4096),
                ptm(mem, alloc)
    {
        cr3 = ptm.createRoot();
        text_pa = alloc.allocate(4096);
        ptm.map(cr3, codeVa, text_pa, 4096, PageSize::size4K, pte::user);
    }

    static constexpr VAddr codeVa = 0x400000;

    /** Place raw instruction bytes at codeVa. */
    void
    setCode(const void *bytes, std::size_t len)
    {
        mem.hostDram().write(text_pa, bytes, len);
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    RangeAllocator alloc;
    PageTableManager ptm;
    Addr cr3 = 0;
    Addr text_pa = 0;
};

class Rv64Fuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(Rv64Fuzz, RegisterOpsMatchGoldenModel)
{
    using namespace rv64;
    FuzzEnv env;
    CoreParams params;
    params.name = "nxp";
    params.requester = Requester::nxpCore;
    params.freqHz = 200'000'000;
    Rv64Core core(params, env.mem);
    core.mmu().setCr3(env.cr3);

    Rng rng(1000 + GetParam());
    for (int trial = 0; trial < 400; ++trial) {
        unsigned rd_ = 1 + static_cast<unsigned>(rng.below(31));
        unsigned rs1_ = static_cast<unsigned>(rng.below(32));
        unsigned rs2_ = static_cast<unsigned>(rng.below(32));
        std::uint64_t a = rng.next();
        std::uint64_t b = rng.next();
        unsigned f3 = static_cast<unsigned>(rng.below(8));
        bool use_m = rng.below(4) == 0;
        bool alt = !use_m && (f3 == 0 || f3 == 5) && rng.below(2);
        unsigned f7 = use_m ? 0x01 : (alt ? 0x20 : 0x00);
        if (use_m && (f3 == 1 || f3 == 2 || f3 == 3))
            f3 = 0; // only mul/div/divu/rem/remu modelled

        std::uint32_t insn = encR(opReg, rd_, f3, rs1_, rs2_, f7);
        env.setCode(&insn, 4);
        for (unsigned r = 1; r < 32; ++r)
            core.setReg(r, 0);
        core.setReg(rs1_, a);
        core.setReg(rs2_, b);
        core.setPc(FuzzEnv::codeVa);
        RunResult r = core.run(1);
        ASSERT_EQ(r.stop, Fault::none);
        ASSERT_EQ(r.instructions, 1u);

        std::uint64_t x = rs1_ ? (rs2_ == rs1_ ? b : a) : 0;
        std::uint64_t y = rs2_ ? b : 0;
        std::uint64_t expect = 0;
        if (use_m) {
            switch (f3) {
              case 0: expect = x * y; break;
              case 4:
                expect = y == 0 ? ~0ull
                                : static_cast<std::uint64_t>(
                                      std::int64_t(x) / std::int64_t(y));
                break;
              case 5: expect = y == 0 ? ~0ull : x / y; break;
              case 6:
                expect = y == 0 ? x
                                : static_cast<std::uint64_t>(
                                      std::int64_t(x) % std::int64_t(y));
                break;
              case 7: expect = y == 0 ? x : x % y; break;
            }
        } else {
            switch (f3) {
              case 0: expect = alt ? x - y : x + y; break;
              case 1: expect = x << (y & 63); break;
              case 2: expect = std::int64_t(x) < std::int64_t(y); break;
              case 3: expect = x < y; break;
              case 4: expect = x ^ y; break;
              case 5:
                expect = alt ? static_cast<std::uint64_t>(
                                   std::int64_t(x) >> (y & 63))
                             : x >> (y & 63);
                break;
              case 6: expect = x | y; break;
              case 7: expect = x & y; break;
            }
        }
        // Signed overflow edge: INT64_MIN / -1 is UB in C++ but defined
        // (result INT64_MIN) in RISC-V; skip comparison there.
        if (use_m && (f3 == 4 || f3 == 6) &&
            x == 0x8000000000000000ull && y == ~0ull) {
            continue;
        }
        EXPECT_EQ(core.reg(rd_), expect)
            << "f3=" << f3 << " f7=" << f7 << " x=" << x << " y=" << y;
    }
}

TEST_P(Rv64Fuzz, ImmediateOpsMatchGoldenModel)
{
    using namespace rv64;
    FuzzEnv env;
    CoreParams params;
    params.name = "nxp";
    params.requester = Requester::nxpCore;
    params.freqHz = 200'000'000;
    Rv64Core core(params, env.mem);
    core.mmu().setCr3(env.cr3);

    Rng rng(2000 + GetParam());
    for (int trial = 0; trial < 400; ++trial) {
        unsigned rd_ = 1 + static_cast<unsigned>(rng.below(31));
        unsigned rs1_ = 1 + static_cast<unsigned>(rng.below(31));
        std::uint64_t a = rng.next();
        std::int64_t imm = sext(rng.next() & 0xfff, 12);
        unsigned f3 = static_cast<unsigned>(rng.below(8));
        if (f3 == 1 || f3 == 5)
            continue; // shifts covered separately

        std::uint32_t insn = encI(opImm, rd_, f3, rs1_, imm);
        env.setCode(&insn, 4);
        core.setReg(rs1_, a);
        core.setPc(FuzzEnv::codeVa);
        RunResult r = core.run(1);
        ASSERT_EQ(r.stop, Fault::none);

        std::uint64_t uimm = static_cast<std::uint64_t>(imm);
        std::uint64_t expect = 0;
        switch (f3) {
          case 0: expect = a + uimm; break;
          case 2: expect = std::int64_t(a) < imm; break;
          case 3: expect = a < uimm; break;
          case 4: expect = a ^ uimm; break;
          case 6: expect = a | uimm; break;
          case 7: expect = a & uimm; break;
        }
        EXPECT_EQ(core.reg(rd_), expect) << "f3=" << f3;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Rv64Fuzz, ::testing::Range(0, 8));

class Hx64Fuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(Hx64Fuzz, AluOpsMatchGoldenModel)
{
    using namespace hx64;
    FuzzEnv env;
    CoreParams params;
    params.name = "host";
    params.requester = Requester::hostCore;
    params.freqHz = 2'400'000'000ull;
    Hx64Core core(params, env.mem);
    core.mmu().setCr3(env.cr3);

    Rng rng(3000 + GetParam());
    for (int trial = 0; trial < 400; ++trial) {
        // Avoid rsp (stack ops unrelated here but keep it sane).
        unsigned dst = static_cast<unsigned>(rng.below(16));
        unsigned src = static_cast<unsigned>(rng.below(16));
        if (dst == 4 || src == 4)
            continue;
        std::uint64_t a = rng.next();
        std::uint64_t b = rng.next();

        static const std::uint8_t ops[] = {opAdd, opSub, opAnd, opOr,
                                           opXor, opShl, opShr, opSar,
                                           opMul, opUdiv, opUrem};
        std::uint8_t opcode = ops[rng.below(sizeof ops)];
        std::uint8_t code[2] = {opcode,
                                static_cast<std::uint8_t>((dst << 4) |
                                                          src)};
        env.setCode(code, 2);
        core.setReg(dst, a);
        core.setReg(src, b);
        if (dst == src)
            a = b;
        core.setPc(FuzzEnv::codeVa);
        RunResult r = core.run(1);
        ASSERT_EQ(r.stop, Fault::none);

        std::uint64_t expect = 0;
        switch (opcode) {
          case opAdd: expect = a + b; break;
          case opSub: expect = a - b; break;
          case opAnd: expect = a & b; break;
          case opOr: expect = a | b; break;
          case opXor: expect = a ^ b; break;
          case opShl: expect = a << (b & 63); break;
          case opShr: expect = a >> (b & 63); break;
          case opSar:
            expect = static_cast<std::uint64_t>(std::int64_t(a) >>
                                                (b & 63));
            break;
          case opMul: expect = a * b; break;
          case opUdiv: expect = b ? a / b : ~0ull; break;
          case opUrem: expect = b ? a % b : a; break;
        }
        EXPECT_EQ(core.reg(dst), expect)
            << "op=" << unsigned(opcode) << " a=" << a << " b=" << b;
    }
}

TEST_P(Hx64Fuzz, CmpAndConditionsMatchGoldenModel)
{
    using namespace hx64;
    FuzzEnv env;
    CoreParams params;
    params.name = "host";
    params.requester = Requester::hostCore;
    params.freqHz = 2'400'000'000ull;
    Hx64Core core(params, env.mem);
    core.mmu().setCr3(env.cr3);

    Rng rng(4000 + GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t a = rng.below(4) ? rng.next() : rng.below(3);
        std::uint64_t b = rng.below(4) ? rng.next() : rng.below(3);
        std::uint8_t cc = static_cast<std::uint8_t>(rng.below(10));

        // cmp rax, rbx; jcc +1 (skips the halt byte into a second halt).
        std::uint8_t code[16] = {
            opCmpRR, 0x03,          // cmp rax, rbx
            opJcc, cc, 1, 0, 0, 0,  // jcc +1
            opHalt,                 // fallthrough: not taken
            opHalt,                 // target: taken
        };
        env.setCode(code, sizeof code);
        core.setReg(0, a);
        core.setReg(3, b);
        core.setPc(FuzzEnv::codeVa);
        RunResult r = core.run(10);
        ASSERT_EQ(r.stop, Fault::halt);

        bool taken = core.pc() == FuzzEnv::codeVa + 9;
        std::int64_t sa = static_cast<std::int64_t>(a);
        std::int64_t sb = static_cast<std::int64_t>(b);
        bool expect = false;
        switch (cc) {
          case ccEq: expect = a == b; break;
          case ccNe: expect = a != b; break;
          case ccLt: expect = sa < sb; break;
          case ccGe: expect = sa >= sb; break;
          case ccLe: expect = sa <= sb; break;
          case ccGt: expect = sa > sb; break;
          case ccB: expect = a < b; break;
          case ccAe: expect = a >= b; break;
          case ccBe: expect = a <= b; break;
          case ccA: expect = a > b; break;
        }
        EXPECT_EQ(taken, expect)
            << "cc=" << unsigned(cc) << " a=" << a << " b=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Hx64Fuzz, ::testing::Range(0, 8));

// --- Decode-cache coherence (DESIGN.md §13) -------------------------------
//
// Each scenario that can make predecoded text stale — a core storing to
// its own text page, another core storing to a page someone else has
// cached, an mprotect flip — runs on a cached core and a reference
// (withDecodeCache-off) core in identical environments. The cached core
// must observe new bytes or fault exactly as the reference does, at the
// same tick.

/**
 * Text page (optionally guest-writable), a second text page, a
 * writable alias of the first text page, and a stack page.
 */
class CoherenceEnv
{
  public:
    explicit CoherenceEnv(bool writable_text)
        : mem(timing, platform), alloc("t", 0x100000, 16 << 20, 4096),
          ptm(mem, alloc)
    {
        cr3 = ptm.createRoot();
        text_pa = alloc.allocate(4096);
        text2_pa = alloc.allocate(4096);
        stack_pa = alloc.allocate(4096);
        ptm.map(cr3, codeVa, text_pa, 4096, PageSize::size4K,
                pte::user | (writable_text ? pte::writable : 0));
        ptm.map(cr3, code2Va, text2_pa, 4096, PageSize::size4K, pte::user);
        ptm.map(cr3, aliasVa, text_pa, 4096, PageSize::size4K,
                pte::user | pte::writable);
        ptm.map(cr3, stackVa, stack_pa, 4096, PageSize::size4K,
                pte::user | pte::writable);
    }

    static constexpr VAddr codeVa = 0x400000;
    static constexpr VAddr code2Va = 0x410000;
    static constexpr VAddr aliasVa = 0x500000;
    static constexpr VAddr stackVa = 0x600000;

    void
    setCode(Addr pa, const void *bytes, std::size_t len)
    {
        mem.hostDram().write(pa, bytes, len);
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    RangeAllocator alloc;
    PageTableManager ptm;
    Addr cr3 = 0;
    Addr text_pa = 0;
    Addr text2_pa = 0;
    Addr stack_pa = 0;
};

CoreParams
coherenceParams(const char *name, Requester requester, std::uint64_t freq,
                bool decode_cache)
{
    CoreParams p;
    p.name = name;
    p.requester = requester;
    p.freqHz = freq;
    p.decodeCache = decode_cache;
    return p;
}

/**
 * HX64 program that patches the immediate of a function it has already
 * executed (and therefore cached), then calls it again:
 *
 *     start:  cmp rdx, 1
 *             je second          # second pass skips the patching
 *             call target        # rcx := 111, fills the decode cache
 *             mov rax, 222
 *             st32 [r13+48], rax # overwrite target's imm32 in text
 *             mov rdx, 1
 *             jmp start
 *     second: call target        # must now produce rcx == 222
 *             halt
 *     target: mov rcx, 111       # imm32 lives at offset 48
 *             ret
 */
std::vector<std::uint8_t>
hx64SmcProgram()
{
    using namespace hx64;
    auto le32 = [](std::vector<std::uint8_t> &v, std::uint32_t x) {
        for (int i = 0; i < 4; ++i)
            v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    };
    std::vector<std::uint8_t> v;
    v.insert(v.end(), {opCmpI, 0x02});          // 0: cmp rdx, 1
    le32(v, 1);
    v.insert(v.end(), {opJcc, ccEq});           // 6: je +28 (-> 40)
    le32(v, 28);
    v.push_back(opCall);                        // 12: call +29 (-> 46)
    le32(v, 29);
    v.insert(v.end(), {opMovI32, 0x00});        // 17: mov rax, 222
    le32(v, 222);
    v.insert(v.end(), {opSt32, 0xd0});          // 23: st32 [r13+48], rax
    le32(v, 48);
    v.insert(v.end(), {opMovI32, 0x02});        // 29: mov rdx, 1
    le32(v, 1);
    v.push_back(opJmp);                         // 35: jmp -40 (-> 0)
    le32(v, static_cast<std::uint32_t>(-40));
    v.push_back(opCall);                        // 40: call +1 (-> 46)
    le32(v, 1);
    v.push_back(opHalt);                        // 45
    v.insert(v.end(), {opMovI32, 0x01});        // 46: mov rcx, 111
    le32(v, 111);
    v.push_back(opRet);                         // 52
    return v;
}

TEST(DecodeCacheCoherence, Hx64SelfModifyingCodeObservedByCachedCore)
{
    std::vector<std::uint8_t> program = hx64SmcProgram();

    auto runOne = [&](bool cached, std::uint64_t &rcx, Tick &ticks,
                      std::uint64_t &instructions) {
        CoherenceEnv env(true);
        env.setCode(env.text_pa, program.data(), program.size());
        Hx64Core core(coherenceParams("host", Requester::hostCore,
                                      2'400'000'000ull, cached),
                      env.mem);
        core.mmu().setCr3(env.cr3);
        core.setReg(hx64::rsp, CoherenceEnv::stackVa + 2048);
        core.setReg(hx64::r13, CoherenceEnv::codeVa);
        core.setPc(CoherenceEnv::codeVa);
        RunResult r = core.run(200);
        EXPECT_EQ(r.stop, Fault::halt);
        rcx = core.reg(hx64::rcx);
        ticks = r.elapsed;
        instructions = r.instructions;
        if (cached) {
            // The cached core really did dispatch through the cache and
            // really did drop the patched page.
            EXPECT_GT(core.stats().get("decode_cache_fills"), 0u);
            EXPECT_GE(core.stats().get("decode_cache_invalidated_pages"),
                      1u);
        }
    };

    std::uint64_t rcxC = 0, rcxR = 0, insC = 0, insR = 0;
    Tick tickC = 0, tickR = 0;
    runOne(true, rcxC, tickC, insC);
    runOne(false, rcxR, tickR, insR);

    EXPECT_EQ(rcxC, 222u) << "cached core executed stale text";
    EXPECT_EQ(rcxR, 222u);
    EXPECT_EQ(tickC, tickR);
    EXPECT_EQ(insC, insR);
}

TEST(DecodeCacheCoherence, Rv64SelfModifyingCodeObservedByCachedCore)
{
    using namespace rv64;
    // Same shape in RV64: patch the addi imm of an already-executed
    // (cached) function through a store, then call it again.
    std::uint32_t patched = encI(opImm, 7, 0, 0, 222); // addi t2, x0, 222
    std::uint32_t hi = (patched + 0x800) >> 12;
    std::int64_t lo = sext(patched & 0xfff, 12);
    std::uint32_t program[] = {
        encB(opBranch, 1, 5, 0, 28),       //  0: bne t0, x0, second
        encJ(opJal, 1, 32),                //  4: jal ra, target
        encU(opLui, 29, hi),               //  8: lui t4, %hi(patched)
        encI(opImm, 29, 0, 29, lo),        // 12: addi t4, t4, %lo
        encS(opStore, 2, 21, 29, 36),      // 16: sw t4, 36(s5)
        encI(opImm, 5, 0, 0, 1),           // 20: addi t0, x0, 1
        encJ(opJal, 0, -24),               // 24: j start
        encJ(opJal, 1, 8),                 // 28: second: jal ra, target
        0x00100073,                        // 32: ebreak
        encI(opImm, 7, 0, 0, 111),         // 36: target: addi t2, x0, 111
        encI(opJalr, 0, 0, 1, 0),          // 40: ret
    };

    auto runOne = [&](bool cached, std::uint64_t &t2, Tick &ticks,
                      std::uint64_t &instructions) {
        CoherenceEnv env(true);
        env.setCode(env.text_pa, program, sizeof program);
        Rv64Core core(coherenceParams("nxp", Requester::nxpCore,
                                      200'000'000, cached),
                      env.mem);
        core.mmu().setCr3(env.cr3);
        core.setReg(21, CoherenceEnv::codeVa); // s5 = text base
        core.setPc(CoherenceEnv::codeVa);
        RunResult r = core.run(200);
        EXPECT_EQ(r.stop, Fault::halt);
        t2 = core.reg(7);
        ticks = r.elapsed;
        instructions = r.instructions;
        if (cached) {
            EXPECT_GT(core.stats().get("decode_cache_fills"), 0u);
            EXPECT_GE(core.stats().get("decode_cache_invalidated_pages"),
                      1u);
        }
    };

    std::uint64_t t2C = 0, t2R = 0, insC = 0, insR = 0;
    Tick tickC = 0, tickR = 0;
    runOne(true, t2C, tickC, insC);
    runOne(false, t2R, tickR, insR);
    EXPECT_EQ(t2C, 222u) << "cached core executed stale text";
    EXPECT_EQ(t2R, 222u);
    EXPECT_EQ(tickC, tickR);
    EXPECT_EQ(insC, insR);
}

// --- RV64 self-modifying code under page-local dispatch -------------------
//
// The page loop (DESIGN.md §13) keeps dispatching off a text page's entry
// array until a slot reads empty. A store to the executing page clears
// that array in place, so the loop must drop back to step() at exactly
// the rewritten instruction. Each program below runs its loop twice: the
// first pass executes (and caches) every instruction, the second pass
// rewrites `addi t2, x0, 111` into `addi t2, x0, 222` at a different
// distance from the store, then accumulates t2 into t3. Stale text would
// leave t3 = 222 instead of 333.

/** What one run of an RV64 self-modifying program leaves behind. */
struct SmcRun
{
    Fault stop = Fault::none;
    std::uint64_t t3 = 0;
    Tick elapsed = 0;
    std::uint64_t instructions = 0;
    CoreContext context;
    std::vector<std::uint64_t> fetch;  //!< ITLB and I-cache counters.
    std::vector<std::uint64_t> decode; //!< Decode-cache counters.
};

/**
 * Run @p program on a fresh writable-text environment with the NxP's
 * I-cache modelled: @p cached selects the decode cache, @p traced
 * installs a no-op trace hook (every instruction through step()).
 */
SmcRun
runRv64Smc(const std::vector<std::uint32_t> &program, bool cached,
           bool traced)
{
    CoherenceEnv env(true);
    env.setCode(env.text_pa, program.data(), program.size() * 4);
    CoreParams params =
        coherenceParams("nxp", Requester::nxpCore, 200'000'000, cached);
    params.modelIcache = true;
    params.icacheLines = 4;
    params.icacheLineBytes = 16;
    Rv64Core core(params, env.mem);
    core.mmu().setCr3(env.cr3);
    if (traced)
        core.setTraceHook([](VAddr) {});
    core.setReg(21, CoherenceEnv::codeVa); // s5 = text base
    core.setPc(CoherenceEnv::codeVa);
    RunResult r = core.run(500);

    SmcRun run;
    run.stop = r.stop;
    run.t3 = core.reg(28);
    run.elapsed = r.elapsed;
    run.instructions = r.instructions;
    run.context = core.saveContext();
    Tlb &itlb = core.mmu().itlb();
    StatGroup &icache = core.icache()->stats();
    for (const char *key : {"hits", "misses", "fills"})
        run.fetch.push_back(itlb.stats().get(key));
    for (const char *key : {"hits", "misses"})
        run.fetch.push_back(icache.get(key));
    for (const char *key :
         {"decode_cache_hits", "decode_cache_fills",
          "decode_cache_fallbacks", "decode_cache_invalidated_pages"}) {
        run.decode.push_back(core.stats().get(key));
    }
    return run;
}

/**
 * The page loop, the per-step cached oracle and the reference path must
 * all halt with t3 == 333 at the same tick, with identical state and
 * fetch counters; the two cached runs must also agree on every decode
 * counter and must have dropped the rewritten page.
 */
void
expectRv64SmcExact(const std::vector<std::uint32_t> &program)
{
    SmcRun page = runRv64Smc(program, true, false);
    SmcRun step = runRv64Smc(program, true, true);
    SmcRun ref = runRv64Smc(program, false, false);
    EXPECT_EQ(page.stop, Fault::halt);
    EXPECT_EQ(page.t3, 333u) << "page loop executed stale text";
    for (const SmcRun *other : {&step, &ref}) {
        const char *what = other == &step ? "per-step" : "reference";
        EXPECT_EQ(other->stop, page.stop) << what;
        EXPECT_EQ(other->t3, page.t3) << what;
        EXPECT_EQ(other->elapsed, page.elapsed) << what;
        EXPECT_EQ(other->instructions, page.instructions) << what;
        EXPECT_EQ(other->context, page.context) << what;
        EXPECT_EQ(other->fetch, page.fetch) << what;
    }
    EXPECT_EQ(step.decode, page.decode);
    EXPECT_GE(page.decode[3], 1u) << "no page was invalidated";
}

/** lui/addi pair loading `addi t2, x0, 222` into t4. */
std::vector<std::uint32_t>
loadPatchedInsn()
{
    using namespace rv64;
    std::uint32_t patched = encI(opImm, 7, 0, 0, 222);
    std::uint32_t hi = (patched + 0x800) >> 12;
    std::int64_t lo = sext(patched & 0xfff, 12);
    return {encU(opLui, 29, hi), encI(opImm, 29, 0, 29, lo)};
}

TEST(DecodeCacheCoherence, Rv64StoreRewritesNextInstruction)
{
    using namespace rv64;
    std::vector<std::uint32_t> p = loadPatchedInsn(); // 0, 4
    p.insert(p.end(), {
        encI(opImm, 5, 0, 0, 0),        //  8: addi t0, x0, 0
        encB(opBranch, 0, 5, 0, 8),     // 12: loop: beq t0, x0, +8
        encS(opStore, 2, 21, 29, 20),   // 16: sw t4, 20(s5)
        encI(opImm, 7, 0, 0, 111),      // 20: addi t2, x0, 111
        encR(opReg, 28, 0, 28, 7, 0),   // 24: add t3, t3, t2
        encI(opImm, 5, 0, 5, 1),        // 28: addi t0, t0, 1
        encI(opImm, 31, 0, 0, 2),       // 32: addi t6, x0, 2
        encB(opBranch, 1, 5, 31, -24),  // 36: bne t0, t6, loop
        0x00100073,                     // 40: ebreak
    });
    expectRv64SmcExact(p);
}

TEST(DecodeCacheCoherence, Rv64StoreRewritesLaterInstructionOnPage)
{
    using namespace rv64;
    std::vector<std::uint32_t> p = loadPatchedInsn(); // 0, 4
    p.insert(p.end(), {
        encI(opImm, 5, 0, 0, 0),        //  8: addi t0, x0, 0
        encB(opBranch, 0, 5, 0, 8),     // 12: loop: beq t0, x0, +8
        encS(opStore, 2, 21, 29, 52),   // 16: sw t4, 52(s5)
        encI(opImm, 6, 0, 6, 1),        // 20: addi t1, t1, 1 (x8)
        encI(opImm, 6, 0, 6, 1),        // 24
        encI(opImm, 6, 0, 6, 1),        // 28
        encI(opImm, 6, 0, 6, 1),        // 32
        encI(opImm, 6, 0, 6, 1),        // 36
        encI(opImm, 6, 0, 6, 1),        // 40
        encI(opImm, 6, 0, 6, 1),        // 44
        encI(opImm, 6, 0, 6, 1),        // 48
        encI(opImm, 7, 0, 0, 111),      // 52: addi t2, x0, 111
        encR(opReg, 28, 0, 28, 7, 0),   // 56: add t3, t3, t2
        encI(opImm, 5, 0, 5, 1),        // 60: addi t0, t0, 1
        encI(opImm, 31, 0, 0, 2),       // 64: addi t6, x0, 2
        encB(opBranch, 1, 5, 31, -56),  // 68: bne t0, t6, loop
        0x00100073,                     // 72: ebreak
    });
    expectRv64SmcExact(p);
}

TEST(DecodeCacheCoherence, Rv64BranchBackOntoRewrittenSlot)
{
    using namespace rv64;
    std::vector<std::uint32_t> p = loadPatchedInsn(); // 0, 4
    p.insert(p.end(), {
        encI(opImm, 5, 0, 0, 0),        //  8: addi t0, x0, 0
        encI(opImm, 7, 0, 0, 111),      // 12: loop: addi t2, x0, 111
        encR(opReg, 28, 0, 28, 7, 0),   // 16: add t3, t3, t2
        encS(opStore, 2, 21, 29, 12),   // 20: sw t4, 12(s5)
        encI(opImm, 5, 0, 5, 1),        // 24: addi t0, t0, 1
        encI(opImm, 31, 0, 0, 2),       // 28: addi t6, x0, 2
        encB(opBranch, 1, 5, 31, -20),  // 32: bne t0, t6, loop
        0x00100073,                     // 36: ebreak
    });
    expectRv64SmcExact(p);
}

TEST(DecodeCacheCoherence, CrossCoreWriteInvalidatesOtherCoresCachedPage)
{
    using namespace hx64;
    // Core A (RV64) executes codeVa and caches its decode; core B (HX64)
    // stores a new first instruction through the writable alias of the
    // same physical page; core A re-runs and must see the new bytes.
    std::uint32_t insn111 = rv64::encI(rv64::opImm, 7, 0, 0, 111);
    std::uint32_t insn222 = rv64::encI(rv64::opImm, 7, 0, 0, 222);
    std::uint32_t aCode[] = {insn111, 0x00100073}; // addi t2; ebreak

    std::vector<std::uint8_t> bCode;
    bCode.insert(bCode.end(), {opMovI64, 0x00}); // mov rax, insn222
    for (int i = 0; i < 8; ++i)
        bCode.push_back(static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(insn222) >> (8 * i)));
    bCode.insert(bCode.end(), {opSt32, 0xd0, 0, 0, 0, 0}); // st32 [r13+0]
    bCode.push_back(opHalt);

    auto runPair = [&](bool cached, std::uint64_t &first,
                       std::uint64_t &second, Tick &total) {
        CoherenceEnv env(false);
        env.setCode(env.text_pa, aCode, sizeof aCode);
        env.setCode(env.text2_pa, bCode.data(), bCode.size());
        Rv64Core a(coherenceParams("nxp", Requester::nxpCore, 200'000'000,
                                   cached),
                   env.mem);
        Hx64Core b(coherenceParams("host", Requester::hostCore,
                                   2'400'000'000ull, cached),
                   env.mem);
        a.mmu().setCr3(env.cr3);
        b.mmu().setCr3(env.cr3);

        a.setPc(CoherenceEnv::codeVa);
        RunResult ra = a.run(10);
        EXPECT_EQ(ra.stop, Fault::halt);
        first = a.reg(7);

        b.setReg(r13, CoherenceEnv::aliasVa);
        b.setPc(CoherenceEnv::code2Va);
        RunResult rb = b.run(10);
        EXPECT_EQ(rb.stop, Fault::halt);

        a.setPc(CoherenceEnv::codeVa);
        RunResult ra2 = a.run(10);
        EXPECT_EQ(ra2.stop, Fault::halt);
        second = a.reg(7);
        total = ra.elapsed + rb.elapsed + ra2.elapsed;
        if (cached) {
            EXPECT_GE(a.stats().get("decode_cache_invalidated_pages"), 1u);
        }
    };

    std::uint64_t firstC = 0, secondC = 0, firstR = 0, secondR = 0;
    Tick totalC = 0, totalR = 0;
    runPair(true, firstC, secondC, totalC);
    runPair(false, firstR, secondR, totalR);
    EXPECT_EQ(firstC, 111u);
    EXPECT_EQ(secondC, 222u) << "cached core missed a cross-core write";
    EXPECT_EQ(firstR, 111u);
    EXPECT_EQ(secondR, 222u);
    EXPECT_EQ(totalC, totalR);
}

TEST(DecodeCacheCoherence, MprotectFlipFaultsAndRecoversExactly)
{
    using namespace rv64;
    std::uint32_t code[] = {
        encI(opImm, 7, 0, 0, 111), // addi t2, x0, 111
        0x00100073,                // ebreak
    };

    struct Stage
    {
        Fault stop;
        VAddr faultVa;
        Tick elapsed;
        std::uint64_t t2;
    };
    auto runStages = [&](bool cached) {
        CoherenceEnv env(false);
        env.setCode(env.text_pa, code, sizeof code);
        CoreParams params = coherenceParams("nxp", Requester::nxpCore,
                                            200'000'000, cached);
        params.mmuPolicy.faultOnNxFetch = true;
        Rv64Core core(params, env.mem);
        core.mmu().setCr3(env.cr3);

        std::vector<Stage> stages;
        auto runOnce = [&] {
            core.setReg(7, 0);
            core.setPc(CoherenceEnv::codeVa);
            RunResult r = core.run(10);
            stages.push_back({r.stop, r.faultVa, r.elapsed, core.reg(7)});
        };
        runOnce(); // executes, fills the cache
        env.ptm.protect(env.cr3, CoherenceEnv::codeVa, 4096,
                        pte::noExecute, 0);
        core.mmu().flushTlbs();
        runOnce(); // must fault on fetch
        env.ptm.protect(env.cr3, CoherenceEnv::codeVa, 4096, 0,
                        pte::noExecute);
        core.mmu().flushTlbs();
        runOnce(); // executable again
        if (cached) {
            EXPECT_GE(core.stats().get("decode_cache_invalidated_pages"),
                      1u);
        }
        return stages;
    };

    std::vector<Stage> cached = runStages(true);
    std::vector<Stage> reference = runStages(false);
    ASSERT_EQ(cached.size(), reference.size());

    EXPECT_EQ(cached[0].stop, Fault::halt);
    EXPECT_EQ(cached[0].t2, 111u);
    EXPECT_EQ(cached[1].stop, Fault::nxFetch);
    EXPECT_EQ(cached[1].faultVa, CoherenceEnv::codeVa);
    EXPECT_EQ(cached[2].stop, Fault::halt);
    EXPECT_EQ(cached[2].t2, 111u);
    for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached[i].stop, reference[i].stop) << "stage " << i;
        EXPECT_EQ(cached[i].faultVa, reference[i].faultVa) << "stage " << i;
        EXPECT_EQ(cached[i].elapsed, reference[i].elapsed) << "stage " << i;
        EXPECT_EQ(cached[i].t2, reference[i].t2) << "stage " << i;
    }
}

} // namespace
} // namespace flick
