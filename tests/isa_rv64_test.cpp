/**
 * @file
 * Unit tests for the RV64 ISA: encodings, assembler, interpreter.
 */

#include <gtest/gtest.h>

#include "isa/rv64/assembler.hh"
#include "isa/rv64/core.hh"
#include "isa/rv64/encoding.hh"
#include "sim/random.hh"
#include "vm/page_table.hh"

namespace flick
{
namespace
{

using namespace rv64;

TEST(Rv64Encoding, ImmediateRoundTrips)
{
    Rng rng(1);
    for (int i = 0; i < 500; ++i) {
        std::int64_t imm = sext(rng.next() & 0xfff, 12);
        EXPECT_EQ(immI(encI(opImm, 1, 0, 2, imm)), imm);
        EXPECT_EQ(immS(encS(opStore, 3, 4, 5, imm)), imm);

        std::int64_t bimm = sext(rng.next() & 0x1ffe, 13) & ~1ll;
        EXPECT_EQ(immB(encB(opBranch, 0, 1, 2, bimm)), bimm);

        std::int64_t jimm = sext(rng.next() & 0x1ffffe, 21) & ~1ll;
        EXPECT_EQ(immJ(encJ(opJal, 1, jimm)), jimm);

        std::int64_t uimm = sext(rng.next() & 0xfffff, 20);
        EXPECT_EQ(immU(encU(opLui, 1, uimm)), uimm << 12);
    }
}

TEST(Rv64Encoding, FieldExtractors)
{
    std::uint32_t insn = encR(opReg, 5, 3, 10, 20, 0x20);
    EXPECT_EQ(rd(insn), 5u);
    EXPECT_EQ(funct3(insn), 3u);
    EXPECT_EQ(rs1(insn), 10u);
    EXPECT_EQ(rs2(insn), 20u);
    EXPECT_EQ(funct7(insn), 0x20u);
    EXPECT_EQ(insn & 0x7f, opReg);
}

/** Harness: assemble, load at a VA, run the core, inspect registers. */
class Rv64Run : public ::testing::Test
{
  protected:
    static constexpr VAddr codeVa = 0x400000;
    static constexpr VAddr stackVa = 0x800000;
    static constexpr VAddr dataVa = 0x600000;

    Rv64Run()
        : mem(timing, platform), alloc("t", 0x100000, 64 << 20, 4096),
          ptm(mem, alloc)
    {
        CoreParams p;
        p.name = "nxp";
        p.requester = Requester::nxpCore;
        p.freqHz = 200'000'000;
        p.itlbEntries = 16;
        p.dtlbEntries = 16;
        p.mmuPolicy.faultOnNonNxFetch = true;
        p.modelIcache = true;
        core = std::make_unique<Rv64Core>(p, mem);
    }

    /** Assemble and map @p src; NxP text pages carry the NX bit. */
    void
    load(const std::string &src)
    {
        Section s = rv64Assemble(src);
        // Resolve internal labels with the section placed at codeVa.
        for (const Relocation &r : s.relocations) {
            auto it = s.symbols.find(r.symbol);
            ASSERT_TRUE(it != s.symbols.end())
                << "undefined symbol " << r.symbol;
            rv64ApplyRelocation(s.bytes, r, codeVa, codeVa + it->second);
        }
        cr3 = ptm.createRoot();
        std::uint64_t text_bytes = (s.bytes.size() + 4095) & ~4095ull;
        Addr text_pa = alloc.allocate(text_bytes);
        mem.hostDram().write(text_pa, s.bytes.data(), s.bytes.size());
        ptm.map(cr3, codeVa, text_pa, text_bytes, PageSize::size4K,
                pte::user | pte::noExecute);
        // Stack and a data page in host memory.
        Addr stack_pa = alloc.allocate(1 << 16);
        ptm.map(cr3, stackVa - (1 << 16), stack_pa, 1 << 16,
                PageSize::size4K,
                pte::user | pte::writable | pte::noExecute);
        Addr data_pa = alloc.allocate(1 << 16);
        ptm.map(cr3, dataVa, data_pa, 1 << 16, PageSize::size4K,
                pte::user | pte::writable | pte::noExecute);
        core->mmu().setCr3(cr3);
        symbols = s.symbols;
    }

    /** Run function @p name with args; returns a0 at the trampoline. */
    std::uint64_t
    call(const std::string &name, std::vector<std::uint64_t> args = {},
         std::uint64_t max_insn = 1'000'000)
    {
        core->setStackPointer(stackVa - 64);
        core->setupCall(codeVa + symbols.at(name), args);
        last = core->run(max_insn);
        EXPECT_EQ(last.stop, Fault::trampoline)
            << "stopped with " << faultName(last.stop);
        return core->retVal();
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    RangeAllocator alloc;
    PageTableManager ptm;
    std::unique_ptr<Rv64Core> core;
    Addr cr3 = 0;
    std::map<std::string, std::uint64_t> symbols;
    RunResult last;
};

TEST_F(Rv64Run, BasicArithmetic)
{
    load(R"(
f:
    add a0, a0, a1
    addi a0, a0, 5
    slli a0, a0, 1
    ret
)");
    EXPECT_EQ(call("f", {10, 20}), (10u + 20 + 5) * 2);
}

TEST_F(Rv64Run, LiPseudoInstruction)
{
    load(R"(
small:
    li a0, -7
    ret
medium:
    li a0, 123456
    ret
neg32:
    li a0, -123456789
    ret
big:
    li a0, 0x123456789abcdef0
    ret
allones:
    li a0, -1
    ret
)");
    EXPECT_EQ(call("small"), static_cast<std::uint64_t>(-7));
    EXPECT_EQ(call("medium"), 123456u);
    EXPECT_EQ(call("neg32"), static_cast<std::uint64_t>(-123456789));
    EXPECT_EQ(call("big"), 0x123456789abcdef0ull);
    EXPECT_EQ(call("allones"), ~0ull);
}

TEST_F(Rv64Run, LoadsAndStoresAllSizes)
{
    load(R"(
f:  # a0 = base
    li t0, -2
    sd t0, 0(a0)
    sw t0, 8(a0)
    sh t0, 16(a0)
    sb t0, 24(a0)
    ld t1, 0(a0)
    lwu t2, 8(a0)
    lhu t3, 16(a0)
    lbu t4, 24(a0)
    lw t5, 8(a0)
    lh t6, 16(a0)
    lb a2, 24(a0)
    add a0, t1, t2
    add a0, a0, t3
    add a0, a0, t4
    add a0, a0, t5
    add a0, a0, t6
    add a0, a0, a2
    ret
)");
    std::uint64_t expect = std::uint64_t(-2) + 0xfffffffeull + 0xfffeull +
                           0xfeull + std::uint64_t(-2) +
                           std::uint64_t(-2) + std::uint64_t(-2);
    EXPECT_EQ(call("f", {dataVa}), expect);
}

TEST_F(Rv64Run, BranchesAllConditions)
{
    load(R"(
# returns a bitmask of taken branches for (a0=-1, a1=1)
f:
    li t0, 0
    beq a0, a0, t_eq
    j next1
t_eq:
    ori t0, t0, 1
next1:
    bne a0, a1, t_ne
    j next2
t_ne:
    ori t0, t0, 2
next2:
    blt a0, a1, t_lt
    j next3
t_lt:
    ori t0, t0, 4
next3:
    bge a1, a0, t_ge
    j next4
t_ge:
    ori t0, t0, 8
next4:
    bltu a1, a0, t_ltu
    j next5
t_ltu:
    ori t0, t0, 16
next5:
    bgeu a0, a1, t_geu
    j done
t_geu:
    ori t0, t0, 32
done:
    mv a0, t0
    ret
)");
    // signed: -1 < 1; unsigned: 0xff..ff > 1.
    EXPECT_EQ(call("f", {static_cast<std::uint64_t>(-1), 1}),
              1u | 2 | 4 | 8 | 16 | 32);
}

TEST_F(Rv64Run, Word32Operations)
{
    load(R"(
f:
    addw a0, a0, a1
    ret
g:
    subw a0, a0, a1
    ret
h:
    sraiw a0, a0, 4
    ret
)");
    // 32-bit wraparound with sign extension.
    EXPECT_EQ(call("f", {0x7fffffff, 1}), 0xffffffff80000000ull);
    EXPECT_EQ(call("g", {0, 1}), ~0ull);
    EXPECT_EQ(call("h", {0x80000000ull, 0}), 0xfffffffff8000000ull);
}

TEST_F(Rv64Run, MulDivRem)
{
    load(R"(
f:
    mul a0, a0, a1
    ret
g:
    divu a0, a0, a1
    ret
h:
    remu a0, a0, a1
    ret
sdv:
    div a0, a0, a1
    ret
)");
    EXPECT_EQ(call("f", {7, 6}), 42u);
    EXPECT_EQ(call("g", {100, 7}), 14u);
    EXPECT_EQ(call("h", {100, 7}), 2u);
    EXPECT_EQ(call("sdv", {static_cast<std::uint64_t>(-100), 7}),
              static_cast<std::uint64_t>(-14));
    EXPECT_EQ(call("g", {5, 0}), ~0ull); // div by zero per spec
}

TEST_F(Rv64Run, FunctionCallsAndStack)
{
    load(R"(
double_it:
    slli a0, a0, 1
    ret
f:
    addi sp, sp, -16
    sd ra, 8(sp)
    jal double_it
    jal double_it
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
    EXPECT_EQ(call("f", {5}), 20u);
}

TEST_F(Rv64Run, CallPseudoUsesAuipcPair)
{
    load(R"(
leaf:
    addi a0, a0, 3
    ret
f:
    addi sp, sp, -16
    sd ra, 8(sp)
    call leaf
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
    EXPECT_EQ(call("f", {1}), 4u);
}

TEST_F(Rv64Run, LaLoadsAddress)
{
    load(R"(
anchor:
    nop
f:
    la a0, anchor
    ret
)");
    EXPECT_EQ(call("f"), codeVa + symbols.at("anchor"));
}

TEST_F(Rv64Run, ComparisonOps)
{
    load(R"(
f:
    slt t0, a0, a1
    sltu t1, a0, a1
    slli t0, t0, 1
    or a0, t0, t1
    ret
)");
    // a0=-1, a1=1: signed lt -> 1, unsigned lt -> 0 => 0b10.
    EXPECT_EQ(call("f", {static_cast<std::uint64_t>(-1), 1}), 2u);
}

TEST_F(Rv64Run, SeqzSnezNegNot)
{
    load(R"(
f:
    seqz t0, a0
    snez t1, a1
    neg t2, a2
    not t3, a3
    add a0, t0, t1
    add a0, a0, t2
    add a0, a0, t3
    ret
)");
    // seqz(0)=1, snez(5)=1, neg(3)=-3, not(0)=-1 => 1+1-3-1 = -2.
    EXPECT_EQ(call("f", {0, 5, 3, 0}), static_cast<std::uint64_t>(-2));
}

TEST_F(Rv64Run, MisalignedFetchFaults)
{
    load(R"(
f:
    li t0, 0x400002
    jalr t0
    ret
)");
    core->setStackPointer(stackVa - 64);
    core->setupCall(codeVa + symbols.at("f"), {});
    RunResult r = core->run();
    EXPECT_EQ(r.stop, Fault::misalignedFetch);
    EXPECT_EQ(r.faultVa, 0x400002u);
}

TEST_F(Rv64Run, EcallExitHalts)
{
    load(R"(
f:
    li a0, 99
    li a7, 93
    ecall
)");
    core->setStackPointer(stackVa - 64);
    core->setupCall(codeVa + symbols.at("f"), {});
    RunResult r = core->run();
    EXPECT_EQ(r.stop, Fault::halt);
    EXPECT_EQ(core->retVal(), 99u);
}

TEST_F(Rv64Run, ContextSaveRestoreRoundTrip)
{
    load(R"(
f:
    li t0, 1
    ret
)");
    call("f");
    for (unsigned i = 1; i < 32; ++i)
        core->setReg(i, i * 0x1111);
    core->setPc(0x12340);
    auto ctx = core->saveContext();
    for (unsigned i = 1; i < 32; ++i)
        core->setReg(i, 0);
    core->setPc(0);
    core->restoreContext(ctx);
    for (unsigned i = 1; i < 32; ++i)
        EXPECT_EQ(core->reg(i), i * 0x1111);
    EXPECT_EQ(core->pc(), 0x12340u);
    EXPECT_EQ(core->reg(0), 0u);
}

TEST_F(Rv64Run, ZeroRegisterStaysZero)
{
    load(R"(
f:
    addi x0, x0, 5
    mv a0, x0
    ret
)");
    EXPECT_EQ(call("f", {7}), 0u);
}

TEST_F(Rv64Run, InstructionTimingIsCycleAccurate)
{
    load(R"(
f:
    addi t0, x0, 0
    addi t0, t0, 1
    addi t0, t0, 1
    mv a0, t0
    ret
)");
    call("f");
    // 5 instructions at 200 MHz = 25 ns, plus one I-cache line fill and
    // one I-TLB walk on the first fetch.
    EXPECT_EQ(last.instructions, 5u);
    EXPECT_GT(last.elapsed, ns(25));
}

TEST(Rv64Assembler, RejectsBadInput)
{
    EXPECT_DEATH(rv64Assemble("frobnicate a0, a1"), "unknown mnemonic");
    EXPECT_DEATH(rv64Assemble("addi a0, a1, 99999"), "out of range");
    EXPECT_DEATH(rv64Assemble("add a0, a1"), "operand count");
    EXPECT_DEATH(rv64Assemble("add a0, a1, rax"), "bad register");
    EXPECT_DEATH(rv64Assemble("x: nop\nx: nop"), "duplicate label");
}

TEST(Rv64Assembler, SectionMetadata)
{
    Section s = rv64Assemble("f: ret", ".text.rv64");
    EXPECT_EQ(s.name, ".text.rv64");
    EXPECT_EQ(s.isa, IsaKind::rv64);
    EXPECT_TRUE(s.executable);
    EXPECT_EQ(s.align, 4096u);
    EXPECT_EQ(s.bytes.size(), 4u);
    EXPECT_EQ(s.symbols.at("f"), 0u);
}

TEST(Rv64Assembler, AlignDirective)
{
    Section s = rv64Assemble(R"(
a: nop
.align 4
b: nop
)");
    EXPECT_EQ(s.symbols.at("b") % 16, 0u);
}

class Rv64LiProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(Rv64LiProperty, LiProducesExactValue)
{
    // Assemble "li a0, <v>; ret" and interpret it with a scratch core.
    std::uint64_t v = GetParam();
    std::string src = "f: li a0, " + std::to_string(
        static_cast<long long>(v)) + "\n ret\n";
    // Negative literal path: to_string of int64.
    Section s = rv64Assemble(src);

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem(timing, platform);
    RangeAllocator alloc("t", 0x100000, 16 << 20, 4096);
    PageTableManager ptm(mem, alloc);
    Addr cr3 = ptm.createRoot();
    Addr pa = alloc.allocate(4096);
    mem.hostDram().write(pa, s.bytes.data(), s.bytes.size());
    ptm.map(cr3, 0x400000, pa, 4096, PageSize::size4K,
            pte::user | pte::noExecute);

    CoreParams p;
    p.name = "c";
    p.requester = Requester::nxpCore;
    p.freqHz = 200'000'000;
    p.mmuPolicy.faultOnNonNxFetch = true;
    Rv64Core core(p, mem);
    core.mmu().setCr3(cr3);
    core.setupCall(0x400000, {});
    RunResult r = core.run(100);
    ASSERT_EQ(r.stop, Fault::trampoline);
    EXPECT_EQ(core.retVal(), v);
}

INSTANTIATE_TEST_SUITE_P(
    Values, Rv64LiProperty,
    ::testing::Values(0ull, 1ull, 2047ull, 2048ull, 4095ull, 0x7fffffffull,
                      0x80000000ull, 0xffffffffull, 0x100000000ull,
                      0x123456789abcdef0ull, 0x8000000000000000ull,
                      ~0ull, 0xfffffffffffff800ull, 0x00007fff00000000ull));

} // namespace
} // namespace flick
