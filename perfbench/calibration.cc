#include "calibration.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench
{

namespace
{

volatile std::uint64_t sink = 0;

struct Machine;
struct Op;
using Handler = std::uint32_t (*)(Machine &, const Op &, std::uint32_t);

/** A predecoded instruction: handler pointer plus operands. */
struct Op
{
    Handler fn;
    std::uint8_t rd, rs1, rs2;
    std::uint64_t imm;
};

struct Machine
{
    std::uint64_t r[32];
    std::vector<std::uint64_t> &mem;
};

std::uint64_t
wrap(const Machine &m, std::uint64_t a)
{
    return a & (m.mem.size() - 1);
}

std::uint32_t
opAdd(Machine &m, const Op &o, std::uint32_t pc)
{
    m.r[o.rd] = m.r[o.rs1] + m.r[o.rs2];
    return pc + 1;
}

std::uint32_t
opXorShl(Machine &m, const Op &o, std::uint32_t pc)
{
    m.r[o.rd] = m.r[o.rs1] ^ (m.r[o.rs2] << (o.imm & 15));
    return pc + 1;
}

std::uint32_t
opShr(Machine &m, const Op &o, std::uint32_t pc)
{
    m.r[o.rd] = m.r[o.rs1] >> (o.imm & 31);
    return pc + 1;
}

std::uint32_t
opLoad(Machine &m, const Op &o, std::uint32_t pc)
{
    m.r[o.rd] = m.mem[wrap(m, m.r[o.rs1] + o.imm)];
    return pc + 1;
}

std::uint32_t
opStore(Machine &m, const Op &o, std::uint32_t pc)
{
    m.mem[wrap(m, m.r[o.rs1] + o.imm)] = m.r[o.rs2];
    return pc + 1;
}

std::uint32_t
opMul(Machine &m, const Op &o, std::uint32_t pc)
{
    m.r[o.rd] = m.r[o.rs1] * (m.r[o.rs2] | 1);
    return pc + 1;
}

std::uint32_t
opBranch(Machine &m, const Op &o, std::uint32_t pc)
{
    return (m.r[o.rs1] & 1) ? static_cast<std::uint32_t>(pc + o.imm)
                            : pc + 1;
}

} // namespace

double
referenceKernelSeconds()
{
    double t0 = cpuSeconds();

    // The memory persists across runs (no page faults after the first)
    // but is cleared, so every run does the same work.
    static std::vector<std::uint64_t> mem(1 << 18);
    std::fill(mem.begin(), mem.end(), 0);
    Machine m{{}, mem};
    for (unsigned i = 0; i < 32; ++i)
        m.r[i] = i * 0x9e3779b97f4a7c15ull + 1;
    const Handler handlers[] = {opAdd,  opXorShl, opShr,    opLoad,
                                opStore, opMul,   opBranch, opAdd};
    std::vector<Op> code(1024);
    std::uint64_t x = 88172645463325252ull;
    for (Op &o : code) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        o = {handlers[x & 7], static_cast<std::uint8_t>((x >> 3) & 31),
             static_cast<std::uint8_t>((x >> 8) & 31),
             static_cast<std::uint8_t>((x >> 13) & 31), ((x >> 18) & 7) + 1};
    }

    std::unordered_map<std::uint64_t, std::uint64_t> tlb;
    std::unordered_map<std::string, std::uint64_t> counters;
    std::priority_queue<std::pair<std::uint64_t, unsigned>> events;
    std::vector<std::function<void()>> callbacks;
    std::uint64_t now = 0, fired = 0;
    for (unsigned it = 0; it < 75; ++it) {
        std::uint32_t pc = 0;
        for (unsigned n = 0; n < 2048; ++n)
            pc = code[pc & 1023].fn(m, code[pc & 1023], pc);
        for (unsigned k = 0; k < 64; ++k)
            ++tlb[(m.r[k & 31] >> 12) & 4095];
        for (unsigned k = 0; k < 16; ++k)
            ++counters["dev" + std::to_string(k & 7) + "_calls"];
        for (unsigned k = 0; k < 16; ++k) {
            events.push({~(now + (m.r[k] & 63)), k});
            callbacks.push_back([&fired, k] { fired += k; });
        }
        while (!events.empty()) {
            now = ~events.top().first;
            events.pop();
            callbacks.back()();
            callbacks.pop_back();
        }
    }
    sink = sink + m.r[1] + tlb.size() + counters.size() + fired;
    return cpuSeconds() - t0;
}

void
Calibrator::beginRep()
{
    _sum = 0;
    _samples = 0;
    sample();
    _spent = 0; // this sample runs outside the measured phase
}

void
Calibrator::checkpoint()
{
    if (cpuSeconds() - _last >= interval)
        sample();
}

void
Calibrator::sample()
{
    Spans::Scope s(_spans, "calibrate", 0);
    double t0 = cpuSeconds();
    _sum += referenceKernelSeconds();
    ++_samples;
    _last = cpuSeconds();
    _spent += _last - t0;
}

} // namespace perfbench
