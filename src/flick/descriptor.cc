#include "flick/descriptor.hh"

#include <array>
#include <cstring>

namespace flick
{

namespace
{

void
put64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(p[i]) << (8 * i);
    return v;
}

/**
 * Slice-by-8 tables of CRC-64/ECMA-182 (MSB first). crcTables[0][b] is
 * the register after byte b passes through it once;
 * crcTables[k][b] is that byte's contribution after k more byte steps,
 * so one 8-byte word folds in with eight independent lookups.
 */
constexpr std::array<std::array<std::uint64_t, 256>, 8>
makeCrcTables()
{
    constexpr std::uint64_t poly = 0x42f0e1eba9ea3693ull;
    std::array<std::array<std::uint64_t, 256>, 8> t{};
    for (unsigned b = 0; b < 256; ++b) {
        std::uint64_t crc = std::uint64_t(b) << 56;
        for (int i = 0; i < 8; ++i)
            crc = (crc & (1ull << 63)) ? (crc << 1) ^ poly : crc << 1;
        t[0][b] = crc;
    }
    for (unsigned k = 1; k < 8; ++k)
        for (unsigned b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] << 8) ^ t[0][t[k - 1][b] >> 56];
    return t;
}

constexpr auto crcTables = makeCrcTables();

} // namespace

// CRC-64/ECMA-182, init 0, no final xor. The zero init keeps the
// all-zero descriptor's wire image all zeroes (an untouched mailbox
// slot checks out as intact-but-invalid rather than corrupt), while any
// single-bit flip in either the payload or the stored checksum is
// guaranteed to be detected.
std::uint64_t
crc64(const std::uint8_t *p, std::uint64_t len)
{
    const auto &t = crcTables;
    std::uint64_t crc = 0;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t w = crc;
        for (int i = 0; i < 8; ++i)
            w ^= std::uint64_t(p[i]) << (56 - 8 * i);
        crc = t[7][w >> 56] ^ t[6][(w >> 48) & 0xff] ^
              t[5][(w >> 40) & 0xff] ^ t[4][(w >> 32) & 0xff] ^
              t[3][(w >> 24) & 0xff] ^ t[2][(w >> 16) & 0xff] ^
              t[1][(w >> 8) & 0xff] ^ t[0][w & 0xff];
    }
    for (; len > 0; ++p, --len)
        crc = t[0][(crc >> 56) ^ *p] ^ (crc << 8);
    return crc;
}

const char *
descriptorKindName(DescriptorKind kind)
{
    switch (kind) {
      case DescriptorKind::invalid: return "invalid";
      case DescriptorKind::hostToNxpCall: return "hostToNxpCall";
      case DescriptorKind::nxpToHostCall: return "nxpToHostCall";
      case DescriptorKind::hostToNxpReturn: return "hostToNxpReturn";
      case DescriptorKind::nxpToHostReturn: return "nxpToHostReturn";
    }
    return "?";
}

MigrationDescriptor::Wire
MigrationDescriptor::toWire() const
{
    Wire w{};
    put64(&w[0], (std::uint64_t(pid) << 32) |
                     static_cast<std::uint32_t>(kind));
    put64(&w[8], target);
    put64(&w[16], cr3);
    put64(&w[24], nxpSp);
    put64(&w[32], retval);
    put64(&w[40], nargs);
    for (unsigned i = 0; i < maxArgs; ++i)
        put64(&w[48 + 8 * i], args[i]);
    put64(&w[96], seq);
    put64(&w[104], callId);
    put64(&w[checksummedBytes], crc64(w.data(), checksummedBytes));
    return w;
}

MigrationDescriptor
MigrationDescriptor::fromWire(const Wire &w)
{
    MigrationDescriptor d;
    std::uint64_t head = get64(&w[0]);
    d.kind = static_cast<DescriptorKind>(head & 0xffffffffu);
    d.pid = static_cast<std::uint32_t>(head >> 32);
    d.target = get64(&w[8]);
    d.cr3 = get64(&w[16]);
    d.nxpSp = get64(&w[24]);
    d.retval = get64(&w[32]);
    d.nargs = static_cast<std::uint32_t>(get64(&w[40]));
    for (unsigned i = 0; i < maxArgs; ++i)
        d.args[i] = get64(&w[48 + 8 * i]);
    d.seq = get64(&w[96]);
    d.callId = get64(&w[104]);
    return d;
}

std::uint64_t
MigrationDescriptor::wireChecksum(const Wire &w)
{
    return crc64(w.data(), checksummedBytes);
}

bool
MigrationDescriptor::wireIntact(const Wire &w)
{
    return get64(&w[checksummedBytes]) == wireChecksum(w);
}

} // namespace flick
