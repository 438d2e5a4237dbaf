/**
 * @file
 * Unit tests for migration descriptors: wire-format round trips and the
 * integrity fields (sequence number, CRC-64 checksum) receivers use to
 * reject corrupted bursts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flick/descriptor.hh"
#include "sim/random.hh"

namespace flick
{
namespace
{

/** The bitwise CRC-64/ECMA-182 the table-driven crc64 must agree with. */
std::uint64_t
referenceCrc64(const std::uint8_t *p, std::uint64_t len)
{
    constexpr std::uint64_t poly = 0x42f0e1eba9ea3693ull;
    std::uint64_t crc = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
        crc ^= std::uint64_t(p[i]) << 56;
        for (int b = 0; b < 8; ++b)
            crc = (crc & (1ull << 63)) ? (crc << 1) ^ poly : crc << 1;
    }
    return crc;
}

TEST(Descriptor, WireSizeMatchesBurst)
{
    MigrationDescriptor d;
    EXPECT_EQ(d.toWire().size(), MigrationDescriptor::wireBytes);
    EXPECT_EQ(MigrationDescriptor::wireBytes, 128u);
}

TEST(Descriptor, RoundTripAllFields)
{
    MigrationDescriptor d;
    d.kind = DescriptorKind::nxpToHostCall;
    d.pid = 4242;
    d.target = 0x400123;
    d.cr3 = 0x7f000;
    d.nxpSp = 0x4000010000ull;
    d.retval = 0xdeadbeef;
    d.nargs = 6;
    for (unsigned i = 0; i < 6; ++i)
        d.args[i] = 0x1111111111111111ull * (i + 1);

    MigrationDescriptor e = MigrationDescriptor::fromWire(d.toWire());
    EXPECT_EQ(e.kind, d.kind);
    EXPECT_EQ(e.pid, d.pid);
    EXPECT_EQ(e.target, d.target);
    EXPECT_EQ(e.cr3, d.cr3);
    EXPECT_EQ(e.nxpSp, d.nxpSp);
    EXPECT_EQ(e.retval, d.retval);
    EXPECT_EQ(e.nargs, d.nargs);
    EXPECT_EQ(e.args, d.args);
}

class DescriptorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DescriptorProperty, RandomRoundTrip)
{
    Rng rng(GetParam());
    MigrationDescriptor d;
    d.kind = static_cast<DescriptorKind>(1 + rng.below(4));
    d.pid = static_cast<std::uint32_t>(rng.next());
    d.target = rng.next();
    d.cr3 = rng.next();
    d.nxpSp = rng.next();
    d.retval = rng.next();
    d.nargs = static_cast<std::uint32_t>(rng.below(7));
    for (auto &a : d.args)
        a = rng.next();
    d.seq = rng.next();
    MigrationDescriptor e = MigrationDescriptor::fromWire(d.toWire());
    EXPECT_EQ(e.kind, d.kind);
    EXPECT_EQ(e.pid, d.pid);
    EXPECT_EQ(e.target, d.target);
    EXPECT_EQ(e.cr3, d.cr3);
    EXPECT_EQ(e.nxpSp, d.nxpSp);
    EXPECT_EQ(e.retval, d.retval);
    EXPECT_EQ(e.nargs, d.nargs);
    EXPECT_EQ(e.args, d.args);
    EXPECT_EQ(e.seq, d.seq);
}

/** A freshly serialized descriptor always passes the integrity check. */
TEST_P(DescriptorProperty, FreshWireIsIntact)
{
    Rng rng(GetParam() + 1000);
    MigrationDescriptor d;
    d.kind = static_cast<DescriptorKind>(1 + rng.below(4));
    d.pid = static_cast<std::uint32_t>(rng.next());
    d.target = rng.next();
    d.retval = rng.next();
    d.nargs = static_cast<std::uint32_t>(rng.below(7));
    for (auto &a : d.args)
        a = rng.next();
    d.seq = rng.next();
    EXPECT_TRUE(MigrationDescriptor::wireIntact(d.toWire()))
        << "seed " << GetParam();
}

/**
 * Every single-bit flip anywhere in the 128-byte wire image must fail
 * the checksum: a flip in the covered prefix changes the computed CRC,
 * and a flip in the stored checksum mismatches the (unchanged) computed
 * one. This is the property the NAK/retransmit protocol relies on.
 */
TEST_P(DescriptorProperty, AnySingleBitFlipDetected)
{
    Rng rng(GetParam() + 2000);
    MigrationDescriptor d;
    d.kind = DescriptorKind::hostToNxpCall;
    d.pid = static_cast<std::uint32_t>(rng.next());
    d.target = rng.next();
    d.nargs = 6;
    for (auto &a : d.args)
        a = rng.next();
    d.seq = 1 + rng.below(1 << 20);
    const auto clean = d.toWire();
    ASSERT_TRUE(MigrationDescriptor::wireIntact(clean));
    for (unsigned bit = 0; bit < MigrationDescriptor::wireBytes * 8; ++bit) {
        auto w = clean;
        w[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(MigrationDescriptor::wireIntact(w))
            << "seed " << GetParam() << ", undetected flip of bit " << bit;
    }
}

/** Multi-bit bursts of the width the chaos engine injects are caught. */
TEST_P(DescriptorProperty, RandomBurstCorruptionDetected)
{
    Rng rng(GetParam() + 3000);
    MigrationDescriptor d;
    d.kind = DescriptorKind::nxpToHostReturn;
    d.retval = rng.next();
    d.seq = 1 + rng.below(1 << 20);
    const auto clean = d.toWire();
    for (int trial = 0; trial < 64; ++trial) {
        auto w = clean;
        unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < flips; ++i) {
            unsigned bit =
                static_cast<unsigned>(rng.below(MigrationDescriptor::wireBytes * 8));
            w[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        if (w == clean)  // flips may cancel out
            continue;
        EXPECT_FALSE(MigrationDescriptor::wireIntact(w))
            << "seed " << GetParam() << ", trial " << trial;
    }
}

/** The table CRC equals the bitwise reference at every length 0..120. */
TEST_P(DescriptorProperty, TableCrcMatchesBitwiseReference)
{
    Rng rng(GetParam() + 4000);
    std::uint8_t buf[MigrationDescriptor::checksummedBytes];
    for (std::uint64_t len = 0; len <= sizeof(buf); ++len) {
        for (std::uint64_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(crc64(buf, len), referenceCrc64(buf, len))
            << "seed " << GetParam() << ", length " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescriptorProperty,
                         ::testing::Range(1, 33));

/**
 * Known answer: CRC-64/ECMA-182's check value for "123456789". With
 * init 0, leading zero bytes leave the register at zero, so the string
 * at the end of the checksummed prefix yields the check value through
 * the wire path too.
 */
TEST(Descriptor, CrcKnownAnswer)
{
    const char msg[] = "123456789";
    const std::uint64_t len = sizeof(msg) - 1;
    const std::uint64_t check = 0x6c40df5f0b497347ull;
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(msg);
    EXPECT_EQ(crc64(bytes, len), check);
    EXPECT_EQ(referenceCrc64(bytes, len), check);

    MigrationDescriptor::Wire w{};
    std::copy(bytes, bytes + len,
              w.begin() + (MigrationDescriptor::checksummedBytes - len));
    EXPECT_EQ(MigrationDescriptor::wireChecksum(w), check);
}

/** A CRC kernel under test, by name. */
struct CrcKernel
{
    const char *name;
    std::uint64_t (*fn)(const std::uint8_t *, std::uint64_t);
};

/** The kernels this host can run: the table kernel everywhere, the
 *  carry-less-multiply kernel where the CPU has PCLMULQDQ. */
std::vector<CrcKernel>
hostCrcKernels()
{
    std::vector<CrcKernel> k{{"table", crc64Table}};
#if defined(__x86_64__)
    if (crc64ClmulSupported())
        k.push_back({"clmul", crc64Clmul});
#endif
    return k;
}

/** Each kernel equals the bitwise reference at every length 0..256,
 *  which covers every block count and tail length the folding kernel
 *  distinguishes, with the buffer starting at every alignment mod 16. */
TEST(CrcKernels, MatchBitwiseReferenceAtEveryLength)
{
    Rng rng(77);
    std::vector<std::uint8_t> buf(256 + 16);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (const CrcKernel &k : hostCrcKernels()) {
        for (std::uint64_t len = 0; len <= 256; ++len) {
            const std::uint8_t *p = buf.data() + len % 16;
            EXPECT_EQ(k.fn(p, len), referenceCrc64(p, len))
                << k.name << " kernel, length " << len;
        }
    }
}

/** Seeded random buffers of random lengths up to 4 KiB. */
TEST(CrcKernels, MatchBitwiseReferenceOnRandomBuffers)
{
    for (const CrcKernel &k : hostCrcKernels()) {
        for (int seed = 1; seed <= 64; ++seed) {
            Rng rng(seed);
            std::vector<std::uint8_t> buf(rng.below(4097));
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(rng.next());
            EXPECT_EQ(k.fn(buf.data(), buf.size()),
                      referenceCrc64(buf.data(), buf.size()))
                << k.name << " kernel, seed " << seed << ", length "
                << buf.size();
        }
    }
}

/** The ECMA-182 check value and the all-zero image, per kernel. */
TEST(CrcKernels, KnownAnswers)
{
    const char msg[] = "123456789";
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(msg);
    const std::uint8_t zeros[MigrationDescriptor::wireBytes] = {};
    for (const CrcKernel &k : hostCrcKernels()) {
        EXPECT_EQ(k.fn(bytes, sizeof(msg) - 1), 0x6c40df5f0b497347ull)
            << k.name << " kernel";
        // Init 0: any run of zero bytes leaves the register at zero,
        // so an untouched mailbox slot's image is self-consistent.
        EXPECT_EQ(k.fn(zeros, MigrationDescriptor::checksummedBytes), 0u)
            << k.name << " kernel";
    }
    EXPECT_TRUE(MigrationDescriptor::wireIntact(MigrationDescriptor::Wire{}));
}

TEST(Descriptor, DefaultIsInvalid)
{
    MigrationDescriptor d;
    EXPECT_EQ(d.kind, DescriptorKind::invalid);
    auto w = d.toWire();
    // An all-defaults descriptor serializes as zeroes.
    for (std::uint8_t b : w)
        EXPECT_EQ(b, 0u);
}

} // namespace
} // namespace flick
