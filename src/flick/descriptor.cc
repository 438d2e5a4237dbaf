#include "flick/descriptor.hh"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace flick
{

namespace
{

// Wire fields are little endian; one 8-byte access each (the CRC's
// loads then forward from whole-word stores).
void
put64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    std::memcpy(p, &v, 8);
}

std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

constexpr std::uint64_t crcPoly = 0x42f0e1eba9ea3693ull;

/**
 * Slice-by-8 tables of CRC-64/ECMA-182 (MSB first). crcTables[0][b] is
 * the register after byte b passes through it once;
 * crcTables[k][b] is that byte's contribution after k more byte steps,
 * so one 8-byte word folds in with eight independent lookups.
 */
constexpr std::array<std::array<std::uint64_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint64_t, 256>, 8> t{};
    for (unsigned b = 0; b < 256; ++b) {
        std::uint64_t crc = std::uint64_t(b) << 56;
        for (int i = 0; i < 8; ++i)
            crc = (crc & (1ull << 63)) ? (crc << 1) ^ crcPoly : crc << 1;
        t[0][b] = crc;
    }
    for (unsigned k = 1; k < 8; ++k)
        for (unsigned b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] << 8) ^ t[0][t[k - 1][b] >> 56];
    return t;
}

constexpr auto crcTables = makeCrcTables();

#if defined(__x86_64__)

/** x^n mod P, for the folding constants. */
constexpr std::uint64_t
xPowModP(unsigned n)
{
    std::uint64_t r = 1;
    for (unsigned i = 0; i < n; ++i)
        r = (r & (1ull << 63)) ? (r << 1) ^ crcPoly : r << 1;
    return r;
}

/**
 * floor(x^128 / P) without its leading x^64 term: the Barrett
 * constant. Long division, one quotient bit per dividend degree from
 * 128 down to 64; `rem` holds the 64 coefficients below the current
 * degree.
 */
constexpr std::uint64_t
barrettMu()
{
    std::uint64_t rem = 0, mu = 0;
    bool top = true; // coefficient of x^128
    for (int d = 128; d >= 64; --d) {
        if (top) {
            rem ^= crcPoly;
            if (d < 128)
                mu |= 1ull << (d - 64);
        }
        top = rem >> 63;
        rem <<= 1;
    }
    return mu;
}

// Folding a 128-bit block X = Xh*x^64 + Xl over the next 128 bits
// multiplies it by x^128: Xh*(x^192 mod P) + Xl*(x^128 mod P).
constexpr std::uint64_t kX192 = xPowModP(192);
constexpr std::uint64_t kX128 = xPowModP(128);
constexpr std::uint64_t kMu = barrettMu();

/**
 * The 16 bytes at @p p as one big-endian 128-bit polynomial. Loaded as
 * two 8-byte halves: the wire image is written in 8-byte stores, which
 * a 16-byte load could not forward from.
 */
__attribute__((target("ssse3"))) inline __m128i
loadBlock(const std::uint8_t *p)
{
    const __m128i reverse =
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    __m128i v = _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p + 8)));
    return _mm_shuffle_epi8(v, reverse);
}

/** Bits 127..64 of @p v. */
inline std::uint64_t
high64(__m128i v)
{
    return static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)));
}

#endif

} // namespace

std::uint64_t
crc64Table(const std::uint8_t *p, std::uint64_t len)
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

#if defined(__x86_64__)

bool
crc64ClmulSupported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("ssse3");
}

/*
 * Fold 16-byte blocks with carry-less multiplies, then Barrett-reduce
 * the 128-bit remainder to the 64-bit CRC. With init 0, leading zero
 * bytes leave the CRC unchanged, so a length that is not a multiple of
 * 16 is zero-padded at the front: the first block holds len % 16 bytes.
 */
__attribute__((target("pclmul,ssse3"))) std::uint64_t
crc64Clmul(const std::uint8_t *p, std::uint64_t len)
{
    if (len < 16)
        return crc64Table(p, len);
    std::uint64_t head = len % 16 ? len % 16 : 16;
    std::uint8_t first[16] = {};
    std::memcpy(first + 16 - head, p, head);
    __m128i x = loadBlock(first);
    p += head;
    len -= head;
    const __m128i fold = _mm_set_epi64x(static_cast<long long>(kX192),
                                        static_cast<long long>(kX128));
    for (; len > 0; p += 16, len -= 16) {
        __m128i hi = _mm_clmulepi64_si128(x, fold, 0x11);
        __m128i lo = _mm_clmulepi64_si128(x, fold, 0x00);
        x = _mm_xor_si128(_mm_xor_si128(hi, lo), loadBlock(p));
    }
    // The CRC is X*x^64 mod P. X*x^64 = Xh*x^128 + Xl*x^64, which is
    // the 128-bit R below after folding Xh with x^128 mod P.
    const __m128i consts = _mm_set_epi64x(static_cast<long long>(kMu),
                                          static_cast<long long>(kX128));
    __m128i r = _mm_xor_si128(_mm_clmulepi64_si128(x, consts, 0x01),
                              _mm_slli_si128(x, 8));
    // Barrett: q = floor(Rh*x^64 / P) = Rh ^ hi64(Rh * mu); then
    // R mod P = Rl ^ lo64(q * P) = Rl ^ lo64(q * poly).
    __m128i t = _mm_clmulepi64_si128(r, consts, 0x11);
    std::uint64_t q = high64(r) ^ high64(t);
    __m128i qp = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(q)),
        _mm_cvtsi64_si128(static_cast<long long>(crcPoly)), 0x00);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(r)) ^
           static_cast<std::uint64_t>(_mm_cvtsi128_si64(qp));
}

#endif

namespace
{

using CrcKernel = std::uint64_t (*)(const std::uint8_t *, std::uint64_t);

CrcKernel
pickCrcKernel()
{
#if defined(__x86_64__)
    if (crc64ClmulSupported())
        return crc64Clmul;
#endif
    return crc64Table;
}

const CrcKernel crcKernel = pickCrcKernel();

} // namespace

// CRC-64/ECMA-182, init 0, no final xor. The zero init keeps the
// all-zero descriptor's wire image all zeroes (an untouched mailbox
// slot checks out as intact-but-invalid rather than corrupt), while any
// single-bit flip in either the payload or the stored checksum is
// guaranteed to be detected.
std::uint64_t
crc64(const std::uint8_t *p, std::uint64_t len)
{
    return crcKernel(p, len);
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
