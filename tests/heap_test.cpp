/**
 * @file
 * Unit tests for the per-region allocators (Section III-D): the 16-byte
 * heaps and, in the randomized stress, the 4 KB frame allocators.
 */

#include <gtest/gtest.h>

#include "sim/random.hh"
#include "vm/pte.hh"
#include "vm/range_allocator.hh"

namespace flick
{
namespace
{

TEST(RegionHeap, BasicAllocate)
{
    RangeAllocator h("t", 0x1000, 1 << 20, 16);
    VAddr a = h.allocate(100);
    VAddr b = h.allocate(100);
    EXPECT_NE(a, b);
    EXPECT_TRUE(h.contains(a));
    EXPECT_TRUE(h.contains(b));
    EXPECT_EQ(a % 16, 0u);
    // 100 rounds to 112 (16-byte granularity).
    EXPECT_EQ(h.allocatedBytes(), 224u);
}

TEST(RegionHeap, Alignment)
{
    RangeAllocator h("t", 0x1000, 1 << 20, 16);
    h.allocate(24);
    VAddr a = h.allocate(64, 4096);
    EXPECT_EQ(a % 4096, 0u);
}

TEST(RegionHeap, FreeAndReuse)
{
    RangeAllocator h("t", 0, 1 << 16, 16);
    VAddr a = h.allocate(1 << 12);
    VAddr b = h.allocate(1 << 12);
    h.free(a);
    VAddr c = h.allocate(1 << 12);
    EXPECT_EQ(c, a); // first fit reuses the hole
    h.free(b);
    h.free(c);
    EXPECT_EQ(h.allocatedBytes(), 0u);
    // After coalescing the full region is available again.
    VAddr all = h.allocate(1 << 16);
    EXPECT_EQ(all, 0u);
}

TEST(RegionHeap, ExhaustionIsFatal)
{
    RangeAllocator h("t", 0, 1024, 16);
    h.allocate(1024);
    EXPECT_DEATH(h.allocate(16), "exhausted");
}

TEST(RegionHeap, BadFreePanics)
{
    RangeAllocator h("t", 0, 1024, 16);
    VAddr a = h.allocate(64);
    EXPECT_DEATH(h.free(a + 16), "unallocated");
    h.free(a);
    EXPECT_DEATH(h.free(a), "unallocated");
}

/** Random alloc/free churn at one granule: no overlap, no leak. */
void
randomAllocFreeStress(std::uint64_t granule)
{
    RangeAllocator h("t", 0x10000, 1 << 20, granule);
    Rng rng(77);
    std::vector<std::pair<VAddr, std::uint64_t>> live;
    for (int i = 0; i < 2000; ++i) {
        if (live.empty() || rng.below(2)) {
            std::uint64_t size = 16 + rng.below(2000);
            std::uint64_t rounded = (size + granule - 1) & ~(granule - 1);
            if (h.allocatedBytes() + rounded + 2048 > h.capacity()) {
                // Avoid fatal exhaustion: free instead.
                if (!live.empty()) {
                    h.free(live.back().first);
                    live.pop_back();
                }
                continue;
            }
            VAddr a = h.allocate(size);
            EXPECT_EQ(a % granule, 0u);
            // No overlap with any live block.
            for (auto [addr, sz] : live) {
                EXPECT_TRUE(a + size <= addr || addr + sz <= a)
                    << "overlap";
            }
            live.emplace_back(a, rounded);
        } else {
            std::size_t idx = rng.below(live.size());
            h.free(live[idx].first);
            live.erase(live.begin() + static_cast<long>(idx));
        }
    }
    for (auto [addr, sz] : live)
        h.free(addr);
    EXPECT_EQ(h.allocatedBytes(), 0u);
}

TEST(RegionHeap, RandomAllocFreeStress)
{
    randomAllocFreeStress(16);
}

TEST(PhysAllocator, RandomAllocFreeStress)
{
    randomAllocFreeStress(4096);
}

} // namespace
} // namespace flick
