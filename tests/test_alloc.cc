/** @file Unit tests for the persistent allocator. */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/pm_allocator.h"
#include "common/error.h"
#include "common/rand.h"
#include "nvm/fault_model.h"
#include "nvm/pool.h"
#include "structures/kv.h"
#include "testutil.h"

namespace cnvm::alloc {
namespace {

struct AllocTest : ::testing::Test {
    void
    SetUp() override
    {
        nvm::PoolConfig cfg;
        cfg.size = 16 << 20;
        cfg.maxThreads = 2;
        cfg.slotBytes = 64 << 10;
        pool = nvm::Pool::create(cfg);
        heap = std::make_unique<PmAllocator>(*pool);
    }

    std::unique_ptr<nvm::Pool> pool;
    std::unique_ptr<PmAllocator> heap;
};

TEST_F(AllocTest, ReserveAlignedAndSized)
{
    uint64_t a = heap->reserve(100);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(heap->payloadSize(a), 112u);
    uint64_t b = heap->reserve(100);
    EXPECT_NE(a, b);
}

TEST_F(AllocTest, ReservationsDoNotOverlap)
{
    std::set<std::pair<uint64_t, uint64_t>> ranges;
    for (int i = 1; i <= 500; i++) {
        auto sz = static_cast<size_t>(i % 97 + 1);
        uint64_t off = heap->reserve(sz);
        for (const auto& [o, l] : ranges) {
            bool disjoint = off + sz <= o || o + l <= off;
            ASSERT_TRUE(disjoint) << "overlap at " << off;
        }
        ranges.emplace(off, sz);
    }
}

TEST_F(AllocTest, ReleaseReservationReturnsSpace)
{
    size_t before = heap->freeBytes();
    uint64_t a = heap->reserve(1000);
    EXPECT_LT(heap->freeBytes(), before);
    heap->releaseReservation(a);
    EXPECT_EQ(heap->freeBytes(), before);
}

TEST_F(AllocTest, UncommittedReservationVanishesOnRebuild)
{
    size_t before = heap->freeBytes();
    heap->reserve(1000);  // never persisted
    heap->rebuild();
    EXPECT_EQ(heap->freeBytes(), before);
}

TEST_F(AllocTest, CommittedAllocationSurvivesRebuild)
{
    size_t before = heap->freeBytes();
    uint64_t a = heap->reserve(1000);
    heap->persistAllocate(a);
    pool->fence();
    heap->rebuild();
    EXPECT_LT(heap->freeBytes(), before);
    EXPECT_EQ(heap->payloadSize(a), 1008u);
    // And a fresh reservation must not land inside it.
    uint64_t b = heap->reserve(1000);
    EXPECT_TRUE(b + 1008 <= a || a + 1008 <= b);
}

TEST_F(AllocTest, PersistFreeReturnsSpaceAcrossRebuild)
{
    size_t start = heap->freeBytes();
    uint64_t a = heap->reserve(1000);
    heap->persistAllocate(a);
    pool->fence();
    heap->persistFree(a);
    pool->fence();
    heap->rebuild();
    EXPECT_EQ(heap->freeBytes(), start);
}

TEST_F(AllocTest, CoalescingKeepsExtentCountBounded)
{
    std::vector<uint64_t> offs;
    offs.reserve(64);
    for (int i = 0; i < 64; i++) {
        uint64_t off = heap->reserve(64);
        heap->persistAllocate(off);
        offs.push_back(off);
    }
    pool->fence();
    for (uint64_t off : offs) {
        heap->persistFree(off);
    }
    pool->fence();
    // All space freed and adjacent blocks coalesced back together.
    heap->rebuild();
    EXPECT_LE(heap->freeExtents(), 2u);
}

TEST_F(AllocTest, RevertBitsIsIdempotent)
{
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    heap->revertBits(a, 256, false);
    heap->revertBits(a, 256, false);
    heap->rebuild();
    size_t freed = heap->freeBytes();
    heap->revertBits(a, 256, true);
    heap->revertBits(a, 256, true);
    heap->rebuild();
    EXPECT_LT(heap->freeBytes(), freed);
}

TEST_F(AllocTest, ExhaustionIsFatalNotUb)
{
    EXPECT_THROW(heap->reserve(1ULL << 40), FatalError);
}

TEST_F(AllocTest, ReattachFindsExistingHeap)
{
    uint64_t a = heap->reserve(512);
    heap->persistAllocate(a);
    pool->fence();
    // A second allocator over the same pool must respect the bitmap.
    PmAllocator again(*pool);
    EXPECT_EQ(again.payloadSize(a), 512u);
    uint64_t b = again.reserve(512);
    EXPECT_NE(a, b);
}

TEST_F(AllocTest, QuarantinePersistsAcrossReattach)
{
    uint64_t a = heap->reserve(4096);
    heap->persistAllocate(a);
    pool->fence();
    size_t freeBefore = heap->freeBytes();
    heap->quarantine(a, 4096, kQuarPoisonedData);
    EXPECT_TRUE(heap->isQuarantined(a, 1));
    EXPECT_FALSE(heap->quarantineViolation());

    // A fresh allocator over the same pool must reload the table and
    // keep the range out of the free map.
    PmAllocator again(*pool);
    EXPECT_TRUE(again.isQuarantined(a, 1));
    EXPECT_EQ(again.quarantineCount(), 1u);
    EXPECT_FALSE(again.quarantineViolation());
    // The quarantined bytes never resurface: everything allocatable
    // can be drawn down without ever overlapping the range.
    EXPECT_LE(again.freeBytes(), freeBefore);
    for (int i = 0; i < 64; i++) {
        uint64_t b = again.reserve(512);
        EXPECT_TRUE(b + 512 <= a || b >= a + 4096);
        again.persistAllocate(b);
    }
    pool->fence();
}

TEST_F(AllocTest, QuarantineIsIdempotentForCoveredRanges)
{
    uint64_t a = heap->reserve(1024);
    heap->persistAllocate(a);
    pool->fence();
    heap->quarantine(a, 1024, kQuarCorruptBlock);
    uint32_t n = heap->quarantineCount();
    heap->quarantine(a, 1024, kQuarCorruptBlock);
    EXPECT_EQ(heap->quarantineCount(), n);
}

TEST_F(AllocTest, PoisonedBitmapChunkIsQuarantinedOnRebuild)
{
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    nvm::FaultConfig fc;
    fc.poisons = 1;
    pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
    // Poison the first line of the bitmap: rebuild must not trust the
    // line — it rewrites it all-allocated and quarantines the
    // granules that line administers.
    pool->faults()->poisonAt(heap->bitmapOff());
    RebuildStats st = heap->rebuild();
    EXPECT_GT(st.poisonedChunks, 0u);
    EXPECT_GT(st.quarantinedBlocks, 0u);
    EXPECT_GT(st.quarantinedBytes, 0u);
    EXPECT_FALSE(heap->quarantineViolation());
    // The healing rewrite cleared the poison, so the next rebuild is
    // clean and the quarantined range stays out of the free map.
    RebuildStats st2 = heap->rebuild();
    EXPECT_EQ(st2.poisonedChunks, 0u);
    EXPECT_FALSE(heap->quarantineViolation());
}

TEST_F(AllocTest, FlippedAllocHeaderIsHealedOnRebuild)
{
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    uint64_t dataOff = heap->dataOff();
    nvm::FaultConfig fc;
    fc.bitFlips = 1;
    pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
    // Flip a bit inside the AllocHeader's dataOff field: the layout is
    // a pure function of pool geometry, so rebuild recomputes it.
    pool->faults()->flipBit(*pool,
                            pool->heapOff() +
                                offsetof(AllocHeader, dataOff),
                            5);
    RebuildStats st = heap->rebuild();
    EXPECT_TRUE(st.headerHealed);
    EXPECT_EQ(heap->dataOff(), dataOff);
    EXPECT_EQ(heap->payloadSize(a), 256u);
    // Healed in place: the next rebuild sees a pristine header.
    EXPECT_FALSE(heap->rebuild().headerHealed);
}

TEST_F(AllocTest, QuarantineForcesEveryOverlappedGranule)
{
    // A range that starts mid-granule overlaps two granules; the
    // first also gets a start bit.
    heap->quarantine(heap->dataOff() + kGranule / 2, kGranule,
                     kQuarCorruptBlock);
    const auto* bitmap =
        static_cast<const uint8_t*>(pool->at(heap->bitmapOff()));
    EXPECT_EQ(bitmap[0], 0x3);
    EXPECT_EQ(bitmap[kStartBitsOff], 0x1);
    heap->rebuild();
    EXPECT_FALSE(heap->quarantineViolation());
    EXPECT_EQ(heap->freeBytes(), heap->dataBytes() - 2 * kGranule);
}

TEST_F(AllocTest, FreshRebuildIsNotRepeatedButSeesMediaEvents)
{
    size_t fresh = heap->freeBytes();
    uint8_t* bitmap = static_cast<uint8_t*>(pool->at(heap->bitmapOff()));
    // A raw poke bypasses Pool::write, the cache model and the fault
    // model — not a supported way to change the heap; here it only
    // shows that a rebuild with nothing to redo does not rescan.
    bitmap[0] = 0xff;
    EXPECT_EQ(heap->rebuild().poisonedChunks, 0u);
    EXPECT_EQ(heap->freeBytes(), fresh);
    bitmap[0] = 0;

    // A media fault struck since: the rebuild scans and salvages.
    nvm::FaultConfig fc;
    pool->setFaultModel(std::make_unique<nvm::FaultModel>(fc));
    pool->faults()->poisonAt(heap->bitmapOff() + 64);
    RebuildStats st = heap->rebuild();
    EXPECT_EQ(st.poisonedChunks, 1u);
    EXPECT_EQ(heap->freeBytes(), fresh - kLineGranules * kGranule);

    // A crash since the last scan may have reverted bitmap words: a
    // volatile bitmap write seen by a new allocator's scan is gone
    // after the crash, and the next rebuild must notice. (The word
    // holds the allocation bits of the next line's first 64 granules.)
    uint64_t ones = ~0ULL;
    pool->writeAt(heap->bitmapOff() + 128, &ones, sizeof(ones));
    PmAllocator reopened(*pool);
    EXPECT_EQ(reopened.freeBytes(),
              fresh - (kLineGranules + 64) * kGranule);
    pool->cache().crashAllLost();
    reopened.rebuild();
    EXPECT_EQ(reopened.freeBytes(), fresh - kLineGranules * kGranule);
}

// ---------------------------------------------------------------------
// Header-less blocks: the bitmap's start bits bound every block.

struct GranuleBits {
    bool allocated;
    bool start;
};

GranuleBits
bitsAt(const nvm::Pool& pool, const PmAllocator& heap, uint64_t off)
{
    uint64_t g = (off - heap.dataOff()) / kGranule;
    const auto* line = static_cast<const uint8_t*>(pool.at(
        heap.bitmapOff() + g / kLineGranules * kBitmapLine));
    uint64_t i = g % kLineGranules;
    auto bit = static_cast<uint8_t>(1u << (i % 8));
    return {(line[i / 8] & bit) != 0,
            (line[kStartBitsOff + i / 8] & bit) != 0};
}

TEST_F(AllocTest, BackToBackItemsSpanExactlyTheirBytes)
{
    // A KV item (32-byte header, 16-byte key, 64-byte value) is seven
    // granules with no header granule; 100 of them cross bitmap lines.
    constexpr uint64_t kItem = 112;
    constexpr uint64_t kN = 100;
    size_t before = heap->freeBytes();
    std::vector<uint64_t> offs;
    for (uint64_t i = 0; i < kN; i++) {
        offs.push_back(heap->reserve(kItem));
        heap->persistAllocate(offs.back());
    }
    pool->fence();
    EXPECT_EQ(offs.back() + kItem - offs.front(), kN * kItem);
    heap->rebuild();
    EXPECT_EQ(before - heap->freeBytes(), kN * kItem);
    for (uint64_t i = 0; i < kN; i++) {
        EXPECT_EQ(offs[i], offs.front() + i * kItem);
        EXPECT_EQ(heap->payloadSize(offs[i]), kItem);
    }
}

TEST_F(AllocTest, FreeingFirstOfTwoTouchingBlocksKeepsTheSecond)
{
    uint64_t a = heap->reserve(112);
    uint64_t b = heap->reserve(112);
    ASSERT_EQ(b, a + 112);
    heap->persistAllocate(a);
    heap->persistAllocate(b);
    pool->fence();
    heap->persistFree(a);
    pool->fence();
    for (uint64_t off = a; off < b; off += kGranule) {
        GranuleBits x = bitsAt(*pool, *heap, off);
        EXPECT_FALSE(x.allocated) << off - a;
        EXPECT_FALSE(x.start) << off - a;
    }
    for (uint64_t off = b; off < b + 112; off += kGranule) {
        GranuleBits x = bitsAt(*pool, *heap, off);
        EXPECT_TRUE(x.allocated) << off - b;
        EXPECT_EQ(x.start, off == b) << off - b;
    }
    EXPECT_EQ(heap->payloadSize(b), 112u);
    heap->rebuild();
    EXPECT_EQ(heap->payloadSize(b), 112u);
    EXPECT_THROW(heap->payloadSize(a), CorruptBlockError);
}

TEST_F(AllocTest, FreeWhereNoBlockStartsThrows)
{
    size_t start = heap->freeBytes();
    uint64_t a = heap->reserve(256);
    heap->persistAllocate(a);
    pool->fence();
    // Inside the block, and just past it (a free granule).
    EXPECT_THROW(heap->persistFree(a + kGranule), CorruptBlockError);
    EXPECT_THROW(heap->payloadSize(a + 256), CorruptBlockError);
    // Clear the block's start bit: the run no longer names a block.
    uint64_t g = (a - heap->dataOff()) / kGranule;
    uint64_t startByte = heap->bitmapOff() +
                         g / kLineGranules * kBitmapLine + kStartBitsOff +
                         g % kLineGranules / 8;
    auto v = static_cast<uint8_t>(
        *static_cast<const uint8_t*>(pool->at(startByte)) &
        ~(1u << (g % 8)));
    pool->writeAt(startByte, &v, 1);
    try {
        heap->persistFree(a);
        ADD_FAILURE() << "free of a block with no start bit succeeded";
    } catch (const CorruptBlockError& e) {
        EXPECT_EQ(e.payloadOff(), a);
    }
    // The sized overload trusts the caller's intent table and still
    // frees the block without reading its bounds from the bitmap.
    heap->persistFree(a, 256);
    pool->fence();
    heap->rebuild();
    EXPECT_EQ(heap->freeBytes(), start);
}

// ---------------------------------------------------------------------
// Format and rawCreate write only what is not already durably zero.

nvm::PoolConfig
poolConfig(size_t size)
{
    nvm::PoolConfig cfg;
    cfg.size = size;
    cfg.maxThreads = 2;
    cfg.slotBytes = 64 << 10;
    return cfg;
}

/** Heap layout a format of a pool with `cfg` produces. */
AllocHeader
layoutOf(const nvm::PoolConfig& cfg)
{
    auto probe = nvm::Pool::create(cfg);
    PmAllocator heap(*probe);
    return *static_cast<const AllocHeader*>(probe->at(probe->heapOff()));
}

bool
allZero(const nvm::Pool& pool, uint64_t off, uint64_t n)
{
    const auto* p = static_cast<const uint8_t*>(pool.at(off));
    for (uint64_t i = 0; i < n; i++) {
        if (p[i] != 0)
            return false;
    }
    return true;
}

TEST(AllocFormat, FreshHeapFormatGrowsNoCacheModelState)
{
    auto pool = nvm::Pool::create(poolConfig(512ULL << 20));
    PmAllocator heap(*pool);
    // The ~8 MiB bitmap of a fresh pool already reads zero: the format
    // writes only the quarantine table and the header.
    EXPECT_GE(heap.bitmapBytes(), 7ULL << 20);
    EXPECT_LE(pool->cache().maxShardSlots(), 64u);
    EXPECT_EQ(pool->cache().volatileLines(), 0u);
}

TEST(AllocFormat, RawCreateOnFreshHeapGrowsNoCacheModelState)
{
    test::Harness h(txn::RuntimeKind::clobber, rt::ClobberPolicy::refined,
                    64ULL << 20);
    auto eng = h.engine();
    uint64_t off = ds::rawCreate(eng, 1 << 20);
    EXPECT_EQ(h.heap->payloadSize(off), size_t{1} << 20);
    EXPECT_TRUE(allZero(*h.pool, off, 1 << 20));
    EXPECT_LE(h.pool->cache().maxShardSlots(), 64u);
    EXPECT_EQ(h.pool->cache().volatileLines(), 0u);
}

TEST(AllocFormat, RawCreateOverRecycledSpaceIsDurablyZero)
{
    test::Harness h(txn::RuntimeKind::clobber, rt::ClobberPolicy::refined,
                    16ULL << 20);
    auto eng = h.engine();
    // Leave durable garbage in free space, then some volatile zeros
    // over it, and reuse the space for a root.
    uint64_t junk = h.heap->reserve(64 << 10);
    std::vector<uint8_t> pattern(64 << 10, 0xa5);
    h.pool->writeAt(junk, pattern.data(), pattern.size());
    h.pool->flush(h.pool->at(junk), pattern.size());
    h.heap->persistAllocate(junk);
    h.pool->fence();
    h.heap->persistFree(junk);
    h.pool->fence();
    std::vector<uint8_t> zeros(4096, 0);
    h.pool->writeAt(junk + 8192, zeros.data(), zeros.size());
    uint64_t off = ds::rawCreate(eng, 64 << 10);
    ASSERT_EQ(off, junk);
    h.pool->cache().crashAllLost();
    EXPECT_TRUE(allZero(*h.pool, off, 64 << 10));
}

TEST(AllocFormat, FormatOverNonZeroRangeIsDurablyZero)
{
    nvm::PoolConfig cfg = poolConfig(16 << 20);
    AllocHeader want = layoutOf(cfg);
    auto pool = nvm::Pool::create(cfg);
    // Durable garbage over the quarantine table and bitmap, then
    // volatile zeros over part of it: reads zero, but only until a
    // crash.
    std::vector<uint8_t> junk(want.dataOff - want.quarOff, 0x5a);
    pool->writeAt(want.quarOff, junk.data(), junk.size());
    pool->persist(pool->at(want.quarOff), junk.size());
    std::vector<uint8_t> zeros(3 * 4096, 0);
    pool->writeAt(want.bitmapOff + 4096, zeros.data(), zeros.size());

    size_t fresh = 0;
    {
        PmAllocator heap(*pool);
        fresh = heap.freeBytes();
    }
    pool->cache().crashAllLost();
    EXPECT_TRUE(allZero(*pool, want.bitmapOff, want.bitmapBytes));
    EXPECT_EQ(std::memcmp(pool->at(pool->heapOff()), &want, sizeof(want)),
              0);
    PmAllocator reopened(*pool);
    EXPECT_EQ(reopened.quarantineCount(), 0u);
    EXPECT_EQ(reopened.freeBytes(), fresh);
    EXPECT_EQ(fresh, want.dataBytes);
}

TEST(AllocFormat, FaultyZeroBitmapLinesEndTheFormatHealed)
{
    nvm::PoolConfig cfg = poolConfig(16 << 20);
    AllocHeader want = layoutOf(cfg);
    auto pool = nvm::Pool::create(cfg);
    pool->setFaultModel(
        std::make_unique<nvm::FaultModel>(nvm::FaultConfig{}));
    // A poisoned line and a line flipped back to zero (tainted): both
    // read zero, neither is trustworthy until rewritten.
    uint64_t poisoned = want.bitmapOff + 5 * 4096;
    uint64_t tainted = want.bitmapOff + 9 * 4096 + 64;
    pool->faults()->poisonAt(poisoned);
    pool->faults()->flipBit(*pool, tainted, 3);
    pool->faults()->flipBit(*pool, tainted, 3);
    ASSERT_TRUE(allZero(*pool, want.bitmapOff, want.bitmapBytes));
    PmAllocator heap(*pool);
    EXPECT_FALSE(pool->faults()->poisoned(poisoned, 64));
    EXPECT_FALSE(pool->isTainted(pool->at(tainted), 64));
    EXPECT_EQ(heap.quarantineCount(), 0u);
    EXPECT_EQ(heap.freeBytes(), want.dataBytes);
}

TEST(AllocFormat, VersionTwoPoolFailsToOpen)
{
    // A v2 pool's blocks carry 16-byte headers this layout cannot
    // read: Pool::open must refuse it before PmAllocator could ever
    // reformat its heap.
    std::string path = ::testing::TempDir() + "cnvm_v2_heap.pool";
    {
        nvm::PoolConfig cfg = poolConfig(4 << 20);
        cfg.path = path;
        auto pool = nvm::Pool::create(cfg);
        PmAllocator heap(*pool);
        uint64_t v2 = 2;
        pool->writeAt(offsetof(nvm::PoolHeader, version), &v2,
                      sizeof(v2));
        pool->persist(pool->at(offsetof(nvm::PoolHeader, version)),
                      sizeof(v2));
    }
    try {
        nvm::Pool::open(path);
        ADD_FAILURE() << "a version-2 pool opened";
    } catch (const nvm::PoolOpenError& e) {
        EXPECT_EQ(e.reason(), nvm::PoolOpenError::Reason::badVersion);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The word-stepping bitmap scanner against a per-granule reference.

struct ScanModel {
    std::unique_ptr<nvm::Pool> pool;
    /** Allocation bits as written, 32 bytes (256 granules) per line. */
    std::vector<uint8_t> bits;
    std::vector<std::pair<uint64_t, uint64_t>> quar;  ///< [lo, hi)
    uint64_t poisonedLine = 0;
    uint64_t nGranules = 0;
    uint64_t dataOff = 0;

    /** Same seed, same pool, bitmap, quarantine and poison. */
    explicit ScanModel(uint64_t seed)
    {
        Xorshift rng(seed);
        pool = nvm::Pool::create(
            poolConfig((4 << 20) + 16 * rng.nextUint(8192)));
        PmAllocator fmt(*pool);
        dataOff = fmt.dataOff();
        nGranules = fmt.dataBytes() / kGranule;
        // Quarantine entries inside one word and across words; the
        // last starts mid-granule (it covers every granule it
        // overlaps).
        for (int i = 0; i < 6; i++) {
            uint64_t len = i % 2 == 0 ? 1 + rng.nextUint(40)
                                      : 64 + rng.nextUint(400);
            uint64_t lo = dataOff +
                          rng.nextUint(nGranules - len - 1) * kGranule +
                          (i == 5 ? kGranule / 2 : 0);
            fmt.quarantine(lo, len * kGranule, kQuarCorruptBlock);
            quar.emplace_back(lo, lo + len * kGranule);
        }
        // Then overwrite the whole bitmap (quarantined bits included)
        // with stretches of all-ones, all-zero and mixed words; the
        // last line's bits past the data area are random too.
        uint64_t lines = (nGranules + kLineGranules - 1) / kLineGranules;
        bits.assign(lines * (kLineGranules / 8), 0);
        for (size_t w = 0; w * 8 < bits.size();) {
            uint64_t kind = rng.nextUint(3);
            for (uint64_t n = 1 + rng.nextUint(40);
                 n > 0 && w * 8 < bits.size(); n--, w++) {
                uint64_t v = kind == 0 ? ~0ULL
                             : kind == 1 ? 0
                                         : rng.next() & rng.next();
                size_t take = std::min<size_t>(8, bits.size() - w * 8);
                std::memcpy(bits.data() + w * 8, &v, take);
            }
        }
        // Interleave: each line's allocation half, then a random start
        // half the scan must ignore.
        std::vector<uint8_t> image(lines * kBitmapLine);
        for (uint64_t l = 0; l < lines; l++) {
            std::memcpy(image.data() + l * kBitmapLine,
                        bits.data() + l * kStartBitsOff, kStartBitsOff);
            for (uint64_t i = 0; i < kStartBitsOff; i++)
                image[l * kBitmapLine + kStartBitsOff + i] =
                    static_cast<uint8_t>(rng.next());
        }
        pool->writeAt(fmt.bitmapOff(), image.data(), image.size());
        pool->persist(pool->at(fmt.bitmapOff()), image.size());
        pool->setFaultModel(
            std::make_unique<nvm::FaultModel>(nvm::FaultConfig{}));
        poisonedLine = rng.nextUint(lines);
        pool->faults()->poisonAt(fmt.bitmapOff() +
                                 poisonedLine * kBitmapLine);
    }

    bool
    freeGranule(uint64_t g) const
    {
        if ((bits[g / 8] >> (g % 8)) & 1)
            return false;
        if (g / kLineGranules == poisonedLine)
            return false;
        uint64_t lo = dataOff + g * kGranule;
        for (const auto& [qlo, qhi] : quar) {
            if (lo < qhi && qlo < lo + kGranule)
                return false;
        }
        return true;
    }

    /** Maximal free runs, minus the given reserved block ranges. */
    std::map<uint64_t, uint64_t>
    expected(const std::vector<std::pair<uint64_t, uint64_t>>& reserved)
        const
    {
        std::vector<bool> taken(nGranules, false);
        for (const auto& [off, len] : reserved) {
            for (uint64_t g = (off - dataOff) / kGranule;
                 g < (off + len - dataOff) / kGranule; g++) {
                EXPECT_TRUE(freeGranule(g)) << "reserved granule " << g;
                taken[g] = true;
            }
        }
        std::map<uint64_t, uint64_t> out;
        uint64_t start = 0;
        bool inRun = false;
        for (uint64_t g = 0; g <= nGranules; g++) {
            bool isFree = g < nGranules && freeGranule(g) && !taken[g];
            if (isFree && !inRun) {
                start = g;
                inRun = true;
            } else if (!isFree && inRun) {
                out[dataOff + start * kGranule] = (g - start) * kGranule;
                inRun = false;
            }
        }
        return out;
    }

    void
    expectStats(const RebuildStats& st) const
    {
        uint64_t firstG = poisonedLine * kLineGranules;
        uint64_t lastG = std::min(firstG + kLineGranules, nGranules);
        EXPECT_EQ(st.poisonedChunks, 1u);
        EXPECT_EQ(st.quarantinedBlocks, 1u);
        EXPECT_EQ(st.quarantinedBytes, (lastG - firstG) * kGranule);
        EXPECT_FALSE(st.quarantineTableReset);
        EXPECT_FALSE(st.headerHealed);
    }
};

TEST(AllocScan, FullAndLazyScansMatchPerGranuleReference)
{
    for (uint64_t seed = 1; seed <= 16; seed++) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        {
            ScanModel m(seed);
            PmAllocator heap(*m.pool, /* deferRebuild */ true);
            RebuildStats st = heap.rebuild();
            m.expectStats(st);
            EXPECT_EQ(heap.freeMap(), m.expected({}));
            EXPECT_FALSE(heap.quarantineViolation());
        }
        {
            ScanModel m(seed);
            PmAllocator heap(*m.pool, /* deferRebuild */ true);
            Xorshift rng(seed * 7919);
            std::vector<std::pair<uint64_t, uint64_t>> reserved;
            bool done = false;
            while (!done) {
                if (rng.nextUint(3) == 0) {
                    uint64_t payload = 1 + rng.nextUint(3000);
                    uint64_t off = heap.reserve(payload);
                    reserved.emplace_back(off, (payload + kGranule - 1) /
                                                   kGranule * kGranule);
                } else {
                    done = heap.lazyStep(1 + rng.nextUint(40));
                }
            }
            auto want = m.expected(reserved);
            EXPECT_EQ(heap.freeMap(), want);
            // The final reconcile rescans and folds the lazy salvage.
            RebuildStats st = heap.rebuild(/* keepSession */ true);
            m.expectStats(st);
            EXPECT_EQ(heap.freeMap(), want);
            EXPECT_FALSE(heap.quarantineViolation());
        }
    }
}

}  // namespace
}  // namespace cnvm::alloc
