#include "nvm/cache_sim.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace cnvm::nvm {

namespace {

/**
 * Source of epoch values for every CacheSim in the process. Uniqueness
 * across sims is what lets DirtyLineCache ways omit an owner field: a
 * way tagged with some epoch can only validate against the one sim
 * whose current epoch it is.
 */
std::atomic<uint64_t> gEpochSource{0};

uint64_t
nextEpoch()
{
    return gEpochSource.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t
mixLine(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    return x;
}

}  // namespace

CacheSim::CacheSim(uint8_t* base) : base_(base), epoch_(nextEpoch()) {}

void
CacheSim::bumpEpoch()
{
    epoch_.store(nextEpoch(), std::memory_order_release);
}

CacheSim::Slot*
CacheSim::findSlot(Shard& sh, uint64_t ln)
{
    if (sh.slots.empty())
        return nullptr;
    size_t mask = sh.slots.size() - 1;
    size_t i = mixLine(ln) & mask;
    while (true) {
        Slot& s = sh.slots[i];
        if (s.key == 0)
            return nullptr;
        if (s.key == ln + 1)
            return &s;
        i = (i + 1) & mask;
    }
}

void
CacheSim::growShard(Shard& sh)
{
    size_t cap = sh.slots.empty() ? 64 : sh.slots.size() * 2;
    std::vector<Slot> old = std::move(sh.slots);
    sh.slots.assign(cap, Slot{});
    size_t mask = cap - 1;
    for (const Slot& s : old) {
        if (s.key == 0)
            continue;
        size_t i = mixLine(s.key - 1) & mask;
        while (sh.slots[i].key != 0)
            i = (i + 1) & mask;
        sh.slots[i] = s;
    }
}

void
CacheSim::eraseSlot(Shard& sh, Slot* s)
{
    // Backward-shift deletion: pull each later member of the probe
    // chain into the hole unless its home lies cyclically in
    // (hole, member], where moving it would put it before its home.
    size_t mask = sh.slots.size() - 1;
    size_t hole = static_cast<size_t>(s - sh.slots.data());
    size_t j = hole;
    while (true) {
        j = (j + 1) & mask;
        Slot& next = sh.slots[j];
        if (next.key == 0)
            break;
        size_t home = mixLine(next.key - 1) & mask;
        if (((j - home) & mask) >= ((j - hole) & mask)) {
            sh.slots[hole] = next;
            hole = j;
        }
    }
    sh.slots[hole].key = 0;
    sh.used--;
}

void
CacheSim::dirtyLocked(Shard& sh, uint64_t ln)
{
    if ((sh.used + 1) * 10 > sh.slots.size() * 7)
        growShard(sh);
    size_t mask = sh.slots.size() - 1;
    size_t i = mixLine(ln) & mask;
    while (true) {
        Slot& s = sh.slots[i];
        if (s.key == 0) {
            s.key = ln + 1;
            s.state = kDirty;
            std::memcpy(s.snapshot.data(), base_ + ln * kCacheLine,
                        kCacheLine);
            sh.used++;
            volatile_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        if (s.key == ln + 1) {
            // A new store re-dirties a clwb'd line; clwb without a
            // fence gives no durability, so the original snapshot
            // stays the revert target.
            s.state = kDirty;
            return;
        }
        i = (i + 1) & mask;
    }
}

void
CacheSim::willWriteSlow(uint64_t first, uint64_t last, uint64_t e,
                        DirtyLineCache& c)
{
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    uint64_t ln = first;
    while (ln <= last) {
        Shard& sh = shardOf(ln);
        std::lock_guard<std::mutex> g(sh.mu);
        do {
            if (obs != nullptr)
                obs->lineDirtied(ln);
            dirtyLocked(sh, ln);
            if (obs == nullptr) {
                // Tagging with the pre-lock epoch keeps the way safe:
                // if a flush/fence raced us, the current epoch already
                // moved past `e` and the way never validates.
                DirtyLineCache::Way& w =
                    c.ways[ln & (DirtyLineCache::kWays - 1)];
                w.line1 = ln + 1;
                w.epoch = e;
            }
            ln++;
        } while (ln <= last && &shardOf(ln) == &sh);
    }
}

void
CacheSim::flush(uint64_t off, size_t len)
{
    if (len == 0)
        return;
    uint64_t first = off / kCacheLine;
    uint64_t last = (off + len - 1) / kCacheLine;
    uint64_t nlines = last - first + 1;
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    uint64_t ln = first;
    while (ln <= last) {
        Shard& sh = shardOf(ln);
        std::lock_guard<std::mutex> g(sh.mu);
        do {
            Slot* s = findSlot(sh, ln);
            if (s != nullptr && s->state == kDirty) {
                s->state = kPending;
                if (sh.pending.empty())
                    markPending(sh);
                sh.pending.push_back(ln);
                if (obs != nullptr)
                    obs->lineFlushed(ln);
            }
            ln++;
        } while (ln <= last && &shardOf(ln) == &sh);
    }
    bumpEpoch();
    notifyFlush(nlines, nlines * kCacheLine);
}

void
CacheSim::flushLines(uint64_t* lines, size_t n)
{
    if (n == 0)
        return;
    std::sort(lines, lines + n);
    n = static_cast<size_t>(std::unique(lines, lines + n) - lines);
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    size_t i = 0;
    while (i < n) {
        Shard& sh = shardOf(lines[i]);
        std::lock_guard<std::mutex> g(sh.mu);
        do {
            uint64_t ln = lines[i];
            Slot* s = findSlot(sh, ln);
            if (s != nullptr && s->state == kDirty) {
                s->state = kPending;
                if (sh.pending.empty())
                    markPending(sh);
                sh.pending.push_back(ln);
                if (obs != nullptr)
                    obs->lineFlushed(ln);
            }
            i++;
        } while (i < n && &shardOf(lines[i]) == &sh);
    }
    bumpEpoch();
    // Adjacent lines coalesce into one clwb burst each; scattered
    // lines remain independent (overlapping) flushes for the timing
    // model, like back-to-back clwbs on hardware.
    size_t runStart = 0;
    for (size_t j = 1; j <= n; j++) {
        if (j == n || lines[j] != lines[j - 1] + 1) {
            uint64_t runLen = j - runStart;
            notifyFlush(runLen, runLen * kCacheLine);
            runStart = j;
        }
    }
}

void
CacheSim::fence()
{
    LineObserver* obs = lineObs_.load(std::memory_order_relaxed);
    // Only visit shards that took a clwb since the last fence; a
    // fence with nothing outstanding touches no locks at all.
    uint64_t mask =
        pendingShards_.exchange(0, std::memory_order_acq_rel);
    while (mask != 0) {
        auto idx = static_cast<size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        Shard& sh = shards_[idx];
        std::lock_guard<std::mutex> g(sh.mu);
        for (uint64_t ln : sh.pending) {
            Slot* s = findSlot(sh, ln);
            // A re-dirtied or doubly-listed (already erased) entry is
            // skipped; only a real pending line retires.
            if (s != nullptr && s->state == kPending) {
                eraseSlot(sh, s);
                volatile_.fetch_sub(1, std::memory_order_relaxed);
            }
        }
        sh.pending.clear();
    }
    bumpEpoch();
    if (obs != nullptr)
        obs->fenceRetired();
    notifyFence();
}

size_t
CacheSim::crashImpl(Xorshift* rng, const CrashParams& p)
{
    size_t reverted = 0;
    for (Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mu);
        for (Slot& s : sh.slots) {
            if (s.key == 0)
                continue;
            uint64_t ln = s.key - 1;
            uint8_t* mem = base_ + ln * kCacheLine;
            double survival = s.state == kPending ? p.pendingSurvival
                                                  : p.dirtySurvival;
            for (size_t w = 0; w < kCacheLine; w += 8) {
                bool survives =
                    rng != nullptr && rng->nextBool(survival);
                if (!survives) {
                    if (std::memcmp(mem + w, s.snapshot.data() + w,
                                    8) != 0) {
                        std::memcpy(mem + w, s.snapshot.data() + w, 8);
                        reverted++;
                    }
                }
            }
        }
        std::fill(sh.slots.begin(), sh.slots.end(), Slot{});
        sh.used = 0;
        sh.pending.clear();
    }
    volatile_.store(0, std::memory_order_relaxed);
    pendingShards_.store(0, std::memory_order_relaxed);
    crashes_.fetch_add(1, std::memory_order_relaxed);
    bumpEpoch();
    if (auto* obs = lineObs_.load(std::memory_order_relaxed))
        obs->trackingReset();
    return reverted;
}

size_t
CacheSim::crash(Xorshift& rng, const CrashParams& p)
{
    return crashImpl(&rng, p);
}

size_t
CacheSim::crashAllLost()
{
    CrashParams p;
    return crashImpl(nullptr, p);
}

bool
CacheSim::isVolatile(uint64_t line)
{
    Shard& sh = shardOf(line);
    std::lock_guard<std::mutex> g(sh.mu);
    Slot* s = findSlot(sh, line);
    return s != nullptr;
}

bool
CacheSim::anyVolatile(uint64_t off, size_t len)
{
    if (len == 0 || volatileLines() == 0)
        return false;
    uint64_t last = (off + len - 1) / kCacheLine;
    for (uint64_t ln = off / kCacheLine; ln <= last; ln++) {
        if (isVolatile(ln))
            return true;
    }
    return false;
}

size_t
CacheSim::maxShardSlots()
{
    size_t cap = 0;
    for (Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mu);
        cap = std::max(cap, sh.slots.size());
    }
    return cap;
}

void
CacheSim::discardAll()
{
    for (Shard& sh : shards_) {
        std::lock_guard<std::mutex> g(sh.mu);
        std::fill(sh.slots.begin(), sh.slots.end(), Slot{});
        sh.used = 0;
        sh.pending.clear();
    }
    volatile_.store(0, std::memory_order_relaxed);
    pendingShards_.store(0, std::memory_order_relaxed);
    bumpEpoch();
    if (auto* obs = lineObs_.load(std::memory_order_relaxed))
        obs->trackingReset();
}

void
CacheSim::setLineObserver(LineObserver* obs)
{
    lineObs_.store(obs, std::memory_order_relaxed);
    // Block the fast path: no way survives the bump, and no new ways
    // are inserted while an observer is present, so it sees every
    // subsequent transition.
    bumpEpoch();
}

}  // namespace cnvm::nvm
