/**
 * @file
 * Sparse functional memory backend.
 *
 * Stores simulated memory contents in 4 KiB frames allocated on first touch,
 * so a 256 GiB CXL expander costs host memory proportional to the bytes a
 * workload actually touches. This is the *functional* half of the memory
 * model; timing lives in dram/ and cache/.
 *
 * Hot-path design: the frame size is a static-asserted power of two so
 * offset/frame-number math is mask/shift; accesses that do not cross a
 * frame boundary (virtually all of them — scalar and 32 B vector accesses)
 * take an inline fast path; and a small direct-mapped cache of recently
 * touched frames short-circuits the hash probe for the streaming sweeps of
 * host set-up and verification. NDP kernels reach their frames through
 * their units' host TLBs instead.
 *
 * Thread safety (partitioned engine, sim/partition.hh): the frame table
 * is sharded by device window — shard = bits [41:38] of the physical
 * address — so each device partition's executor locks a different shard
 * mutex and the lock is effectively uncontended. Frames are
 * unique_ptr-held and never freed, so a pointer from framePointer() /
 * framePointerForWrite() stays valid for the memory's lifetime: the NDP
 * units' host TLBs (ndp/ndp_unit.hh) cache such pointers and use them
 * without taking any lock. Ordering of accesses to the *bytes* of a
 * shared frame is the simulation's own responsibility (cross-partition
 * messages synchronize through mailbox mutexes / the round barrier), the
 * same contract as any other cross-partition state.
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/log.hh"
#include "common/units.hh"

namespace m2ndp {

/** Byte-addressable sparse memory. Zero-filled on first touch. */
class SparseMemory
{
  public:
    static constexpr std::uint64_t kFrameSize = 4096;
    static constexpr std::uint64_t kFrameShift = 12;
    static constexpr std::uint64_t kFrameMask = kFrameSize - 1;
    static_assert((kFrameSize & (kFrameSize - 1)) == 0,
                  "frame size must be a power of two (mask/shift math)");
    static_assert(kFrameSize == std::uint64_t(1) << kFrameShift,
                  "frame shift inconsistent with frame size");

    void
    read(Addr addr, void *out, std::uint64_t size) const
    {
        std::uint64_t offset = addr & kFrameMask;
        if (offset + size <= kFrameSize) {
            // Single-frame fast path: one (usually cached) lookup.
            if (const Frame *frame = findFrame(addr >> kFrameShift))
                std::memcpy(out, frame->data() + offset, size);
            else
                std::memset(out, 0, size);
            return;
        }
        readSlow(addr, out, size);
    }

    void
    write(Addr addr, const void *in, std::uint64_t size)
    {
        std::uint64_t offset = addr & kFrameMask;
        if (offset + size <= kFrameSize) {
            std::memcpy(frameFor(addr >> kFrameShift).data() + offset, in,
                        size);
            return;
        }
        writeSlow(addr, in, size);
    }

    /** Typed scalar helpers (never cross a frame: size divides alignment
     *  only for aligned use, so they still route through the size check). */
    template <typename T>
    T
    read(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(Addr addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Number of frames currently allocated (for footprint stats). */
    std::size_t
    framesAllocated() const
    {
        std::size_t n = 0;
        for (const Shard &s : shards_) {
            std::lock_guard<std::mutex> lk(s.mu);
            n += s.frames.size();
        }
        return n;
    }

    /**
     * Host pointer to the first byte of the frame holding @p addr, or
     * nullptr if that frame was never written (reads must not allocate).
     * Frames are never freed, so the pointer stays valid.
     */
    std::uint8_t *
    framePointer(Addr addr) const
    {
        Frame *frame = findFrame(addr >> kFrameShift);
        return frame != nullptr ? frame->data() : nullptr;
    }

    /** framePointer(), allocating a zero-filled frame on first touch. */
    std::uint8_t *
    framePointerForWrite(Addr addr)
    {
        return frameFor(addr >> kFrameShift).data();
    }

  private:
    using Frame = std::array<std::uint8_t, kFrameSize>;

    /** Direct-mapped cache of recent frame lookups (per access stream:
     *  concurrent sequential streams index different ways as they advance,
     *  so host setup, NDP units, and verification rarely thrash). */
    static constexpr std::size_t kCacheWays = 8;

    /** Frame-table shards, one per 256 GiB device window (mod 16). */
    static constexpr std::size_t kShards = 16;
    static constexpr std::uint64_t kShardShift = 26; ///< frame_no bits

    struct CacheEntry
    {
        std::uint64_t frame_no = ~std::uint64_t(0);
        Frame *frame = nullptr; ///< stable: frames are unique_ptr-held
    };

    struct Shard
    {
        std::unordered_map<std::uint64_t, std::unique_ptr<Frame>> frames;
        std::array<CacheEntry, kCacheWays> cache{};
        mutable std::mutex mu;
    };

    Shard &
    shardFor(std::uint64_t frame_no) const
    {
        return shards_[(frame_no >> kShardShift) & (kShards - 1)];
    }

    /** Lookup without allocating; nullptr if the frame does not exist. */
    Frame *
    findFrame(std::uint64_t frame_no) const
    {
        Shard &s = shardFor(frame_no);
        std::lock_guard<std::mutex> lk(s.mu);
        CacheEntry &e = s.cache[frame_no & (kCacheWays - 1)];
        if (e.frame_no == frame_no)
            return e.frame;
        auto it = s.frames.find(frame_no);
        if (it == s.frames.end())
            return nullptr;
        e.frame_no = frame_no;
        e.frame = it->second.get();
        return e.frame;
    }

    /** Lookup, allocating a zero-filled frame on first touch. */
    Frame &
    frameFor(std::uint64_t frame_no)
    {
        Shard &s = shardFor(frame_no);
        std::lock_guard<std::mutex> lk(s.mu);
        CacheEntry &e = s.cache[frame_no & (kCacheWays - 1)];
        if (e.frame_no == frame_no)
            return *e.frame;
        auto it = s.frames.find(frame_no);
        if (it == s.frames.end()) {
            auto frame = std::make_unique<Frame>();
            frame->fill(0);
            it = s.frames.emplace(frame_no, std::move(frame)).first;
        }
        e.frame_no = frame_no;
        e.frame = it->second.get();
        return *e.frame;
    }

    void readSlow(Addr addr, void *out, std::uint64_t size) const;
    void writeSlow(Addr addr, const void *in, std::uint64_t size);

    mutable std::array<Shard, kShards> shards_;
};

/** Atomic memory operations executed at the memory-side L2 / scratchpad. */
enum class AmoOp : std::uint8_t {
    Add,
    Swap,
    And,
    Or,
    Xor,
    Max,
    Min,
    MaxU,
    MinU,
};

/**
 * Perform a RISC-V style AMO of the given width (4 or 8 bytes) on @p mem.
 * @return the original memory value (zero-extended to 64 bits).
 */
std::uint64_t amoExecute(SparseMemory &mem, AmoOp op, Addr addr,
                         std::uint64_t operand, unsigned width);

/**
 * Same AMO semantics applied to raw bytes at @p p (used for scratchpad
 * atomics, which bypass the sparse backend entirely).
 * @return the original value (zero-extended to 64 bits).
 */
std::uint64_t amoApply(void *p, AmoOp op, std::uint64_t operand,
                       unsigned width);

} // namespace m2ndp
