/**
 * @file
 * Registered NDP kernels and running kernel instances (Sections III-B/C/G).
 *
 * A kernel is registered once (ndpRegisterKernel) with its resource
 * declaration: scratchpad bytes and int/float/vector register counts, which
 * drive uthread-slot provisioning (Section III-D). Each launch takes a
 * pooled KernelInstance bound to a uthread pool region; the instance walks
 * through phases: initializer -> body(s) -> finalizer (Section III-G).
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/callback.hh"
#include "common/units.hh"
#include "isa/decoded.hh"
#include "isa/inst.hh"
#include "mem/page_table.hh"

namespace m2ndp {

/**
 * Completion hook of a kernel instance, called once with (result, tick):
 * the result is the instance id, or the instance's negative NdpError if it
 * faulted — the same shape as the host's LaunchCallback. Inline (48 B
 * SBO, move-only) so arming it on every warm launch never touches the
 * heap.
 */
using InstanceCompleteFn = InlineCallback<void(std::int64_t, Tick)>;

/** Resource declaration given at kernel registration (Table II). */
struct KernelResources
{
    std::uint32_t scratchpad_bytes = 0;
    std::uint8_t num_int_regs = 8;
    std::uint8_t num_float_regs = 0;
    std::uint8_t num_vector_regs = 0;

    /** Register bytes per uthread (drives slot provisioning). */
    std::uint64_t
    registerBytes() const
    {
        return static_cast<std::uint64_t>(num_int_regs) * 8 +
               static_cast<std::uint64_t>(num_float_regs) * 8 +
               static_cast<std::uint64_t>(num_vector_regs) * isa::kVlenBytes;
    }
};

/** A registered kernel. */
struct NdpKernel
{
    std::int64_t id = -1;
    Asid asid = 0;
    isa::AssembledKernel code;
    /** µop form, decoded once at registration; what the units execute. */
    isa::DecodedKernel decoded;
    KernelResources resources;
};

/** Instance execution phase. */
enum class InstancePhase : std::uint8_t {
    Pending,     ///< queued, waiting for resources
    Initializer,
    Body,
    Finalizer,
    Draining,    ///< all uthreads done, posted stores still in flight
};

/** Status codes returned by ndpPollKernelStatus (Table II). */
enum class KernelStatus : std::int64_t {
    Finished = 0,
    Running = 1,
    Pending = 2,
    /** Completed with an error (trap, watchdog kill). */
    Faulted = 3,
    /** No instance with the polled id (never launched, or no target). */
    Unknown = -1,
};

/**
 * One running (or queued) kernel launch: a record NdpController takes
 * from its SlabPool at launch and returns at completion.
 */
struct KernelInstance
{
    /** Controller pending FIFO / pool freelist link. */
    KernelInstance *next = nullptr;
    std::int64_t id = -1;
    const NdpKernel *kernel = nullptr;
    Asid asid = 0;

    Addr pool_base = 0;
    Addr pool_bound = 0;
    /** The kernel-argument window (%args), zero past the launch's args. */
    std::array<std::uint8_t, layout::kKernelArgWindow> args{};

    InstancePhase phase = InstancePhase::Pending;
    std::size_t section_index = 0; ///< current section in kernel->code

    /**
     * Weighted-round-robin share on the controller's pullWork cursor
     * (Section III-E fairness): an instance with weight w is served w
     * consecutive spawns before the cursor advances. Weight 1 (the
     * default) reproduces the original strict round robin exactly.
     */
    std::uint8_t weight = 1;

    /** Per-unit scratchpad data offset allocated for this instance. */
    std::uint64_t spad_offset = 0;

    /** Spawn bookkeeping for the current phase. */
    std::vector<std::uint64_t> next_work; ///< per unit; kept across reuse
    std::uint64_t spawned = 0;
    std::uint64_t completed = 0;
    std::uint64_t phase_target = 0;

    /** Posted stores still in flight (kernel completes when drained). */
    std::uint64_t outstanding_stores = 0;

    /**
     * First error observed (a negative NdpError value; 0 = clean). Set
     * by a uthread trap or a watchdog kill; once set, no further work
     * spawns and the instance drains to Done, completing with this code
     * instead of its instance id.
     */
    std::int64_t error = 0;

    /** Given to NdpController::launch; invoked once when the instance
     *  completes (possibly inside launch() for a degenerate one). */
    InstanceCompleteFn on_complete;
};

} // namespace m2ndp
