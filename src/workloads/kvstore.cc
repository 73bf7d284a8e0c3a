#include "workloads/kvstore.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace m2ndp::workloads {

namespace {

/** Node layout: key[24] | next[8] | value[64] | pad -> 128 B. */
constexpr std::uint64_t kNodeBytes = 128;
constexpr std::uint64_t kKeyOff = 0;
constexpr std::uint64_t kNextOff = 24;
constexpr std::uint64_t kValueOff = 32;
/** Response slot: value[64] | status[8] @96 -> 128 B. */
constexpr std::uint64_t kSlotBytes = 128;
constexpr std::uint64_t kStatusOff = 96;

/** Host-side hash computation cost per request (Section IV-B). */
constexpr Tick kHashCost = 200 * kNs;

/**
 * GET: walk the chain, compare the 24 B key, copy the 64 B value into the
 * response slot (the uthread pool region). args: [0]=bucket addr,
 * [8..31]=key. One uthread per request (fine-grained NDP).
 */
const char *kGetKernel = R"(
    .name kvs_get
    li   x3, %args
    ld   x4, 0(x3)
    ld   x5, 8(x3)
    ld   x6, 16(x3)
    ld   x7, 24(x3)
    ld   x8, 0(x4)         # head node VA
walk:
    beq  x8, x0, notfound
    ld   x9, 0(x8)
    bne  x9, x5, next
    ld   x9, 8(x8)
    bne  x9, x6, next
    ld   x9, 16(x8)
    bne  x9, x7, next
    vsetvli x0, x0, e64, m1
    vle64.v v1, 32(x8)
    vse64.v v1, 0(x1)
    vle64.v v2, 64(x8)
    vse64.v v2, 32(x1)
    li   x9, 1
    sd   x9, 96(x1)
    exit
next:
    ld   x8, 24(x8)
    j walk
notfound:
    li   x9, -1
    sd   x9, 96(x1)
)";

/** SET: walk the chain, overwrite the value with the slot contents. */
const char *kSetKernel = R"(
    .name kvs_set
    li   x3, %args
    ld   x4, 0(x3)
    ld   x5, 8(x3)
    ld   x6, 16(x3)
    ld   x7, 24(x3)
    ld   x8, 0(x4)
walk:
    beq  x8, x0, notfound
    ld   x9, 0(x8)
    bne  x9, x5, next
    ld   x9, 8(x8)
    bne  x9, x6, next
    ld   x9, 16(x8)
    bne  x9, x7, next
    vsetvli x0, x0, e64, m1
    vle64.v v1, 0(x1)
    vse64.v v1, 32(x8)
    vle64.v v2, 32(x1)
    vse64.v v2, 64(x8)
    li   x9, 1
    sd   x9, 96(x1)
    exit
next:
    ld   x8, 24(x8)
    j walk
notfound:
    li   x9, -1
    sd   x9, 96(x1)
)";

std::array<std::uint64_t, 3>
keyParts(std::uint64_t rank)
{
    return {mixHash64(rank * 3 + 1), mixHash64(rank * 3 + 2),
            mixHash64(rank * 3 + 3)};
}

std::uint64_t
valuePattern(std::uint64_t rank, unsigned version)
{
    return mixHash64(rank ^ (static_cast<std::uint64_t>(version) << 56));
}

} // namespace

KvstoreWorkload::KvstoreWorkload(System &sys, ProcessAddressSpace &proc,
                                 KvstoreConfig cfg)
    : sys_(sys), proc_(proc), cfg_(cfg)
{
}

std::uint64_t
KvstoreWorkload::keyHash(std::uint64_t rank) const
{
    return mixHash64(rank * 0x517cc1b727220a95ull) % cfg_.num_buckets;
}

Addr
KvstoreWorkload::bucketAddr(std::uint64_t hash) const
{
    return buckets_va_ + hash * 8;
}

void
KvstoreWorkload::setup()
{
    buckets_va_ = proc_.allocate(cfg_.num_buckets * 8 + 64);
    nodes_va_ = proc_.allocate(cfg_.num_items * kNodeBytes + 64);
    resp_va_ = proc_.allocate(
        static_cast<std::uint64_t>(cfg_.num_requests) * kSlotBytes + 64);

    // Chain heads: last inserted item becomes the head.
    std::vector<std::uint64_t> heads(cfg_.num_buckets, 0);
    chain_depth_.assign(cfg_.num_items, 0);
    std::vector<std::uint64_t> bucket_len(cfg_.num_buckets, 0);

    for (std::uint64_t rank = 0; rank < cfg_.num_items; ++rank) {
        std::uint64_t h = keyHash(rank);
        Addr node = nodes_va_ + rank * kNodeBytes;
        auto key = keyParts(rank);
        sys_.writeVirtual(proc_, node + kKeyOff, key.data(), 24);
        sys_.writeVirtual<std::uint64_t>(proc_, node + kNextOff, heads[h]);
        std::uint64_t v0 = valuePattern(rank, 0);
        for (unsigned w = 0; w < 8; ++w) {
            sys_.writeVirtual<std::uint64_t>(
                proc_, node + kValueOff + w * 8, v0 + w);
        }
        // This node becomes the head; everything already in the chain is
        // one hop deeper -> this key has depth 0 now, older keys deeper.
        chain_depth_[rank] = 0;
        heads[h] = node;
        ++bucket_len[h];
    }
    // Depth of rank r = items inserted after it in the same bucket (the
    // chain head is the last-inserted item).
    std::vector<std::uint64_t> seen(cfg_.num_buckets, 0);
    for (std::uint64_t rank = cfg_.num_items; rank-- > 0;) {
        std::uint64_t h = keyHash(rank);
        chain_depth_[rank] = seen[h];
        ++seen[h];
    }
    sys_.writeVirtual(proc_, buckets_va_, heads.data(),
                      cfg_.num_buckets * 8);
}

std::vector<KvstoreWorkload::Request>
KvstoreWorkload::makeTrace() const
{
    std::vector<Request> trace;
    trace.reserve(cfg_.num_requests);
    ZipfianGenerator zipf(cfg_.num_items, 0.99, cfg_.seed);
    Rng rng(cfg_.seed ^ 0xABCD);
    Tick arrival = 0;
    double mean_gap =
        cfg_.arrival_rate > 0.0 ? 1e12 / cfg_.arrival_rate : 0.0;
    for (unsigned i = 0; i < cfg_.num_requests; ++i) {
        Request r;
        r.is_get = rng.nextDouble() < cfg_.get_fraction;
        r.key_rank = zipf.next();
        if (cfg_.arrival_rate > 0.0)
            arrival += static_cast<Tick>(rng.nextExponential(mean_gap));
        r.arrival = arrival;
        trace.push_back(r);
    }
    return trace;
}

KvstoreResult
KvstoreWorkload::runNdp(NdpRuntime &rt)
{
    KernelResources res;
    res.num_int_regs = 10;
    res.num_vector_regs = 3;
    std::int64_t get_kid = rt.registerKernel(kGetKernel, res);
    std::int64_t set_kid = rt.registerKernel(kSetKernel, res);
    M2_ASSERT(get_kid > 0 && set_kid > 0, "kvs kernel registration failed");

    auto trace = makeTrace();
    auto &eq = sys_.eq();
    KvstoreResult result;
    unsigned completed = 0;
    Tick first = kTickMax, last = 0;
    const Tick base = eq.now();

    // In-flight cap for the closed-loop mode (models 16 server threads).
    const unsigned kClosedLoopWindow = 16;
    unsigned next_req = 0;
    unsigned in_flight = 0;

    // One stream per client connection: requests round-robin over the
    // pool, so up to kStreams kernels are in flight concurrently while
    // each stream stays in order (Section III-C, MPS-style concurrency).
    constexpr unsigned kStreams = kM2FuncLaunchSlots;
    std::vector<NdpStream *> streams;
    for (unsigned s = 0; s < kStreams; ++s)
        streams.push_back(&rt.createStream());

    std::function<void()> launch_next = [&]() {
        while (next_req < trace.size() &&
               (cfg_.arrival_rate > 0.0 || in_flight < kClosedLoopWindow)) {
            const Request &req = trace[next_req];
            Tick arrival = base + req.arrival;
            if (cfg_.arrival_rate > 0.0 && arrival > eq.now()) {
                // Open loop: wait for the next arrival.
                eq.schedule(arrival, [&] { launch_next(); });
                return;
            }
            unsigned idx = next_req++;
            ++in_flight;
            Addr slot = resp_va_ + static_cast<std::uint64_t>(idx) *
                                       kSlotBytes;
            auto key = keyParts(req.key_rank);
            Addr bucket = bucketAddr(keyHash(req.key_rank));
            Tick t0 = std::max(eq.now(), arrival);
            bool is_get = req.is_get;
            std::uint64_t rank = req.key_rank;

            // Host computes the hash, then issues the offload.
            eq.schedule(t0 + kHashCost, [&, idx, slot, key, bucket, t0,
                                         is_get, rank] {
                NdpStream &stream = *streams[idx % streams.size()];
                auto on_done = [&, slot, t0, is_get](std::int64_t iid,
                                                     Tick) {
                    (void)iid;
                    auto finish = [&, t0](Tick t_end) {
                        result.latency_ns.add(
                            static_cast<double>(t_end - t0) / kNs);
                        first = std::min(first, t0);
                        last = std::max(last, t_end);
                        ++completed;
                        --in_flight;
                        launch_next();
                    };
                    if (is_get) {
                        // Fetch the 64 B value from the response slot.
                        auto slot_pa = proc_.translate(slot);
                        rt.port().readAsync(*slot_pa, 64,
                                            [finish](Tick t) { finish(t); });
                    } else {
                        finish(eq.now());
                    }
                };
                if (is_get) {
                    stream
                        .launch(makeLaunch(get_kid, slot, slot + 32,
                                           {bucket, key[0], key[1],
                                            key[2]}))
                        .onComplete(std::move(on_done));
                } else {
                    // SET ships the new value into the slot first.
                    std::uint8_t val[64];
                    std::uint64_t v1 = valuePattern(rank, 1);
                    for (unsigned w = 0; w < 8; ++w) {
                        std::uint64_t word = v1 + w;
                        std::memcpy(val + w * 8, &word, 8);
                    }
                    auto slot_pa = proc_.translate(slot);
                    LaunchDesc desc = makeLaunch(
                        set_kid, slot, slot + 32,
                        {bucket, key[0], key[1], key[2]});
                    rt.port().writeAsync(
                        *slot_pa, val, 64,
                        [&, desc, on_done, idx](Tick) mutable {
                            NdpStream &s = *streams[idx % streams.size()];
                            s.launch(desc).onComplete(std::move(on_done));
                        });
                }
            });
            if (cfg_.arrival_rate > 0.0)
                continue; // open loop: issue all due arrivals
        }
    };

    launch_next();
    sys_.run();

    result.completed = completed;
    result.throughput_rps =
        completed > 0 && last > first
            ? static_cast<double>(completed) / ticksToSeconds(last - first)
            : 0.0;

    // Verify a sample of GET responses.
    result.verified = true;
    unsigned checked = 0;
    for (unsigned i = 0; i < trace.size() && checked < 64; ++i) {
        if (!trace[i].is_get)
            continue;
        Addr slot = resp_va_ + static_cast<std::uint64_t>(i) * kSlotBytes;
        auto status = sys_.readVirtual<std::int64_t>(proc_,
                                                     slot + kStatusOff);
        if (status != 1) {
            result.verified = false;
            break;
        }
        auto word = sys_.readVirtual<std::uint64_t>(proc_, slot);
        std::uint64_t rank = trace[i].key_rank;
        if (word != valuePattern(rank, 0) &&
            word != valuePattern(rank, 1)) {
            result.verified = false;
            break;
        }
        ++checked;
    }
    return result;
}

KvstoreResult
KvstoreWorkload::runHostBaseline(HostCxlPort &port)
{
    auto trace = makeTrace();
    auto &eq = sys_.eq();
    KvstoreResult result;
    unsigned completed = 0;
    Tick first = kTickMax, last = 0;
    const Tick base = eq.now();
    const unsigned kClosedLoopWindow = 16;
    unsigned next_req = 0;
    unsigned in_flight = 0;

    // Per-request chain-walk state, sized once: the dependent-read
    // callbacks carry a pointer into it rather than owning the walk.
    struct Walk
    {
        Addr node_pa;
        Addr bucket_pa;
        Tick t0;
        std::uint64_t rank;
        unsigned hops;
        bool is_get;
    };
    std::vector<Walk> walks(trace.size());

    std::function<void()> launch_next;
    auto finish = [&](const Walk &w, Tick t_end) {
        result.latency_ns.add(static_cast<double>(t_end - w.t0) / kNs);
        first = std::min(first, w.t0);
        last = std::max(last, t_end);
        ++completed;
        --in_flight;
        launch_next();
    };

    // Chain of dependent reads (bucket head, then per-node keys), then
    // the 64 B value read/write; @p remaining counts the reads left.
    std::function<void(const Walk &, unsigned)> step =
        [&](const Walk &w, unsigned remaining) {
            if (remaining == 0) {
                if (w.is_get) {
                    port.readAsync(w.node_pa + kValueOff, 64,
                                   [&finish, &w](Tick t) { finish(w, t); });
                } else {
                    // Same updated-value pattern the NDP SET writes, so
                    // later runs over the same table still verify.
                    std::uint8_t val[64];
                    std::uint64_t v1 = valuePattern(w.rank, 1);
                    for (unsigned i = 0; i < 8; ++i) {
                        std::uint64_t word = v1 + i;
                        std::memcpy(val + i * 8, &word, 8);
                    }
                    port.writeAsync(w.node_pa + kValueOff, val, 64,
                                    [&finish, &w](Tick t) { finish(w, t); });
                }
                return;
            }
            Addr a = remaining == w.hops ? w.bucket_pa : w.node_pa + kKeyOff;
            port.readAsync(a, 32, [&step, &w, remaining](Tick) {
                step(w, remaining - 1);
            });
        };

    launch_next = [&]() {
        while (next_req < trace.size() &&
               (cfg_.arrival_rate > 0.0 || in_flight < kClosedLoopWindow)) {
            const Request &req = trace[next_req];
            Tick arrival = base + req.arrival;
            if (cfg_.arrival_rate > 0.0 && arrival > eq.now()) {
                eq.schedule(arrival, [&] { launch_next(); });
                return;
            }
            Walk &w = walks[next_req++];
            ++in_flight;
            w.t0 = std::max(eq.now(), arrival);
            w.rank = req.key_rank;
            w.is_get = req.is_get;
            w.hops = static_cast<unsigned>(chain_depth_[w.rank]) + 1;
            w.node_pa = *proc_.translate(nodes_va_ + w.rank * kNodeBytes);
            w.bucket_pa = *proc_.translate(bucketAddr(keyHash(w.rank)));
            eq.schedule(w.t0 + kHashCost, [&step, &w] { step(w, w.hops); });
        }
    };

    launch_next();
    sys_.run();
    result.completed = completed;
    result.throughput_rps =
        completed > 0 && last > first
            ? static_cast<double>(completed) / ticksToSeconds(last - first)
            : 0.0;
    result.verified = true;
    return result;
}

} // namespace m2ndp::workloads
