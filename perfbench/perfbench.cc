/**
 * @file
 * Benchmark driver: runs one paper workload through the simulator's
 * public API and prints everything it measured as one JSON document on
 * stdout. perfbench/run.py builds this program, turns the document into
 * the benchmark's metrics, checks it against earlier runs and writes the
 * trace file.
 *
 *   perfbench --workload <olap_q6|pgrank|kvs_a|dlrm_4dev> --seed <n>
 *             --seconds <s> --trace <0|1>
 *
 * One *rep* builds a fresh System, generates and uploads the input,
 * optionally warms the modelled caches, then runs the measured NDP region
 * and reads every stats accessor before and after it. Every rep of a
 * seed must produce the same simulated values, for any thread count.
 * Each timed step records wall time and the calling thread's CPU time;
 * with one executor thread the CPU time is the whole simulation's, and it
 * does not count the time the runner spends on other processes.
 *
 * --trace 0 runs reps on one executor thread for about --seconds. --trace 1
 * runs one untraced rep, for dlrm_4dev one more on 2 executor threads
 * (the parallel speedup), and then one traced rep, which records a span
 * around each public call and turns on the hotpath counters for the
 * measured region (they are plain globals, so it runs one thread).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hotpath_timer.hh"
#include "host/cpu_model.hh"
#include "host/gpu_model.hh"
#include "mem/packet.hh"
#include "system/system.hh"
#include "workloads/dlrm.hh"
#include "workloads/graph.hh"
#include "workloads/kvstore.hh"
#include "workloads/olap.hh"

using namespace m2ndp;
using namespace m2ndp::workloads;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU time of the calling thread (user + system). */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Host time of one step, or the sum over several. */
struct Times
{
    double wall = 0.0;
    double cpu = 0.0;
};

// ------------------------------------------------------------------ spans

struct Span
{
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    int id = 0;
    int parent = -1;
};

/** In-memory span recorder; off unless the rep is traced. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    bool on = false;

    int
    open(const std::string &name)
    {
        if (!on)
            return -1;
        Span s;
        s.name = name;
        s.start_us = secondsBetween(origin_, Clock::now()) * 1e6;
        s.id = static_cast<int>(spans_.size());
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(s);
        stack_.push_back(s.id);
        return s.id;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.dur_us = secondsBetween(origin_, Clock::now()) * 1e6 - s.start_us;
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Records the scope as a span and adds its host times to @p sink. */
class Timed
{
  public:
    Timed(Tracer &t, const std::string &name, Times *sink = nullptr)
        : tracer_(t), sink_(sink), id_(t.open(name)), t0_(Clock::now()),
          cpu0_(threadCpuSeconds())
    {
    }

    ~Timed()
    {
        if (sink_ != nullptr) {
            sink_->wall += secondsBetween(t0_, Clock::now());
            sink_->cpu += threadCpuSeconds() - cpu0_;
        }
        tracer_.close(id_);
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Tracer &tracer_;
    Times *sink_;
    int id_;
    Clock::time_point t0_;
    double cpu0_;
};

// --------------------------------------------------------------- counters

/**
 * Every simulated counter the public stats accessors expose, summed over
 * devices. Values are monotone except the gauges listed in kGauges, so a
 * region's counters are after minus before.
 */
using Counters = std::map<std::string, std::uint64_t>;

const char *const kGauges[] = {"runtime.peak_in_flight", "mem.frames",
                               "ndp.subcores_per_unit"};

void
addCache(Counters &c, const std::string &prefix, const CacheStats &s)
{
    c[prefix + ".accesses"] += s.read_hits + s.read_misses + s.write_hits +
                               s.write_misses;
    c[prefix + ".misses"] += s.read_misses + s.write_misses;
    c[prefix + ".atomics"] += s.atomics;
    c[prefix + ".fills"] += s.fills;
    c[prefix + ".writebacks"] += s.writebacks;
    c[prefix + ".mshr_merges"] += s.mshr_merges;
    c[prefix + ".mshr_stalls"] += s.mshr_stalls;
    c[prefix + ".miss_forwards"] += s.miss_forwards;
    c[prefix + ".miss_path_packets"] += s.miss_path_packets;
}

Counters
readCounters(System &sys, const NdpRuntime &rt)
{
    Counters c;
    for (unsigned d = 0; d < sys.numDevices(); ++d) {
        CxlMemoryExpander &dev = sys.device(d);
        NdpUnitStats u = dev.aggregateUnitStats();
        c["ndp.instructions"] += u.instructions;
        c["ndp.uthreads_completed"] += u.uthreads_completed;
        c["ndp.issue_cycles"] += u.issue_cycles;
        c["ndp.active_cycles"] += u.active_cycles;
        c["ndp.occupancy_integral"] += u.occupancy_integral;
        c["ndp.stall_mem_wait"] += u.stall_mem_wait;
        c["ndp.load_latency_ticks"] += u.load_latency_ticks;
        c["ndp.load_samples"] += u.load_samples;
        c["ndp.traps"] += u.traps_unmapped + u.traps_spad_oob;
        c["ndp.uthreads_killed"] += u.uthreads_killed;
        c["ndp.subcores_per_unit"] = dev.config().unit.subcores;
        for (unsigned i = 0; i < dev.config().num_units; ++i) {
            const TlbStats &t = dev.unit(i).dtlbStats();
            c["dtlb.hits"] += t.hits;
            c["dtlb.misses"] += t.misses;
            c["dtlb.fast_hits"] += t.fast_hits;
            addCache(c, "l1", dev.l1dCache(i).stats());
        }
        for (unsigned i = 0; i < dev.numL2Slices(); ++i)
            addCache(c, "l2", dev.l2Slice(i).stats());
        const CrossbarStats &x = dev.requestNoc().stats();
        c["noc.flits"] += x.flits;
        c["noc.bytes"] += x.bytes;
        c["noc.queueing_ticks"] += x.total_queueing;
        DramStats m = dev.dram().totalStats();
        c["dram.reads"] += m.reads;
        c["dram.writes"] += m.writes;
        c["dram.row_hits"] += m.row_hits;
        c["dram.row_misses"] += m.row_misses;
        c["dram.bytes"] += m.bytes;
        c["dram.busy_ticks"] += m.busy_ticks;
        const DeviceStats &ds = dev.deviceStats();
        c["device.host_reads"] += ds.host_reads;
        c["device.host_writes"] += ds.host_writes;
        c["device.m2func_calls"] += ds.m2func_calls;
        c["device.m2func_batched_stores"] += ds.m2func_batched_stores;
        for (CxlDirection *dir : {&sys.link(d).down(), &sys.link(d).up()}) {
            c["cxl.messages"] += dir->stats().messages;
            c["cxl.bytes"] += dir->stats().bytes;
            c["cxl.queueing_ticks"] += dir->stats().queueing;
        }
        const HostPortStats &h = sys.host(d).stats();
        c["host.reads"] += h.reads;
        c["host.writes"] += h.writes;
        c["host.link_aborts"] += h.link_aborts;
    }
    const NdpRuntimeStats &r = rt.stats();
    c["runtime.launches"] = r.launches;
    c["runtime.completions"] = r.completions;
    c["runtime.polls"] = r.polls;
    c["runtime.peak_in_flight"] = r.peak_in_flight;
    c["runtime.faulted_completions"] = r.faulted_completions;
    c["runtime.aborted_launches"] = r.aborted_launches;
    c["runtime.overload_rejections"] = r.overload_rejections;
    c["runtime.deadline_shed"] = r.deadline_shed;
    c["runtime.batched_stores"] = r.batched_stores;
    c["sim.events"] = sys.totalEventsScheduled();
    c["sim.now_ticks"] = sys.eq().now();
    c["mem.frames"] = sys.mem().framesAllocated();
    return c;
}

Counters
regionDelta(const Counters &before, const Counters &after)
{
    Counters d;
    for (const auto &[k, v] : after) {
        auto it = before.find(k);
        d[k] = v - (it == before.end() ? 0 : it->second);
    }
    for (const char *g : kGauges)
        d[g] = after.at(g);
    return d;
}

// -------------------------------------------------------------- workloads

/** One rep: host times, simulated values and operation accounting. */
struct Rep
{
    bool traced = false;
    bool setup_only = false; ///< stop after setup(): a set-up sample only
    unsigned threads = 1;
    Times construct;
    Times generate;
    Times setup_call;
    Times warm;
    Times run; ///< the measured region: runNdp
    Times baseline;
    Times stats;
    Times whole; ///< the whole rep

    bool verified = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Simulated values: identical for every rep and thread count. */
    Counters sim;
    std::uint64_t checksum = 0;
    double region_ps = 0.0; ///< simulated time of the measured region
    double headline_runtime_ps = 0.0;
    /** Simulated latency of the region's operations (ns). */
    double req_p50_ns = 0.0, req_p99_ns = 0.0;
    std::uint64_t req_samples = 0;

    /** Host-side counts (not simulated state; thread-dependent). */
    std::uint64_t packet_allocs = 0;
    std::uint64_t hot_issue = 0, hot_fill = 0, hot_functional = 0,
                  hot_total = 0;

    /** CPU seconds of set-up: construction, generation and setup(). */
    double
    setupSeconds() const
    {
        return construct.cpu + generate.cpu + setup_call.cpu;
    }
};

/**
 * What a workload's speedup and paper_err are taken against. Every field
 * is simulated or modelled, so a recomputation must match exactly.
 */
struct Baseline
{
    double runtime_ps = 0.0;   ///< the baseline's runtime (kvs_a: its p95)
    std::uint64_t samples = 0; ///< kvs_a: baseline requests measured
    bool ok = true;            ///< the baseline's own run completed
    /** dlrm_4dev: Fig. 10c's one-device point, M2NDP and GPU model. */
    double fig_m2ndp_ps = 0.0;
    double fig_gpu_ps = 0.0;

    bool operator==(const Baseline &) const = default;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

constexpr std::uint64_t kOlapRows = 2'000'000;
constexpr std::uint32_t kPgrankNodes = 299'067; // Table V
constexpr std::uint64_t kPgrankEdges = 7ull * kPgrankNodes;
constexpr std::uint64_t kKvsItems = 200'000;
constexpr unsigned kKvsRequests = 40'000;
constexpr unsigned kDlrmDevices = 4;
constexpr unsigned kDlrmBatch = 256;
/** Fig. 10c's DLRM table; dlrm_4dev gives each device a shard this big. */
constexpr std::uint64_t kDlrmRows = 50'000;
/** Fig. 10c's DLRM input uses DlrmConfig's default seed. */
constexpr std::uint64_t kDlrmFigureSeed = DlrmConfig{}.seed;

/** Static facts about each workload: sizes, cache state, paper figure. */
struct WorkloadInfo
{
    const char *name;
    const char *input;
    const char *cache_state;
    const char *figure;
    const char *series;
    double paper;
    const char *seed_use;
};

const WorkloadInfo kWorkloads[] = {
    {"olap_q6",
     "TPC-H Q6 Evaluate, 2,000,000 rows, 3 int32 predicate columns",
     "cold: a fresh System per rep, caches empty; the 24 MB of columns "
     "stream through once, far beyond the 4 MB of L2",
     "Fig. 10a", "TPC-H Q6 M2NDP Evaluate speedup over the CPU baseline",
     74.0,
     "none: OlapWorkload::setup() draws its columns from a fixed Rng(31), "
     "so the seed does not change the input"},
    {"pgrank",
     "one PageRank iteration, uniform graph, 299,067 nodes, 2,093,469 "
     "edges (Table V size)",
     "cold: a fresh System per rep, caches empty (one iteration, as in "
     "Fig. 10c)",
     "Fig. 10c", "PGRANK M2NDP speedup over the GPU baseline", 6.0,
     "generateUniform(nodes, edges, seed)"},
    {"kvs_a",
     "YCSB-A (50% GET / 50% SET), Zipfian 0.99 keys, 200,000 items, "
     "40,000 buckets, 40,000 closed-loop requests, 16 in flight",
     "warm: one full pass of the same request trace runs before the "
     "measured pass, on the NDP system and on the host-walk baseline "
     "system alike. A long-running KV server serves a stable popularity "
     "distribution, so its device caches already hold the hot keys",
     "Fig. 10b", "KVS_A M2func p95 latency improvement over the host walk",
     1.39, "KvstoreConfig::seed (request trace)"},
    {"dlrm_4dev",
     "DLRM SLS batch 256, 80 lookups per request, 256-dim FP32 rows, "
     "table of 4 x 50,000 rows sharded over 4 devices",
     "cold: a fresh System per rep, caches empty",
     "Fig. 10c",
     "DLRM(SLS)-B256 M2NDP speedup over the GPU baseline, at Fig. 10c's "
     "own input on one device (50,000 rows, seed 5). The paper has no "
     "4-device point: Fig. 12b gives only the value at 8 devices",
     6.7,
     "DlrmConfig::seed (Zipfian lookup indices) of the 4-device run; the "
     "Fig. 10c point keeps the figure's seed, so paper_err does not vary "
     "with the seed"},
};

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** A System per Table IV with one process and its runtime. */
struct Sim
{
    std::unique_ptr<System> sys;
    ProcessAddressSpace *proc = nullptr;
    std::unique_ptr<NdpRuntime> rt; ///< destroyed before the System
};

Sim
buildSim(unsigned devices, unsigned threads)
{
    SystemConfig cfg;
    cfg.link = SystemConfig::linkForLoadToUse(150 * kNs);
    cfg.num_devices = devices;
    cfg.threads = threads;
    Sim s;
    s.sys = std::make_unique<System>(cfg);
    s.proc = &s.sys->createProcess();
    s.rt = s.sys->createRuntime(*s.proc); // M2func offload
    return s;
}

/** Runs reps of one workload; each rep builds everything it uses. */
class Driver
{
  public:
    Driver(const Options &o, Tracer &t) : opt_(o), tr_(t) {}

    Rep
    rep(bool traced, unsigned threads, bool setup_only = false)
    {
        Rep r;
        r.traced = traced;
        r.setup_only = setup_only;
        r.threads = threads;
        tr_.on = traced;
        {
            Timed whole(tr_, "rep", &r.whole);
            if (opt_.workload == "olap_q6")
                olap(r);
            else if (opt_.workload == "pgrank")
                pgrank(r);
            else if (opt_.workload == "kvs_a")
                kvs(r);
            else
                dlrm(r);
        }
        tr_.on = false;
        return r;
    }

    const Baseline &baseline() const { return *base_; }
    /** A recomputed baseline differed from the first one. */
    bool baselineMismatch() const { return baseline_mismatch_; }
    /** Peak RSS of the first rep up to the end of its measured region. */
    long peakRssKb() const { return peak_rss_kb_; }

  private:
    Sim
    build(Rep &r, unsigned devices)
    {
        Timed t(tr_, "System+runtime", &r.construct);
        return buildSim(devices, r.threads);
    }

    /** Computed in the first rep, and again in the traced rep (which
     *  records its spans and checks that it repeats). The first rep is
     *  the process's first work, so the RSS high-water mark taken before
     *  its baseline covers one workload run and no baseline system. */
    void
    baseline(Rep &r, const std::function<Baseline()> &compute)
    {
        if (!base_) {
            struct rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_rss_kb_ = ru.ru_maxrss;
        }
        if (base_ && !r.traced)
            return;
        Timed t(tr_, "baseline", &r.baseline);
        Baseline b = compute();
        if (base_ && !(b == *base_))
            baseline_mismatch_ = true;
        base_ = b;
    }

    /** The measured region: @p region with the stats reads around it and,
     *  in the traced rep, the hotpath counters on. */
    template <typename F>
    void
    measure(Rep &r, Sim &s, F region)
    {
        Counters before;
        {
            Timed t(tr_, "stats.read", &r.stats);
            before = readCounters(*s.sys, *s.rt);
        }
        std::uint64_t allocs0 = MemPacketPool::allocCount();
        if (r.traced) {
            hotpath::g.resetCounters();
            hotpath::g.enabled = true;
        }
        {
            Timed t(tr_, "runNdp", &r.run);
            hotpath::Scope total(hotpath::g.total);
            region();
        }
        if (r.traced) {
            hotpath::g.enabled = false;
            r.hot_issue = hotpath::g.issue;
            r.hot_fill = hotpath::g.fill;
            r.hot_functional = hotpath::g.functional;
            r.hot_total = hotpath::g.total;
        }
        r.packet_allocs = MemPacketPool::allocCount() - allocs0;
        {
            Timed t(tr_, "stats.read", &r.stats);
            r.sim = regionDelta(before, readCounters(*s.sys, *s.rt));
            r.checksum = s.sys->engineChecksum();
            // Histograms do not merge, so multi-device systems report
            // device 0's host port. kvs_a replaces these with requests.
            const Histogram &h = s.sys->host(0).stats().read_latency;
            r.req_p50_ns = h.percentile(50);
            r.req_p99_ns = h.percentile(99);
            r.req_samples = h.count();
        }
        r.region_ps = static_cast<double>(r.sim.at("sim.now_ticks"));
        // Operations are kernel launches; one that never completes failed.
        const Counters &c = r.sim;
        r.attempted = c.at("runtime.launches");
        r.failed = std::min(
            r.attempted, c.at("runtime.faulted_completions") +
                             c.at("runtime.aborted_launches") +
                             c.at("runtime.overload_rejections") +
                             c.at("runtime.deadline_shed") +
                             (r.attempted - std::min(
                                 r.attempted, c.at("runtime.completions"))));
    }

    void
    olap(Rep &r)
    {
        Sim s = build(r, 1);
        OlapWorkload w(*s.sys, *s.proc, kOlapRows);
        {
            Timed t(tr_, "setup", &r.setup_call);
            w.setup();
        }
        if (r.setup_only)
            return;
        const OlapQuery q = OlapQuery::tpchQ6();
        OlapRunBreakdown b;
        measure(r, s, [&] { b = w.runNdp(*s.rt, q, &r.verified); });
        r.headline_runtime_ps = static_cast<double>(b.evaluate);
        baseline(r, [&] {
            Timed t(tr_, "evaluateBaseline");
            Baseline base;
            base.runtime_ps = static_cast<double>(
                w.evaluateBaseline(q, CpuConfig::hostOverCxl()));
            return base;
        });
    }

    void
    pgrank(Rep &r)
    {
        CsrGraph g;
        {
            Timed t(tr_, "generateUniform", &r.generate);
            g = generateUniform(kPgrankNodes, kPgrankEdges, opt_.seed);
        }
        Sim s = build(r, 1);
        PagerankWorkload w(*s.sys, *s.proc, std::move(g));
        {
            Timed t(tr_, "setup", &r.setup_call);
            w.setup();
        }
        if (r.setup_only)
            return;
        RunResult res;
        measure(r, s, [&] { res = w.runNdp(*s.rt, 1); });
        r.verified = res.verified;
        r.headline_runtime_ps = static_cast<double>(res.runtime);
        baseline(r, [&] {
            Timed t(tr_, "gpuEstimate");
            Baseline base;
            base.runtime_ps = static_cast<double>(
                gpuEstimate(GpuConfig::baselineOverCxl(), w.gpuDesc())
                    .runtime);
            return base;
        });
    }

    KvstoreConfig
    kvsConfig() const
    {
        KvstoreConfig kc;
        kc.num_items = kKvsItems;
        kc.num_buckets = kKvsItems / 5;
        kc.num_requests = kKvsRequests;
        kc.get_fraction = 0.5;
        kc.seed = opt_.seed;
        return kc;
    }

    void
    kvs(Rep &r)
    {
        Sim s = build(r, 1);
        KvstoreWorkload w(*s.sys, *s.proc, kvsConfig());
        {
            Timed t(tr_, "setup", &r.setup_call);
            w.setup();
        }
        if (r.setup_only)
            return;
        KvstoreResult warm;
        {
            Timed t(tr_, "warm.runNdp", &r.warm);
            warm = w.runNdp(*s.rt);
        }
        KvstoreResult res;
        measure(r, s, [&] { res = w.runNdp(*s.rt); });
        r.verified = warm.verified && res.verified;
        // Operations are requests; one that never completes failed.
        r.failed = std::min<std::uint64_t>(
            kKvsRequests, r.failed + (kKvsRequests - res.completed));
        r.attempted = kKvsRequests;
        r.req_p50_ns = res.latency_ns.percentile(50);
        r.req_p99_ns = res.latency_ns.percentile(99);
        r.req_samples = res.latency_ns.count();
        r.headline_runtime_ps = res.latency_ns.percentile(95) * kNs;
        baseline(r, [&] {
            Sim b;
            {
                Timed t(tr_, "baseline.System");
                b = buildSim(1, 1);
            }
            KvstoreWorkload bw(*b.sys, *b.proc, kvsConfig());
            {
                Timed t(tr_, "baseline.setup");
                bw.setup();
            }
            {
                Timed t(tr_, "warm.runHostBaseline");
                bw.runHostBaseline(b.sys->host());
            }
            KvstoreResult bres;
            {
                Timed t(tr_, "runHostBaseline");
                bres = bw.runHostBaseline(b.sys->host());
            }
            Baseline base;
            base.runtime_ps = bres.latency_ns.percentile(95) * kNs;
            base.samples = bres.latency_ns.count();
            base.ok = bres.verified && bres.completed == kKvsRequests;
            return base;
        });
    }

    void
    dlrm(Rep &r)
    {
        Sim s = build(r, kDlrmDevices);
        DlrmConfig dc;
        dc.batch = kDlrmBatch;
        dc.table_rows = kDlrmRows * kDlrmDevices;
        dc.devices = kDlrmDevices;
        dc.seed = opt_.seed;
        DlrmWorkload w(*s.sys, *s.proc, dc);
        {
            Timed t(tr_, "setup", &r.setup_call);
            w.setup();
        }
        if (r.setup_only)
            return;
        RunResult res;
        measure(r, s, [&] { res = w.runNdp(*s.rt); });
        r.verified = res.verified;
        r.headline_runtime_ps = static_cast<double>(res.runtime);
        baseline(r, [&] {
            Baseline base;
            {
                Timed t(tr_, "gpuEstimate");
                base.runtime_ps = static_cast<double>(
                    gpuEstimate(GpuConfig::baselineOverCxl(), w.gpuDesc())
                        .runtime);
            }
            // Fig. 10c's DLRM(SLS)-B256 point, the paper_err reference.
            Sim f;
            {
                Timed t(tr_, "fig10c.System");
                f = buildSim(1, 1);
            }
            DlrmConfig fc;
            fc.batch = kDlrmBatch;
            fc.table_rows = kDlrmRows;
            fc.seed = kDlrmFigureSeed;
            DlrmWorkload fw(*f.sys, *f.proc, fc);
            {
                Timed t(tr_, "fig10c.setup");
                fw.setup();
            }
            RunResult one;
            {
                Timed t(tr_, "fig10c.runNdp");
                one = fw.runNdp(*f.rt);
            }
            {
                Timed t(tr_, "fig10c.gpuEstimate");
                base.fig_gpu_ps = static_cast<double>(
                    gpuEstimate(GpuConfig::baselineOverCxl(), fw.gpuDesc())
                        .runtime);
            }
            base.fig_m2ndp_ps = static_cast<double>(one.runtime);
            base.ok = one.verified;
            return base;
        });
    }

    const Options &opt_;
    Tracer &tr_;
    std::optional<Baseline> base_;
    bool baseline_mismatch_ = false;
    long peak_rss_kb_ = 0;
};

// ------------------------------------------------------------------ output

void
printCounters(const Counters &c)
{
    std::printf("{");
    bool first = true;
    for (const auto &[k, v] : c) {
        std::printf("%s\"%s\": %llu", first ? "" : ", ", k.c_str(),
                    static_cast<unsigned long long>(v));
        first = false;
    }
    std::printf("}");
}

/** {"construct": ..., ...}: one field of Times for each step of @p r. */
void
printTimes(const Rep &r, double Times::*field)
{
    std::printf("{\"construct\": %.9g, \"generate\": %.9g, "
                "\"setup_call\": %.9g, \"warm\": %.9g, \"run\": %.9g, "
                "\"baseline\": %.9g, \"stats\": %.9g, \"whole\": %.9g}",
                r.construct.*field, r.generate.*field, r.setup_call.*field,
                r.warm.*field, r.run.*field, r.baseline.*field,
                r.stats.*field, r.whole.*field);
}

void
printRep(const Rep &r)
{
    std::printf("{\"wall_s\": ");
    printTimes(r, &Times::wall);
    std::printf(", \"cpu_s\": ");
    printTimes(r, &Times::cpu);
    std::printf(
        ", \"traced\": %s, \"threads\": %u, \"verified\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"packet_allocs\": %llu, "
        "\"hot\": {\"issue\": %llu, \"fill\": %llu, \"functional\": %llu, "
        "\"total\": %llu}, \"sim\": {\"checksum\": \"%016llx\", "
        "\"region_ps\": %.17g, \"headline_runtime_ps\": %.17g, "
        "\"req_p50_ns\": %.17g, \"req_p99_ns\": %.17g, "
        "\"req_samples\": %llu, \"counters\": ",
        r.traced ? "true" : "false", r.threads, r.verified ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed),
        static_cast<unsigned long long>(r.packet_allocs),
        static_cast<unsigned long long>(r.hot_issue),
        static_cast<unsigned long long>(r.hot_fill),
        static_cast<unsigned long long>(r.hot_functional),
        static_cast<unsigned long long>(r.hot_total),
        static_cast<unsigned long long>(r.checksum), r.region_ps,
        r.headline_runtime_ps, r.req_p50_ns, r.req_p99_ns,
        static_cast<unsigned long long>(r.req_samples));
    printCounters(r.sim);
    std::printf("}}");
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty() || v[0] == '-')
                return false;
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0 && o.seconds <= 600.0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1" ? 1 : 0;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && findWorkload(o.workload) != nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "<olap_q6|pgrank|kvs_a|dlrm_4dev> --seed <n> "
                     "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    const WorkloadInfo &info = *findWorkload(opt.workload);
    const unsigned devices = opt.workload == "dlrm_4dev" ? kDlrmDevices : 1;

    const Clock::time_point origin = Clock::now();
    Tracer tracer(origin);
    Driver driver(opt, tracer);

    // Reps run while the next one, as long as the last, still ends within
    // --seconds, and at least three, so that the median is not a mean:
    // olap_q6's and pgrank's reps take ~8 s each, so theirs run ~25 s at
    // --seconds 20. Every rep also yields a set-up sample; set-up-only
    // reps top those up to at least 9 samples and 1 s of set-up, since
    // set-up is short (pgrank's ~30 ms) and a median of a few samples is
    // noisy. The timed reps run one executor thread: on a
    // shared 4-core runner the 2-thread wall time swung 1.5x from run to
    // run, the 1-thread one about 5%.
    constexpr std::size_t kMinReps = 3;
    constexpr std::size_t kSetupSamples = 9;
    constexpr double kSetupSeconds = 1.0;
    std::vector<Rep> reps;
    std::vector<Rep> extra; // trace mode: [2-thread rep,] traced rep
    std::vector<double> setups;
    if (opt.trace == 0) {
        for (;;) {
            reps.push_back(driver.rep(false, 1));
            setups.push_back(reps.back().setupSeconds());
            double next_end = secondsBetween(origin, Clock::now()) +
                              reps.back().whole.wall -
                              reps.back().baseline.wall;
            if (reps.size() >= kMinReps && next_end > opt.seconds)
                break;
        }
        double setup_total = 0.0;
        for (double s : setups)
            setup_total += s;
        while (setups.size() < kSetupSamples ||
               setup_total < kSetupSeconds) {
            setups.push_back(driver.rep(false, 1, true).setupSeconds());
            setup_total += setups.back();
        }
    } else {
        reps.push_back(driver.rep(false, 1));
        if (devices > 1)
            extra.push_back(driver.rep(false, 2));
        extra.push_back(driver.rep(true, 1));
    }

    const Baseline &base = driver.baseline();
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"devices\": %u, ",
                info.name, static_cast<unsigned long long>(opt.seed),
                opt.trace, devices);
    std::printf("\"info\": {\"input\": \"%s\", \"cache_state\": \"%s\", "
                "\"figure\": \"%s\", \"series\": \"%s\", \"paper\": %.17g, "
                "\"seed_use\": \"%s\"}, ",
                info.input, info.cache_state, info.figure, info.series,
                info.paper, info.seed_use);
    std::printf("\"baseline\": {\"runtime_ps\": %.17g, \"samples\": %llu, "
                "\"ok\": %s, \"fig_m2ndp_ps\": %.17g, \"fig_gpu_ps\": %.17g, "
                "\"mismatch\": %s}, ",
                base.runtime_ps, static_cast<unsigned long long>(base.samples),
                base.ok ? "true" : "false", base.fig_m2ndp_ps,
                base.fig_gpu_ps,
                driver.baselineMismatch() ? "true" : "false");
    std::printf("\"peak_rss_kb\": %ld, \"reps\": [", driver.peakRssKb());
    for (std::size_t i = 0; i < reps.size(); ++i) {
        if (i != 0)
            std::printf(", ");
        printRep(reps[i]);
    }
    std::printf("], \"setups\": [");
    for (std::size_t i = 0; i < setups.size(); ++i)
        std::printf("%s%.9g", i != 0 ? ", " : "", setups[i]);
    std::printf("], \"extra\": [");
    for (std::size_t i = 0; i < extra.size(); ++i) {
        if (i != 0)
            std::printf(", ");
        printRep(extra[i]);
    }
    std::printf("], \"spans\": [");
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::printf("%s{\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                    "\"start_us\": %.3f, \"dur_us\": %.3f}",
                    i != 0 ? ", " : "", s.name.c_str(), s.id,
                    s.parent, s.start_us, s.dur_us);
    }
    std::printf("]}\n");
    return 0;
}
