// perfbench: the runtime's benchmark binary.  One workload per invocation:
//
//   perfbench --workload histogram|indexgather|rpc --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// A run brings up kWorlds worlds one after another.  Each world is set up
// (run_world, array or shard creation, one untimed warm-up round), runs
// timed rounds for seconds / kWorlds, checks its outputs, and tears down.
// Set-up time is the median over the worlds, so work moved into set-up
// shows.  With --trace 0 the last stdout line is the run's result with the
// end-to-end metrics; with --trace 1 half the worlds run with the runtime's
// causal trace sampling on and benchmark-side spans recorded, and the last
// line carries the per-layer ledger.  See README.md for the metrics and the
// layer each one belongs to.
//
// The per-PE measurements travel through one shared anonymous mapping made
// before run_world, so the same code collects them from PE threads (shmem
// backend) and from forked PE processes (mmap backend).
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "lamellar.hpp"

namespace perfbench {
namespace {

using lamellar::global_index;

// ---- workload make-up (README.md, "Inputs") -------------------------------

/// PEs per world.  The pool runs at least one worker thread per PE besides
/// the PE's main thread, so 2 PEs keep a world at 4 OS threads: within the
/// 4 cores of the reference host.
constexpr std::size_t kPes = 2;
constexpr std::size_t kWorlds = 8;
constexpr std::size_t kTablePerPe = 1000;  // paper's table size per PE
constexpr std::size_t kHistUpdatesPerPe = std::size_t{1} << 19;
constexpr std::size_t kGatherPerPe = std::size_t{1} << 18;
constexpr std::size_t kRpcSlotsPerPe = 1024;
constexpr std::size_t kRpcWindow = 16;
constexpr std::size_t kRpcWarmupPerPe = 4096;
/// LAMELLAR_TRACE_SAMPLE in traced worlds, and 1 in kSpanSample rpc
/// requests gets benchmark-side spans.
constexpr std::uint64_t kTraceSample = 64;
constexpr std::uint64_t kSpanSample = 1024;
constexpr std::size_t kMaxSpans = 8192;
/// Throughput is sampled per interval: one per round for the batch
/// workloads, kBinNs of completions for rpc.
constexpr std::size_t kMaxIntervals = 32768;
constexpr std::uint64_t kBinNs = 2'000'000;

enum class Workload { kHistogram, kIndexGather, kRpc };

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- measurement records ----------------------------------------------------

/// Log-linear latency histogram: 32 sub-buckets per power of two (about 3%
/// resolution), quantiles interpolated within a bucket.
struct LatHist {
  static constexpr int kSubBits = 5;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;
  std::uint64_t count;
  std::uint64_t buckets[kBuckets];

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) + sub;
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const int e = static_cast<int>(i >> kSubBits) + kSubBits - 1;
    const double unit = static_cast<double>(std::uint64_t{1} << (e - kSubBits));
    return static_cast<double>(std::uint64_t{1} << e) +
           static_cast<double>(i & (kSub - 1)) * unit;
  }
  static double width(std::size_t i) {
    if (i < kSub) return 1.0;
    const int e = static_cast<int>(i >> kSubBits) + kSubBits - 1;
    return static_cast<double>(std::uint64_t{1} << (e - kSubBits));
  }
  void add(std::uint64_t v) {
    ++count;
    ++buckets[index(v)];
  }
  void merge(const LatHist& o) {
    count += o.count;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
  }
  [[nodiscard]] double quantile(double p) const {
    if (count == 0) return 0.0;
    const double rank = p * static_cast<double>(count);
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const double n = static_cast<double>(buckets[i]);
      if (seen + n >= rank) return lower(i) + (rank - seen) / n * width(i);
      seen += n;
    }
    return 0.0;
  }
};

/// Counters read from metrics_snapshot() deltas around the timed rounds.
constexpr const char* kCounterNames[] = {
    "am.bytes_serialized", "am.idle_flushes",       "array.plan_allocs",
    "cmdq.bytes_sent",     "cmdq.buffers_sent",     "cmdq.flush_threshold",
    "cmdq.flush_explicit", "sched.tasks_executed",  "fabric.msgs_sent",
    "fab.msgs_sent",       "fabric.vtime_charged_ns", "mp.ring_wakes",
    "mp.backpressure_waits",
};
constexpr std::size_t kNumCounters = std::size(kCounterNames);
std::size_t counter_index(const char* name) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (std::strcmp(kCounterNames[i], name) == 0) return i;
  }
  std::fprintf(stderr, "perfbench: unknown counter %s\n", name);
  std::abort();
}

constexpr const char* kHistNames[] = {
    "am.stage_inject_flush_ns", "am.stage_flight_ns", "am.stage_exec_ns",
    "am.stage_reply_complete_ns", "cmdq.lane_age_ns",
};
constexpr std::size_t kNumHists = std::size(kHistNames);

/// Plain copy of one runtime histogram (log2 buckets).
struct RtHist {
  std::uint64_t count;
  std::uint64_t sum;
  std::uint64_t max;
  std::uint64_t buckets[lamellar::obs::Histogram::kBuckets];
};

enum SpanName : std::uint32_t {
  kSpWorld,
  kSpCreate,
  kSpWarmup,
  kSpTimed,
  kSpRound,
  kSpIssue,
  kSpWait,
  kSpCheck,
  kSpBarrier,
  kSpLaunch,
  kSpRequest,
  kSpHeadWait,
};
constexpr const char* kSpanNames[] = {
    "world.body",    "array.create",  "setup.warmup", "timed",
    "round",         "array.issue",   "array.wait",   "bench.check",
    "world.barrier", "am.launch",     "am.request",   "sched.wait",
};

struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t req;
  std::uint64_t start;
  std::uint64_t end;
  std::uint32_t name;
};

/// Everything one PE reports about one world.  Times are steady-clock ns.
struct PeRecord {
  std::uint64_t t_body_start, t_array_done, t_setup_end;
  std::uint64_t t_timed_start, t_timed_end, t_body_end;
  std::uint64_t rounds, calls, ops, warmup_ops;
  std::uint64_t issue_ns, wait_ns, check_ns, barrier_ns, launch_ns,
      sched_wait_ns;
  std::uint64_t vtime_start, vtime_end;
  std::uint64_t os_threads, maxrss_kb;
  std::uint64_t checked, wrong;
  std::uint64_t counters[kNumCounters];
  std::uint64_t buffers_allocated;
  RtHist hists[kNumHists];
  LatHist call_lat, barrier_lat, launch_lat;
  std::uint64_t nintervals;
  std::uint64_t interval_ops[kMaxIntervals];
  std::uint64_t interval_ns[kMaxIntervals];
  RpcSlotTally tally[kPes * kRpcSlotsPerPe];
  std::uint64_t rpc_final[kRpcSlotsPerPe];
  std::uint64_t nspans, dropped_spans;
  Span spans[kMaxSpans];
};

/// The block shared by the launcher and every PE of one world.
struct Shared {
  std::uint64_t t_call;
  /// Round after which every PE stops; written by PE 0 before that
  /// round's barrier, read by all after it.
  std::atomic<std::uint64_t> stop_round;
  PeRecord pe[kPes];
};

/// Benchmark-side span log of one PE, kept in its record.
class Spans {
 public:
  Spans(PeRecord& rec, std::size_t pe, bool on) : rec_(rec), pe_(pe), on_(on) {}
  std::uint64_t new_id() { return ((pe_ + 1) << 40) | ++seq_; }
  void add(std::uint64_t id, SpanName name, std::uint64_t start,
           std::uint64_t end, std::uint64_t parent, std::uint64_t req) {
    if (!on_) return;
    if (rec_.nspans == kMaxSpans) {
      ++rec_.dropped_spans;
      return;
    }
    rec_.spans[rec_.nspans++] = Span{id, parent, req, start, end, name};
  }

 private:
  PeRecord& rec_;
  std::size_t pe_;
  bool on_;
  std::uint64_t seq_ = 0;
};

std::uint64_t os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoull(line.substr(8));
  }
  return 0;
}

std::uint64_t maxrss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// ---- the rpc request --------------------------------------------------------

/// Each PE's rpc shard; a process-global so the handler finds the shard of
/// the PE it runs on (PEs are threads under shmem, processes under mmap).
std::vector<std::uint64_t> g_shard[kPes];

/// Fetch-add on one slot of the executing PE's shard; returns the new value.
struct FetchAddAm {
  std::uint32_t slot = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar(slot);
  }

  std::uint64_t exec(lamellar::AmContext& ctx) {
    std::atomic_ref<std::uint64_t> cell(g_shard[ctx.current_pe()][slot]);
    return cell.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

}  // namespace
}  // namespace perfbench

LAMELLAR_REGISTER_AM(perfbench::FetchAddAm);

namespace perfbench {
namespace {

// ---- per-PE bodies ----------------------------------------------------------

struct Job {
  Workload workload;
  const std::vector<std::vector<std::size_t>>* inputs;
  Shared* shared;
  std::uint64_t budget_ns;
  std::uint64_t seed;
  bool traced;
};

void copy_deltas(PeRecord& r, const lamellar::obs::MetricsSnapshot& before,
                 const lamellar::obs::MetricsSnapshot& after) {
  const auto d = lamellar::obs::snapshot_delta(before, after);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    r.counters[i] = d.counter(kCounterNames[i]);
  }
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const auto* h = d.histogram(kHistNames[i]);
    if (h == nullptr) continue;
    r.hists[i].count = h->count;
    r.hists[i].sum = h->sum;
    r.hists[i].max = h->max;
    std::copy(h->buckets.begin(), h->buckets.end(), r.hists[i].buckets);
  }
  r.buffers_allocated = after.counter("cmdq.buffers_allocated");
}

/// Timed rounds of one batch call per PE, ended together: PE 0 decides
/// after each round whether the budget is spent, so every PE runs the same
/// number of whole rounds.
template <typename Issue, typename Consume>
void timed_rounds(lamellar::World& world, const Job& job, PeRecord& r,
                  Spans& sp, std::uint64_t timed_id, std::size_t ops_per_round,
                  Issue issue, Consume consume) {
  for (std::uint64_t round = 0;; ++round) {
    const std::uint64_t round_id = sp.new_id();
    const std::uint64_t t0 = now_ns();
    auto fut = issue();
    const std::uint64_t t1 = now_ns();
    auto values = world.block_on(std::move(fut));
    const std::uint64_t t2 = now_ns();
    consume(values);
    const std::uint64_t t3 = now_ns();
    if (world.my_pe() == 0 && t3 - r.t_timed_start >= job.budget_ns) {
      job.shared->stop_round.store(round);
    }
    world.barrier();
    const std::uint64_t t4 = now_ns();
    r.issue_ns += t1 - t0;
    r.wait_ns += t2 - t1;
    r.check_ns += t3 - t2;
    r.barrier_ns += t4 - t3;
    r.call_lat.add(t2 - t0);
    r.barrier_lat.add(t4 - t3);
    if (r.nintervals < kMaxIntervals) {
      r.interval_ops[r.nintervals] = ops_per_round;
      r.interval_ns[r.nintervals++] = t4 - t0;
    }
    r.ops += ops_per_round;
    ++r.calls;
    ++r.rounds;
    sp.add(round_id, kSpRound, t0, t4, timed_id, round);
    sp.add(sp.new_id(), kSpIssue, t0, t1, round_id, round);
    sp.add(sp.new_id(), kSpWait, t1, t2, round_id, round);
    sp.add(sp.new_id(), kSpCheck, t2, t3, round_id, round);
    sp.add(sp.new_id(), kSpBarrier, t3, t4, round_id, round);
    if (job.shared->stop_round.load() == round) break;
  }
}

/// Brackets a body's timed rounds: wall and virtual time marks, counter
/// deltas, and the "timed" span.
struct TimedPhase {
  lamellar::obs::MetricsSnapshot before;
  std::uint64_t id = 0;

  void begin(lamellar::World& world, PeRecord& r, Spans& sp) {
    before = world.metrics_snapshot();
    id = sp.new_id();
    world.barrier();
    r.t_timed_start = now_ns();
    r.vtime_start = world.time_ns();
  }
  void end(lamellar::World& world, PeRecord& r, Spans& sp) {
    r.t_timed_end = now_ns();
    r.vtime_end = world.time_ns();
    copy_deltas(r, before, world.metrics_snapshot());
    sp.add(id, kSpTimed, r.t_timed_start, r.t_timed_end, 0, 0);
  }
};

void end_setup(lamellar::World& world, PeRecord& r, Spans& sp,
               std::uint64_t world_id, std::uint64_t t_warm) {
  world.barrier();
  r.t_setup_end = now_ns();
  sp.add(sp.new_id(), kSpWarmup, t_warm, r.t_setup_end, world_id, 0);
  r.os_threads = os_threads();
}

void histogram_body(lamellar::World& world, const Job& job, PeRecord& r,
                    Spans& sp, std::uint64_t world_id) {
  const std::size_t pe = world.my_pe();
  auto table = lamellar::AtomicArray<std::uint64_t>::create(
      world, kPes * kTablePerPe, lamellar::Distribution::kBlock);
  r.t_array_done = now_ns();
  sp.add(sp.new_id(), kSpCreate, r.t_body_start, r.t_array_done, world_id, 0);

  const std::span<const global_index> idxs((*job.inputs)[pe]);
  const std::uint64_t t_warm = now_ns();
  world.block_on(table.batch_add(idxs, 1));
  r.warmup_ops = idxs.size();
  end_setup(world, r, sp, world_id, t_warm);

  TimedPhase phase;
  phase.begin(world, r, sp);
  timed_rounds(
      world, job, r, sp, phase.id, idxs.size(),
      [&] { return table.batch_add(idxs, 1); }, [](const auto&) {});
  phase.end(world, r, sp);

  // Every round added each PE's whole stream once, warm-up included.
  const std::size_t lo = pe * kTablePerPe;
  const auto want = histogram_expected(*job.inputs, lo, lo + kTablePerPe,
                                       r.rounds + 1);
  std::vector<std::uint64_t> got(table.local_len());
  for (std::size_t i = 0; i < got.size(); ++i) got[i] = table.load_local(i);
  const bool placed = table.local_len() == kTablePerPe &&
                      table.place(lo).rank == pe;
  const HistogramCheck c = check_histogram(got, want);
  r.checked = (r.rounds + 1) * idxs.size();
  // A moved update shows once on each side; a lost or doubled one once.
  r.wrong = placed ? std::max(c.missing, c.extra) : r.checked;
}

void indexgather_body(lamellar::World& world, const Job& job, PeRecord& r,
                      Spans& sp, std::uint64_t world_id) {
  const std::size_t pe = world.my_pe();
  auto tmp = lamellar::UnsafeArray<std::uint64_t>::create(
      world, kPes * kTablePerPe, lamellar::Distribution::kBlock);
  {
    auto local = tmp.unsafe_local_slice();
    const std::size_t base = pe * kTablePerPe;
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = gather_value(base + i);
    }
  }
  world.barrier();
  auto table = std::move(tmp).into_read_only();
  r.t_array_done = now_ns();
  sp.add(sp.new_id(), kSpCreate, r.t_body_start, r.t_array_done, world_id, 0);

  const std::span<const global_index> idxs((*job.inputs)[pe]);
  const auto consume = [&](const std::vector<std::uint64_t>& values) {
    r.checked += idxs.size();
    r.wrong += gather_mismatches(idxs, values);
  };
  const std::uint64_t t_warm = now_ns();
  consume(world.block_on(table.batch_load(idxs)));
  r.warmup_ops = idxs.size();
  end_setup(world, r, sp, world_id, t_warm);

  TimedPhase phase;
  phase.begin(world, r, sp);
  timed_rounds(world, job, r, sp, phase.id, idxs.size(),
               [&] { return table.batch_load(idxs); }, consume);
  phase.end(world, r, sp);
}

/// Closed loop: kRpcWindow requests outstanding per PE, each to a uniformly
/// random (PE, slot); the oldest is awaited and replaced.  Launches stop
/// when `more(now)` turns false; the window then drains.
template <typename More>
void rpc_loop(lamellar::World& world, PeRecord& r, Spans& sp, SplitMix& rng,
              bool timed, std::uint64_t parent, More more) {
  struct Pending {
    lamellar::Future<std::uint64_t> fut;
    std::uint64_t t_launch = 0;
    std::uint64_t id = 0;
    std::size_t gslot = 0;
  };
  std::uint64_t next_id = r.calls + r.warmup_ops;
  const auto launch = [&](Pending& p) {
    const std::size_t dst = rng.uniform(kPes);
    const std::size_t slot = rng.uniform(kRpcSlotsPerPe);
    p.gslot = dst * kRpcSlotsPerPe + slot;
    p.id = next_id++;
    ++r.tally[p.gslot].issued;
    const std::uint64_t t0 = now_ns();
    p.fut = world.exec_am_pe(dst, FetchAddAm{static_cast<std::uint32_t>(slot)});
    const std::uint64_t t1 = now_ns();
    p.t_launch = t0;
    if (timed) {
      r.launch_ns += t1 - t0;
      r.launch_lat.add(t1 - t0);
      ++r.calls;
    } else {
      ++r.warmup_ops;
    }
    if (p.id % kSpanSample == 0) sp.add(sp.new_id(), kSpLaunch, t0, t1, parent, p.id);
  };

  std::vector<Pending> ring(kRpcWindow);
  for (auto& p : ring) launch(p);
  std::size_t live = ring.size();
  for (std::size_t head = 0; live > 0; head = (head + 1) % ring.size()) {
    Pending& p = ring[head];
    if (!p.fut.valid()) continue;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t value = world.block_on(std::move(p.fut));
    const std::uint64_t t1 = now_ns();
    r.tally[p.gslot].reply(value);
    if (timed) {
      r.sched_wait_ns += t1 - t0;
      r.call_lat.add(t1 - p.t_launch);
      ++r.ops;
      const std::uint64_t bin = (t1 - r.t_timed_start) / kBinNs;
      if (bin < kMaxIntervals) {
        ++r.interval_ops[bin];
        r.interval_ns[bin] = kBinNs;
        r.nintervals = std::max(r.nintervals, bin + 1);
      }
    }
    if (p.id % kSpanSample == 0) {
      sp.add(sp.new_id(), kSpRequest, p.t_launch, t1, parent, p.id);
      sp.add(sp.new_id(), kSpHeadWait, t0, t1, parent, p.id);
    }
    p.fut = {};
    if (more(t1)) {
      launch(p);
    } else {
      --live;
    }
  }
  const std::uint64_t t0 = now_ns();
  world.wait_all();
  if (timed) r.sched_wait_ns += now_ns() - t0;
}

void rpc_body(lamellar::World& world, const Job& job, PeRecord& r, Spans& sp,
              std::uint64_t world_id) {
  const std::size_t pe = world.my_pe();
  g_shard[pe].assign(kRpcSlotsPerPe, 0);
  world.barrier();
  r.t_array_done = now_ns();
  sp.add(sp.new_id(), kSpCreate, r.t_body_start, r.t_array_done, world_id, 0);

  SplitMix rng = stream(job.seed, pe, 3);
  const std::uint64_t t_warm = now_ns();
  rpc_loop(world, r, sp, rng, false, world_id, [&](std::uint64_t) {
    return r.warmup_ops < kRpcWarmupPerPe;
  });
  end_setup(world, r, sp, world_id, t_warm);

  TimedPhase phase;
  phase.begin(world, r, sp);
  const std::uint64_t deadline = r.t_timed_start + job.budget_ns;
  rpc_loop(world, r, sp, rng, true, phase.id,
           [&](std::uint64_t now) { return now < deadline; });
  world.barrier();
  phase.end(world, r, sp);
  // Every PE drained its own requests before the barrier, so each shard
  // holds its final values.
  std::copy(g_shard[pe].begin(), g_shard[pe].end(), r.rpc_final);
  r.checked = r.calls + r.warmup_ops;
}

void pe_body(lamellar::World& world, const Job& job) {
  PeRecord& r = job.shared->pe[world.my_pe()];
  r.t_body_start = now_ns();
  Spans sp(r, world.my_pe(), job.traced);
  const std::uint64_t world_id = sp.new_id();
  switch (job.workload) {
    case Workload::kHistogram:
      histogram_body(world, job, r, sp, world_id);
      break;
    case Workload::kIndexGather:
      indexgather_body(world, job, r, sp, world_id);
      break;
    case Workload::kRpc:
      rpc_body(world, job, r, sp, world_id);
      break;
  }
  r.maxrss_kb = maxrss_kb();
  world.barrier();
  r.t_body_end = now_ns();
  sp.add(world_id, kSpWorld, r.t_body_start, r.t_body_end, 0, 0);
}

// ---- launcher ---------------------------------------------------------------

/// One world's results, reduced over its PEs.
struct WorldResult {
  bool traced = false;
  double setup_s = 0, bringup_s = 0, create_s = 0, teardown_s = 0;
  double timed_s = 0, timed_pe_s = 0, vtime_s = 0;
  std::uint64_t ops = 0, calls = 0, attempted = 0, wrong = 0;
  double issue_s = 0, wait_s = 0, check_s = 0, barrier_s = 0, launch_s = 0,
         sched_wait_s = 0;
  std::uint64_t os_threads = 0, rss_kb = 0, buffers_allocated = 0;
  std::uint64_t counters[kNumCounters] = {};
  std::vector<lamellar::obs::HistogramSnapshot> hists;
  LatHist call_lat{}, barrier_lat{}, launch_lat{};
  /// Whole-world ops/s of each full interval of the timed phase.
  std::vector<double> interval_rates;
  std::uint64_t spans = 0, dropped_spans = 0;
};

using Worlds = std::vector<const WorldResult*>;

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Add one log2 histogram (runtime snapshot or its plain copy) into `into`.
template <typename H>
void add_hist(lamellar::obs::HistogramSnapshot& into, const H& x) {
  into.count += x.count;
  into.sum += x.sum;
  into.max = std::max(into.max, x.max);
  for (std::size_t b = 0; b < into.buckets.size(); ++b) {
    into.buckets[b] += x.buckets[b];
  }
}

WorldResult reduce_world(const Shared& sh, std::uint64_t t_return, bool mmap,
                         bool traced, Workload workload) {
  WorldResult w;
  w.traced = traced;
  std::uint64_t setup_end = 0, body_start = 0, body_end = 0, create = 0;
  for (std::size_t pe = 0; pe < kPes; ++pe) {
    const PeRecord& r = sh.pe[pe];
    setup_end = std::max(setup_end, r.t_setup_end);
    body_start = std::max(body_start, r.t_body_start);
    body_end = std::max(body_end, r.t_body_end);
    create = std::max(create, r.t_array_done - r.t_body_start);
    w.timed_pe_s += ns_to_s(r.t_timed_end - r.t_timed_start);
    w.ops += r.ops;
    w.calls += r.calls;
    w.attempted += r.checked;
    w.wrong += r.wrong;
    w.issue_s += ns_to_s(r.issue_ns);
    w.wait_s += ns_to_s(r.wait_ns);
    w.check_s += ns_to_s(r.check_ns);
    w.barrier_s += ns_to_s(r.barrier_ns);
    w.launch_s += ns_to_s(r.launch_ns);
    w.sched_wait_s += ns_to_s(r.sched_wait_ns);
    // Under shmem every PE sees the one process, whose launcher thread
    // waits in run_world; under mmap each PE is its own process.
    w.os_threads = mmap ? w.os_threads + r.os_threads
                        : std::max(w.os_threads, r.os_threads - 1);
    w.rss_kb = mmap ? w.rss_kb + r.maxrss_kb : std::max(w.rss_kb, r.maxrss_kb);
    w.buffers_allocated += r.buffers_allocated;
    for (std::size_t i = 0; i < kNumCounters; ++i) w.counters[i] += r.counters[i];
    w.call_lat.merge(r.call_lat);
    w.barrier_lat.merge(r.barrier_lat);
    w.launch_lat.merge(r.launch_lat);
    w.spans += r.nspans;
    w.dropped_spans += r.dropped_spans;
  }
  const PeRecord& r0 = sh.pe[0];
  w.setup_s = ns_to_s(setup_end - sh.t_call);
  w.bringup_s = ns_to_s(body_start - sh.t_call);
  w.create_s = ns_to_s(create);
  w.teardown_s = ns_to_s(t_return - body_end);
  w.timed_s = ns_to_s(r0.t_timed_end - r0.t_timed_start);
  w.vtime_s = ns_to_s(r0.vtime_end - r0.vtime_start);
  for (std::size_t i = 0; i < kNumHists; ++i) {
    lamellar::obs::HistogramSnapshot h;
    for (std::size_t pe = 0; pe < kPes; ++pe) add_hist(h, sh.pe[pe].hists[i]);
    w.hists.push_back(h);
  }
  if (workload == Workload::kRpc) {
    // Sum the PEs' bins; the last one is partial.
    std::uint64_t n = 0;
    for (std::size_t pe = 0; pe < kPes; ++pe) n = std::max(n, sh.pe[pe].nintervals);
    for (std::uint64_t b = 0; b + 1 < n; ++b) {
      std::uint64_t ops = 0;
      for (std::size_t pe = 0; pe < kPes; ++pe) ops += sh.pe[pe].interval_ops[b];
      w.interval_rates.push_back(static_cast<double>(ops) / ns_to_s(kBinNs));
    }
    // Sum each slot's tallies over the origin PEs; the owner holds the
    // final value.
    std::vector<RpcSlotTally> tally(kPes * kRpcSlotsPerPe);
    std::vector<std::uint64_t> finals(kPes * kRpcSlotsPerPe);
    for (std::size_t pe = 0; pe < kPes; ++pe) {
      for (std::size_t s = 0; s < tally.size(); ++s) {
        tally[s].issued += sh.pe[pe].tally[s].issued;
        tally[s].replies += sh.pe[pe].tally[s].replies;
        tally[s].hash_sum += sh.pe[pe].tally[s].hash_sum;
      }
      std::copy(sh.pe[pe].rpc_final, sh.pe[pe].rpc_final + kRpcSlotsPerPe,
                finals.begin() + pe * kRpcSlotsPerPe);
    }
    std::uint64_t missing = 0;
    for (const auto& t : tally) {
      missing += t.issued > t.replies ? t.issued - t.replies : 0;
    }
    const std::uint64_t bad_slots = rpc_bad_slots(tally, finals);
    w.wrong += std::max(missing, bad_slots);
  } else {
    // PEs run rounds in lockstep; PE 0's round times stand for the world.
    for (std::uint64_t i = 0; i < r0.nintervals; ++i) {
      w.interval_rates.push_back(
          static_cast<double>(r0.interval_ops[i] * kPes) /
          ns_to_s(r0.interval_ns[i]));
    }
  }
  return w;
}

/// Linear-interpolated quantile (p in [0, 1]).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

template <typename F>
double median_of(const Worlds& ws, F f) {
  std::vector<double> v;
  for (const auto* w : ws) v.push_back(f(*w));
  return median(v);
}

/// Total ops over total timed seconds, stalls included.
double pooled_rate(const Worlds& ws) {
  double ops = 0, secs = 0;
  for (const auto* w : ws) {
    ops += static_cast<double>(w->ops);
    secs += w->timed_s;
  }
  return secs > 0 ? ops / secs : 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

LatHist merged(const Worlds& ws, LatHist WorldResult::*field) {
  LatHist out{};
  for (const auto* w : ws) out.merge(w->*field);
  return out;
}

template <typename F>
double sum_of(const Worlds& ws, F f) {
  double total = 0;
  for (const auto* w : ws) total += f(*w);
  return total;
}

double counter_sum(const Worlds& ws, const char* name) {
  const std::size_t i = counter_index(name);
  return sum_of(ws, [i](const WorldResult& w) {
    return static_cast<double>(w.counters[i]);
  });
}

/// Quantile of one runtime histogram merged over `ws`, in microseconds.
double stage_us(const Worlds& ws, std::size_t hist, double p) {
  lamellar::obs::HistogramSnapshot h;
  for (const auto* w : ws) add_hist(h, w->hists[hist]);
  return static_cast<double>(h.percentile(p)) * 1e-3;
}

/// Quantile `p` of the interval rates of all `ws`.
double interval_rate(const Worlds& ws, double p) {
  std::vector<double> rates;
  for (const auto* w : ws) {
    rates.insert(rates.end(), w->interval_rates.begin(),
                 w->interval_rates.end());
  }
  return quantile(rates, p);
}

/// Peak throughput: the 99th percentile of the interval rates.  On a shared
/// virtual machine the hypervisor takes the CPUs away for a share of time
/// that drifts from run to run (1% to 34% steal measured).  Steal only ever
/// slows an interval down, so the fastest intervals track the runtime's own
/// speed where the median tracks the host's load (README.md).
double peak_rate(const Worlds& ws) { return interval_rate(ws, 0.99); }

std::vector<Metric> end_to_end(const Worlds& ws, std::uint64_t rss_kb) {
  return {
      {"setup_s", median_of(ws, [](const auto& w) { return w.setup_s; }), "s"},
      {"peak_ops_per_s", peak_rate(ws), "ops/s"},
      {"peak_rss_mb", static_cast<double>(rss_kb) / 1024.0, "MB"},
  };
}

/// The per-layer ledger.  Counts and benchmark-side timings come from the
/// untraced worlds; the stage latencies, which only sampled requests fill,
/// from the traced ones.  Every ratio's base is reported beside it.
std::vector<Metric> per_layer(const Worlds& plain, const Worlds& traced,
                              std::uint64_t os_threads) {
  const double ops = sum_of(plain, [](const auto& w) {
    return static_cast<double>(w.ops);
  });
  const double kops = ops / 1000.0;
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto total = [&](double WorldResult::*field) {
    return sum_of(plain, [field](const WorldResult& w) { return w.*field; });
  };
  const double vtime = total(&WorldResult::vtime_s);
  const double plain_rate = peak_rate(plain);
  const double traced_rate = peak_rate(traced);
  const std::size_t inject = 0, flight = 1, exec = 2, reply = 3, lane_age = 4;
  return {
      {"base.ops", ops, "count"},
      {"base.calls", sum_of(plain, [](const auto& w) {
         return static_cast<double>(w.calls);
       }), "count"},
      {"base.timed_pe_s", total(&WorldResult::timed_pe_s), "s"},
      {"base.stage_samples", sum_of(traced, [flight](const auto& w) {
         return static_cast<double>(w.hists[flight].count);
       }), "count"},
      {"bench.median_ops_per_s", interval_rate(plain, 0.5), "ops/s"},
      {"bench.pooled_ops_per_s", pooled_rate(plain), "ops/s"},
      {"bench.latency_p50_us",
       merged(plain, &WorldResult::call_lat).quantile(0.5) * 1e-3, "us"},
      {"bench.latency_p99_us",
       merged(plain, &WorldResult::call_lat).quantile(0.99) * 1e-3, "us"},
      {"world.bringup_s", median_of(plain, [](const auto& w) {
         return w.bringup_s;
       }), "s"},
      {"world.barrier_us",
       merged(plain, &WorldResult::barrier_lat).quantile(0.5) * 1e-3, "us"},
      {"world.barrier_s", total(&WorldResult::barrier_s), "s"},
      {"world.teardown_s", median_of(plain, [](const auto& w) {
         return w.teardown_s;
       }), "s"},
      {"world.os_threads", static_cast<double>(os_threads), "count"},
      {"array.create_s", median_of(plain, [](const auto& w) {
         return w.create_s;
       }), "s"},
      {"array.issue_s", total(&WorldResult::issue_s), "s"},
      {"array.wait_s", total(&WorldResult::wait_s), "s"},
      {"array.plan_allocs", counter_sum(plain, "array.plan_allocs"), "count"},
      {"bench.check_s", total(&WorldResult::check_s), "s"},
      {"am.launch_ns",
       merged(plain, &WorldResult::launch_lat).quantile(0.5), "ns"},
      {"am.launch_s", total(&WorldResult::launch_s), "s"},
      {"am.bytes_per_op", per(counter_sum(plain, "am.bytes_serialized"), ops),
       "B"},
      {"am.idle_flushes_per_kop",
       per(counter_sum(plain, "am.idle_flushes"), kops), "1/kop"},
      {"am.stage_inject_flush_p50_us", stage_us(traced, inject, 0.5), "us"},
      {"am.stage_inject_flush_p99_us", stage_us(traced, inject, 0.99), "us"},
      {"am.stage_flight_p99_us", stage_us(traced, flight, 0.99), "us"},
      {"am.stage_exec_p99_us", stage_us(traced, exec, 0.99), "us"},
      {"am.stage_reply_complete_p99_us", stage_us(traced, reply, 0.99), "us"},
      {"cmdq.bytes_per_buffer",
       per(counter_sum(plain, "cmdq.bytes_sent"),
           counter_sum(plain, "cmdq.buffers_sent")), "B"},
      {"cmdq.buffers_sent", counter_sum(plain, "cmdq.buffers_sent"), "count"},
      {"cmdq.threshold_flushes_per_kop",
       per(counter_sum(plain, "cmdq.flush_threshold"), kops), "1/kop"},
      {"cmdq.explicit_flushes_per_kop",
       per(counter_sum(plain, "cmdq.flush_explicit"), kops), "1/kop"},
      {"cmdq.lane_age_p99_us", stage_us(plain, lane_age, 0.99), "us"},
      {"cmdq.buffers_allocated", median_of(plain, [](const auto& w) {
         return static_cast<double>(w.buffers_allocated);
       }), "count"},
      {"sched.tasks_per_op",
       per(counter_sum(plain, "sched.tasks_executed"), ops), "1/op"},
      {"sched.wait_s", total(&WorldResult::sched_wait_s), "s"},
      {"fabric.msgs_per_kop",
       per(counter_sum(plain, "fabric.msgs_sent") +
               counter_sum(plain, "fab.msgs_sent"),
           kops), "1/kop"},
      {"fabric.vtime_per_op_ns",
       per(counter_sum(plain, "fabric.vtime_charged_ns"), ops), "ns"},
      {"fabric.modeled_ops_per_s", per(ops, vtime), "ops/s"},
      {"mp.ring_wakes_per_kop", per(counter_sum(plain, "mp.ring_wakes"), kops),
       "1/kop"},
      {"mp.backpressure_waits", counter_sum(plain, "mp.backpressure_waits"),
       "count"},
      {"obs.trace_overhead_pct",
       plain_rate > 0 ? (plain_rate - traced_rate) / plain_rate * 100.0 : 0.0,
       "%"},
      {"obs.spans", sum_of(traced, [](const auto& w) {
         return static_cast<double>(w.spans);
       }), "count"},
      {"obs.spans_dropped", sum_of(traced, [](const auto& w) {
         return static_cast<double>(w.dropped_spans);
       }), "count"},
  };
}

void write_trace(const std::string& path, const std::vector<Shared*>& kept,
                 std::uint64_t t0) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t w = 0; w < kept.size(); ++w) {
    for (std::size_t pe = 0; pe < kPes; ++pe) {
      std::fprintf(f,
                   "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,"
                   "\"tid\":%zu,\"args\":{\"name\":\"PE %zu\"}}",
                   first ? "" : ",\n", w, pe, pe);
      first = false;
      const PeRecord& r = kept[w]->pe[pe];
      for (std::uint64_t i = 0; i < r.nspans; ++i) {
        const Span& s = r.spans[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":%zu,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                     ",\"req\":%" PRIu64 "}}",
                     kSpanNames[s.name], w, pe,
                     static_cast<double>(s.start - t0) * 1e-3,
                     static_cast<double>(s.end - s.start) * 1e-3, s.id,
                     s.parent, s.req);
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void* mmap_anon_shared(std::size_t bytes) {
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("perfbench: mmap failed");
  return mem;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload histogram|indexgather|rpc "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      workload_name = v;
    } else if (k == "--seed") {
      seed = std::stoull(v);
    } else if (k == "--seconds") {
      seconds = std::stod(v);
    } else if (k == "--trace") {
      trace = std::stoi(v);
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  Workload workload;
  if (workload_name == "histogram") {
    workload = Workload::kHistogram;
  } else if (workload_name == "indexgather") {
    workload = Workload::kIndexGather;
  } else if (workload_name == "rpc") {
    workload = Workload::kRpc;
  } else {
    return usage();
  }

  // Inputs come from the seed alone and are made before any world exists.
  std::vector<std::vector<std::size_t>> inputs(kPes);
  for (std::size_t pe = 0; pe < kPes; ++pe) {
    if (workload == Workload::kHistogram) {
      inputs[pe] = uniform_indices(stream(seed, pe, 1), kHistUpdatesPerPe,
                                   kPes * kTablePerPe);
    } else if (workload == Workload::kIndexGather) {
      inputs[pe] = uniform_indices(stream(seed, pe, 2), kGatherPerPe,
                                   kPes * kTablePerPe);
    }
  }

  lamellar::RuntimeConfig base_cfg;  // defaults; the environment is ignored
  base_cfg.threads_per_pe = 1;
  base_cfg.backend = workload == Workload::kIndexGather
                         ? lamellar::BackendKind::kMmap
                         : lamellar::BackendKind::kShmem;
  const bool mmap = base_cfg.backend == lamellar::BackendKind::kMmap;

  std::vector<WorldResult> results;
  std::vector<Shared*> kept;  // traced worlds' blocks, for the trace file
  const std::uint64_t t_run = now_ns();
  for (std::size_t k = 0; k < kWorlds; ++k) {
    void* mem = mmap_anon_shared(sizeof(Shared));
    auto* sh = new (mem) Shared();
    sh->stop_round.store(~std::uint64_t{0});
    const bool traced = trace == 1 && k % 2 == 1;
    lamellar::RuntimeConfig cfg = base_cfg;
    cfg.trace_sample = traced ? kTraceSample : 0;
    Job job{workload, &inputs, sh,
            static_cast<std::uint64_t>(seconds / kWorlds * 1e9), seed, traced};
    sh->t_call = now_ns();
    lamellar::run_world(
        kPes, [&job](lamellar::World& world) { pe_body(world, job); }, cfg);
    const std::uint64_t t_return = now_ns();
    results.push_back(reduce_world(*sh, t_return, mmap, traced, workload));
    if (traced) {
      kept.push_back(sh);
    } else {
      munmap(mem, sizeof(Shared));
    }
  }
  if (!trace_out.empty() && !kept.empty()) write_trace(trace_out, kept, t_run);
  for (Shared* sh : kept) munmap(sh, sizeof(Shared));

  std::uint64_t attempted = 0, wrong = 0, os_threads = 0, rss_kb = 0;
  for (const auto& w : results) {
    attempted += w.attempted;
    wrong += w.wrong;
    os_threads = std::max(os_threads, w.os_threads);
    rss_kb = std::max(rss_kb, w.rss_kb);
  }
  if (!mmap) rss_kb = maxrss_kb();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("# host nproc=%ld build=%s pes=%zu worlds=%zu world_os_threads=%" PRIu64
              "\n",
              nproc,
#ifdef NDEBUG
              "optimized",
#else
              "debug",
#endif
              kPes, kWorlds, os_threads);
  if (static_cast<long>(os_threads) > nproc) {
    std::fprintf(stderr,
                 "perfbench: warning: a world ran %" PRIu64
                 " OS threads on %ld cores\n",
                 os_threads, nproc);
  }

  for (std::size_t k = 0; k < results.size(); ++k) {
    const WorldResult& w = results[k];
    std::printf("# world %zu%s: setup_s %.4f (bringup %.4f create %.4f) "
                "ops_per_s peak %.6g median %.6g pooled %.6g latency_p50_us "
                "%.4g calls %" PRIu64 "\n",
                k, w.traced ? " (traced)" : "", w.setup_s, w.bringup_s,
                w.create_s, peak_rate({&w}), interval_rate({&w}, 0.5),
                pooled_rate({&w}),
                w.call_lat.quantile(0.5) * 1e-3, w.calls);
  }
  Worlds plain, traced;
  for (const auto& w : results) (w.traced ? traced : plain).push_back(&w);
  const std::vector<Metric> metrics =
      trace == 0 ? end_to_end(plain, rss_kb) : per_layer(plain, traced, os_threads);
  for (const auto& m : metrics) {
    std::printf("# %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (trace == 0) {
    // Printed for the record, not reported as metrics: they move with the
    // host's load (README.md).
    std::printf("# %-34s %16.6g ops/s\n", "median_ops_per_s",
                interval_rate(plain, 0.5));
    std::printf("# %-34s %16.6g ops/s\n", "pooled_ops_per_s",
                pooled_rate(plain));
    const LatHist lat = merged(plain, &WorldResult::call_lat);
    std::printf("# %-34s %16.6g us\n", "latency_p50_us",
                lat.quantile(0.5) * 1e-3);
    std::printf("# %-34s %16.6g us (%" PRIu64 " samples)\n", "latency_p99_us",
                lat.quantile(0.99) * 1e-3, lat.count);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              wrong == 0 ? "true" : "false", attempted, wrong);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
