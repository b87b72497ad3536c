// Batch dispatch for array element operations (paper Sec. III-F3).
//
// The runtime "calculates the correct PEs and offsets for each array index,
// batching operations by destination PE within a single message", splitting
// batches at the configured op limit (default 10,000, the value the paper's
// experiments use).  Fetch results are scattered back into caller order.
// Every non-CAS element op — single, batched, one-index-many-values, load —
// and every lazy chain group lowers through fuse_dispatch: an eager op is a
// chain of length 1.  Local chunks are applied directly (owner == caller),
// remote chunks travel as ArrayOpAm; compare-exchange keeps ArrayCexAm.
//
// Memory discipline (DESIGN.md §9): planning is backed by the calling
// thread's ScratchArena — flat index/position arrays bucketed by rank, a
// chunk table of views into them — and rewound when the dispatch frame
// ends, so a steady-state loop of batch calls performs no planner heap
// allocation (array.plan_allocs counts arena growth; flat after warm-up).
// Remote chunks serialize their index spans and operand gathers straight
// into the aggregation lane; completions scatter into disjoint caller
// positions and count down an atomic — no gather mutex anywhere.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/scratch_arena.hpp"
#include "common/unique_function.hpp"
#include "core/array/array_ams.hpp"

namespace lamellar {
namespace array_detail {

/// One destination-bound chunk: a view into the plan's flat arrays.
struct ChunkRef {
  std::size_t rank = 0;
  std::size_t offset = 0;  ///< start within locals_flat / pos_flat
  std::size_t len = 0;
};

/// Arena-backed batch plan: local indices and caller positions bucketed by
/// owner rank (caller order preserved within each bucket), split into
/// chunks at the batch limit.  Valid until the planning frame rewinds.
struct BatchPlan {
  std::span<std::uint64_t> locals_flat;
  std::span<std::size_t> pos_flat;
  std::span<ChunkRef> chunks;
};

/// Group indices by owner and split at the batch limit — two passes over
/// the indices (place + count, then stable bucket scatter), all staging in
/// the arena.  `want_positions` = false skips the caller-position table
/// entirely (non-fetch many-one batches never read it).
template <typename T>
BatchPlan plan_chunks(ScratchArena& arena, const ArrayState<T>& st,
                      std::span<const global_index> idxs,
                      std::size_t view_start, std::size_t batch_limit,
                      bool want_positions) {
  BatchPlan plan;
  const std::size_t n = idxs.size();
  if (n == 0) return plan;
  const std::size_t nranks = st.map.num_ranks();

  auto ranks = arena.alloc_span<std::uint32_t>(n);
  auto locals = arena.alloc_span<std::uint64_t>(n);
  auto starts = arena.alloc_span<std::size_t>(nranks + 1);
  std::memset(starts.data(), 0, starts.size_bytes());
  for (std::size_t i = 0; i < n; ++i) {
    const Placement p = st.map.place(view_start + idxs[i]);
    ranks[i] = static_cast<std::uint32_t>(p.rank);
    locals[i] = p.local_index;
    ++starts[p.rank];
  }

  // Counts -> bucket start offsets (exclusive prefix sum) + chunk count.
  std::size_t nchunks = 0;
  std::size_t run = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::size_t c = starts[r];
    starts[r] = run;
    run += c;
    nchunks += ceil_div(c, batch_limit);
  }
  starts[nranks] = run;

  plan.locals_flat = arena.alloc_span<std::uint64_t>(n);
  if (want_positions) plan.pos_flat = arena.alloc_span<std::size_t>(n);
  plan.chunks = arena.alloc_span<ChunkRef>(nchunks);

  std::size_t ci = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::size_t end = starts[r + 1];
    for (std::size_t off = starts[r]; off < end; off += batch_limit) {
      plan.chunks[ci++] = ChunkRef{r, off, std::min(batch_limit, end - off)};
    }
  }

  // Stable scatter: ascending caller position within each bucket, so fetch
  // results come back in caller order per chunk.
  auto cursor = arena.alloc_span<std::size_t>(nranks);
  std::memcpy(cursor.data(), starts.data(), cursor.size_bytes());
  if (want_positions) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = cursor[ranks[i]]++;
      plan.locals_flat[at] = locals[i];
      plan.pos_flat[at] = i;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      plan.locals_flat[cursor[ranks[i]]++] = locals[i];
    }
  }
  return plan;
}

/// Sentinel chunk offset: results map back 1:1 (single-chunk batches keep
/// caller order by construction, so no position table is needed).
inline constexpr std::size_t kIdentityScatter =
    static_cast<std::size_t>(-1);

/// Completion state shared by a batch's chunks.  Concurrent completions
/// scatter into disjoint elements of `out` (each caller position belongs to
/// exactly one chunk) and count down `remaining` — no lock; the release
/// fetch_sub publishes every scatter to whoever observes zero.
template <typename R>
struct BatchGather {
  std::vector<R> out;
  /// Caller positions, chunk-major (plan order); only populated for
  /// multi-chunk fetch batches — the plan's own arrays die with the
  /// dispatch frame, completions can outlive it.
  std::vector<std::size_t> positions;
  std::atomic<std::size_t> remaining{0};
  Promise<std::vector<R>> promise;
};

template <typename R>
void complete_one(const std::shared_ptr<BatchGather<R>>& gather) {
  if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    gather->promise.set_value(std::move(gather->out));
  }
}

/// Completion-only gather (no results): counts chunks into a Future<Unit>.
struct UnitGather {
  std::atomic<std::size_t> remaining{0};
  Promise<Unit> promise;
};

inline void finish_unit(const std::shared_ptr<UnitGather>& gather) {
  if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    gather->promise.set_value(Unit{});
  }
}

/// Scatter one chunk's results (borrowed reply view) into `out`.
/// `pos_offset` indexes `positions`, or kIdentityScatter for 1:1.
template <typename R>
void scatter_chunk(std::vector<R>& out,
                   const std::vector<std::size_t>& positions,
                   std::size_t pos_offset, std::span<const R> results) {
  if (pos_offset == kIdentityScatter) {
    std::copy(results.begin(), results.end(), out.begin());
  } else {
    for (std::size_t j = 0; j < results.size(); ++j) {
      out[positions[pos_offset + j]] = results[j];
    }
  }
}

/// Completion state shared by every chunk of every group an element-op
/// chain dispatches.  `remaining` starts at 1 — the issuer's hold — so a
/// group that completes while later groups are still being dispatched can
/// never fire the terminal early; the issuer stores `on_complete` and then
/// releases the hold.  Fetch output and (for multi-chunk fetch groups)
/// caller positions live here because chunk completions can outlive the
/// dispatch frame.
template <typename T>
struct FusedRun {
  std::atomic<std::size_t> remaining{1};
  std::vector<T> out;
  std::vector<std::size_t> positions;
  UniqueFunction<void()> on_complete;

  void complete_one() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // The caller of the final complete_one holds a shared_ptr, so `this`
      // outlives the callback.
      on_complete();
    }
  }
};

/// Lower one element-op chain group — the only element-op lowering (DESIGN.md
/// §9): a single plan pass over `idxs`, then per chunk either a local
/// composed-kernel application or one ArrayOpAm.  With `fetch` != kNone,
/// pre-image or post-chain element values scatter into run->out in caller
/// order (the run's positions table serves multi-chunk scatter).  Each
/// dispatched chunk adds one count to run->remaining before any completion
/// can observe it.
template <typename T>
void fuse_dispatch(const Darc<ArrayState<T>>& state, std::size_t view_start,
                   std::span<const global_index> idxs,
                   std::span<const FusedStageRec<T>> recs, FetchMode fetch,
                   const std::shared_ptr<FusedRun<T>>& run) {
  ArrayState<T>& st = *state;
  const std::size_t n = idxs.size();
  const std::size_t k = recs.size();
  if (n == 0) return;
  const bool fetching = fetch != FetchMode::kNone;

  bool any_per_elem = false;
  for (const FusedStageRec<T>& r : recs) any_per_elem |= r.per_elem;

  ScratchArena& arena = ScratchArena::local();
  const std::uint64_t grows_before = arena.grow_events();
  ArenaFrame frame(arena);
  // Positions drive fetch-result scatter and per-element operand gather; a
  // non-fetch shared-operand group (the histogram hot path) needs neither.
  const bool need_pos = fetching || any_per_elem;
  auto plan = plan_chunks(arena, st, idxs, view_start,
                          st.world->config().batch_op_limit, need_pos);
  // The chain applies k element ops per index in one pass (a pure gather
  // is one load); account for all of them.
  st.ops_batched->inc(n * std::max<std::size_t>(k, 1));
  // AM passes the group would cost as separate length-1 chains: one per
  // stage, plus one for a post-chain gather (a pre-image fetch rides its
  // op, and a pure load is one pass).
  const std::size_t passes = std::max<std::size_t>(
      k + (fetch == FetchMode::kPostChain ? 1 : 0), 1);
  st.fused_chain_len->record(passes);

  if (plan.chunks.empty()) {
    st.plan_allocs->inc(arena.grow_events() - grows_before);
    return;
  }

  // The wire stage table, shared by every chunk of this group.
  auto hdrs = arena.alloc_span<FusedStage>(k);
  std::size_t wire_vals_per_idx = 0;  // per-element operand count
  std::size_t wire_shared_vals = 0;
  for (std::size_t s = 0; s < k; ++s) {
    hdrs[s] = FusedStage{recs[s].op,
                         static_cast<std::uint8_t>(recs[s].per_elem ? 1 : 0)};
    if (recs[s].per_elem) {
      ++wire_vals_per_idx;
    } else {
      ++wire_shared_vals;
    }
  }

  const bool multi = plan.chunks.size() > 1;
  if (fetching) {
    run->out.resize(n);
    if (multi) {
      run->positions.assign(plan.pos_flat.begin(), plan.pos_flat.end());
    }
  }
  const std::size_t my_rank = st.my_rank();
  std::size_t remote_chunks = 0;
  for (const ChunkRef& chunk : plan.chunks) {
    const std::span<const std::uint64_t> locals =
        plan.locals_flat.subspan(chunk.offset, chunk.len);
    const std::span<const std::size_t> pos =
        need_pos ? plan.pos_flat.subspan(chunk.offset, chunk.len)
                 : std::span<const std::size_t>{};
    const std::size_t nvals =
        chunk.len * wire_vals_per_idx + wire_shared_vals;
    run->remaining.fetch_add(1, std::memory_order_relaxed);
    if (chunk.rank == my_rank) {
      // Owner == caller: stage this chunk's concatenated operand region in
      // the arena (per-element operands permuted into chunk order, shared
      // scalars once) and run the same composed kernel the remote side
      // runs, sinking fetch results straight into the run's output for
      // single-chunk groups.
      auto ops = arena.alloc_span<T>(nvals);
      std::size_t ob = 0;
      for (std::size_t s = 0; s < k; ++s) {
        if (recs[s].per_elem) {
          for (std::size_t j = 0; j < chunk.len; ++j) {
            ops[ob + j] = recs[s].vals[pos[j]];
          }
          ob += chunk.len;
        } else {
          ops[ob++] = recs[s].scalar;
        }
      }
      T* sink = nullptr;
      std::span<T> staged;
      if (fetching) {
        if (multi) {
          staged = arena.alloc_span<T>(chunk.len);
          sink = staged.data();
        } else {
          sink = run->out.data();
        }
      }
      apply_fused_sink<T>(st, hdrs, ops, locals, fetch, sink);
      if (fetching && multi) {
        for (std::size_t j = 0; j < chunk.len; ++j) {
          run->out[pos[j]] = staged[j];
        }
      }
      run->complete_one();
      continue;
    }
    ++remote_chunks;
    ArrayOpAm<T> am;
    am.state = state;
    am.fetch = fetch;
    am.locals = locals;
    am.stages = hdrs;
    am.recs = recs.data();
    am.gather_pos = pos;
    st.chunk_bytes_inline->inc(locals.size_bytes() + hdrs.size_bytes() +
                               nvals * sizeof(T));
    st.world->engine().send_cb(
        st.team.world_pe(chunk.rank), std::move(am),
        [run, fetching,
         pos_offset = multi ? chunk.offset : kIdentityScatter](ValSpan<T> r) {
          if (fetching) {
            scatter_chunk(run->out, run->positions, pos_offset, r.view);
          }
          run->complete_one();
        });
  }
  // Each remote chunk would have cost `passes` AMs as separate chains; the
  // fused group sends exactly one.
  st.fused_ams_saved->inc(remote_chunks * (passes - 1));
  st.plan_allocs->inc(arena.grow_events() - grows_before);
}

/// Identity finisher for dispatch_op: the fetch results in caller order.
template <typename T>
struct TakeValues {
  std::vector<T> operator()(std::vector<T>&& v) const { return std::move(v); }
};

/// Dispatch an eager element op as a length-1 chain (a load is the empty
/// chain) over `idxs`.  `vals` holds one shared operand or one per index;
/// `fetch` returns pre-images in caller order.  The future resolves to
/// `finish(values)` once every chunk applied (values stay empty without
/// fetch).
template <typename T, typename Finish = TakeValues<T>>
auto dispatch_op(const Darc<ArrayState<T>>& state, std::size_t view_start,
                 OpCode op, bool fetch, std::span<const global_index> idxs,
                 std::span<const T> vals, Finish finish = {}) {
  using R = std::invoke_result_t<Finish, std::vector<T>&&>;
  FusedStageRec<T> rec;
  rec.op = op;
  rec.per_elem = vals.size() > 1;
  rec.scalar = vals.empty() ? T{} : vals[0];
  rec.vals = vals.data();
  auto run = std::make_shared<FusedRun<T>>();
  Promise<R> promise;
  auto future = promise.future();
  run->on_complete = UniqueFunction<void()>{
      [promise, finish, self = run.get()]() mutable {
        promise.set_value(finish(std::move(self->out)));
      }};
  fuse_dispatch<T>(state, view_start, idxs,
                   std::span<const FusedStageRec<T>>(
                       &rec, op == OpCode::kLoad ? 0 : 1),
                   fetch ? FetchMode::kPreImage : FetchMode::kNone, run);
  run->complete_one();
  return future;
}

/// Dispatch a compare-exchange batch (one shared `expected`, per-index
/// `desired` or one shared desired value).  Shares the arena planner with
/// dispatch_op; results always come back (cex is inherently fetching).
template <typename T>
Future<std::vector<CexResult<T>>> dispatch_cex(
    const Darc<ArrayState<T>>& state, std::size_t view_start, T expected,
    std::span<const global_index> idxs, std::span<const T> desired) {
  ArrayState<T>& st = *state;
  ScratchArena& arena = ScratchArena::local();
  const std::uint64_t grows_before = arena.grow_events();
  ArenaFrame frame(arena);
  auto plan = plan_chunks(arena, st, idxs, view_start,
                          st.world->config().batch_op_limit,
                          /*want_positions=*/true);
  st.ops_batched->inc(idxs.size());

  auto gather = std::make_shared<BatchGather<CexResult<T>>>();
  gather->remaining.store(plan.chunks.size(), std::memory_order_relaxed);
  if (plan.chunks.empty()) {
    st.plan_allocs->inc(arena.grow_events() - grows_before);
    gather->promise.set_value({});
    return gather->promise.future();
  }
  gather->out.resize(idxs.size());
  const bool multi = plan.chunks.size() > 1;
  if (multi) {
    gather->positions.assign(plan.pos_flat.begin(), plan.pos_flat.end());
  }
  auto future = gather->promise.future();

  const bool shared_desired = desired.size() == 1 && idxs.size() != 1;
  const std::size_t my_rank = st.my_rank();
  for (const ChunkRef& chunk : plan.chunks) {
    const std::span<const std::uint64_t> locals =
        plan.locals_flat.subspan(chunk.offset, chunk.len);
    const std::span<const std::size_t> pos =
        plan.pos_flat.subspan(chunk.offset, chunk.len);
    if (chunk.rank == my_rank) {
      for (std::size_t j = 0; j < chunk.len; ++j) {
        const T want = shared_desired ? desired[0] : desired[pos[j]];
        gather->out[multi ? pos[j] : j] =
            apply_cex<T>(st, locals[j], expected, want);
      }
      complete_one(gather);
      continue;
    }
    ArrayCexAm<T> am;
    am.state = state;
    am.expected = expected;
    am.locals = locals;
    if (shared_desired) {
      am.desired = desired;
    } else {
      am.desired_base = desired.data();
      am.gather_pos = pos;
    }
    const std::size_t want_count = shared_desired ? 1 : chunk.len;
    st.chunk_bytes_inline->inc(locals.size_bytes() + want_count * sizeof(T));
    st.world->engine().send_cb(
        st.team.world_pe(chunk.rank), std::move(am),
        [gather, pos_offset = multi ? chunk.offset : kIdentityScatter](
            ValSpan<CexResult<T>> r) {
          scatter_chunk(gather->out, gather->positions, pos_offset, r.view);
          complete_one(gather);
        });
  }
  st.plan_allocs->inc(arena.grow_events() - grows_before);
  return future;
}

/// Contiguous owner ranges of the global span [start, start+len), in order.
/// For cyclic distributions a "range" is a strided run: local indices are
/// consecutive on the owner while caller offsets advance by caller_stride.
struct OwnedRange {
  std::size_t rank;
  std::uint64_t local_start;
  std::size_t len;
  std::size_t caller_offset;   ///< offset within the caller's buffer
  std::size_t caller_stride;   ///< 1 for block; num_ranks for cyclic
};

template <typename T>
std::vector<OwnedRange> plan_ranges(const ArrayState<T>& st,
                                    global_index start, std::size_t len) {
  std::vector<OwnedRange> ranges;
  if (len == 0) return ranges;
  if (st.map.dist() == Distribution::kBlock) {
    std::size_t off = 0;
    while (off < len) {
      const Placement p = st.map.place(start + off);
      const std::size_t owner_room =
          st.map.local_len(p.rank) - p.local_index;
      const std::size_t n = std::min(owner_room, len - off);
      ranges.push_back(OwnedRange{p.rank, p.local_index, n, off, 1});
      off += n;
    }
    return ranges;
  }
  // Cyclic: rank place(start + k).rank owns caller offsets k, k + n,
  // k + 2n, ... — consecutive local slots on the owner — so the whole span
  // coalesces into at most num_ranks strided runs, one per starting offset.
  const std::size_t n = st.map.num_ranks();
  for (std::size_t k = 0; k < n && k < len; ++k) {
    const Placement p = st.map.place(start + k);
    const std::size_t count = 1 + (len - 1 - k) / n;
    ranges.push_back(OwnedRange{p.rank, p.local_index, count, k, n});
  }
  return ranges;
}

/// A contiguous view of the caller elements a range covers: the buffer
/// slice itself for unit-stride runs, an arena-staged gather otherwise
/// (valid until the enclosing frame rewinds).
template <typename T>
std::span<const T> contiguous_slice(ScratchArena& arena,
                                    std::span<const T> data,
                                    const OwnedRange& r) {
  if (r.caller_stride <= 1) return data.subspan(r.caller_offset, r.len);
  auto staged = arena.alloc_span<T>(r.len);
  for (std::size_t j = 0; j < r.len; ++j) {
    staged[j] = data[r.caller_offset + j * r.caller_stride];
  }
  return staged;
}

/// Scatter a range's elements back into the caller's buffer.
template <typename T>
void scatter_range(T* out, const OwnedRange& r, std::span<const T> piece) {
  for (std::size_t j = 0; j < piece.size(); ++j) {
    out[r.caller_offset + j * r.caller_stride] = piece[j];
  }
}

}  // namespace array_detail
}  // namespace lamellar
