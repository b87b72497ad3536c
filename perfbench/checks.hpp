// Output checks and input generation for the perfbench workloads.
//
// Everything here is plain C++ over plain vectors: it does not include or
// call the runtime, so a check recomputes the expected answer apart from the
// program under test.  checks_test.cpp shows that each check accepts a
// correct result and rejects the corruption it is meant to catch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so its inputs do not change
/// when the runtime's generators do.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) by multiply-shift.
  std::uint64_t uniform(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t x_;
};

/// Independent stream per (seed, pe, purpose).
inline SplitMix stream(std::uint64_t seed, std::size_t pe,
                       std::uint64_t purpose) {
  SplitMix mix(seed ^ (purpose * 0xd1b54a32d192ed03ULL));
  for (std::size_t i = 0; i <= pe; ++i) mix.next();
  return SplitMix(mix.next());
}

/// `n` indices drawn uniformly from [0, range).
inline std::vector<std::size_t> uniform_indices(SplitMix rng, std::size_t n,
                                                std::size_t range) {
  std::vector<std::size_t> out(n);
  for (auto& i : out) i = rng.uniform(range);
  return out;
}

/// The value the indexgather table holds at global index `i`.
inline std::uint64_t gather_value(std::uint64_t i) {
  return i * 0x9e3779b97f4a7c15ULL + 0x5bd1e995ULL;
}

/// Per-reply fingerprint for the rpc check (splitmix finaliser).
inline std::uint64_t reply_hash(std::uint64_t v) {
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

/// Expected histogram slots [lo, hi): each slot's count of updates aimed at
/// it across every PE's index stream, times the number of rounds.
inline std::vector<std::uint64_t> histogram_expected(
    const std::vector<std::vector<std::size_t>>& streams, std::size_t lo,
    std::size_t hi, std::uint64_t rounds) {
  std::vector<std::uint64_t> out(hi - lo, 0);
  for (const auto& s : streams) {
    for (std::size_t i : s) {
      if (i >= lo && i < hi) out[i - lo] += rounds;
    }
  }
  return out;
}

/// Updates missing from the slots they were aimed at (`missing`: the sum
/// of expected minus actual where actual falls short) and updates found
/// where none were aimed (`extra`).  Both are 0 when every slot matches.
struct HistogramCheck {
  std::uint64_t missing = 0;
  std::uint64_t extra = 0;
  [[nodiscard]] bool ok() const { return missing == 0 && extra == 0; }
};

inline HistogramCheck check_histogram(std::span<const std::uint64_t> actual,
                                      std::span<const std::uint64_t> expected) {
  HistogramCheck c;
  if (actual.size() != expected.size()) {
    c.missing = 1;
    return c;
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] < expected[i]) c.missing += expected[i] - actual[i];
    if (actual[i] > expected[i]) c.extra += actual[i] - expected[i];
  }
  return c;
}

/// Gathered values that differ from gather_value() of the index requested
/// at the same position (a wrong count of values counts every request).
inline std::uint64_t gather_mismatches(std::span<const std::size_t> requested,
                                       std::span<const std::uint64_t> values) {
  if (requested.size() != values.size()) return requested.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < requested.size(); ++i) {
    bad += values[i] != gather_value(requested[i]) ? 1 : 0;
  }
  return bad;
}

/// What every origin PE records about one rpc slot: requests it launched at
/// the slot, replies it received for them, and the sum of reply_hash() over
/// those replies.  Summed over origins, a slot that received k requests
/// must show k replies whose values are exactly 1..k in some order; the
/// hash sum is a multiset fingerprint for that.
struct RpcSlotTally {
  std::uint64_t issued = 0;
  std::uint64_t replies = 0;
  std::uint64_t hash_sum = 0;
  void reply(std::uint64_t value) {
    ++replies;
    hash_sum += reply_hash(value);
  }
};

/// Slots whose tallies or final value contradict "replies are exactly
/// 1..k and the slot ends at k".  `tallies` are already summed over origin
/// PEs; `finals` is each slot's value read from its owner after the run.
inline std::uint64_t rpc_bad_slots(std::span<const RpcSlotTally> tallies,
                                   std::span<const std::uint64_t> finals) {
  if (tallies.size() != finals.size()) return tallies.size();
  std::uint64_t bad = 0;
  for (std::size_t s = 0; s < tallies.size(); ++s) {
    const RpcSlotTally& t = tallies[s];
    std::uint64_t want = 0;
    for (std::uint64_t v = 1; v <= t.issued; ++v) want += reply_hash(v);
    const bool ok = t.replies == t.issued && finals[s] == t.issued &&
                    t.hash_sum == want;
    bad += ok ? 0 : 1;
  }
  return bad;
}

}  // namespace perfbench
