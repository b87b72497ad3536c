// Self-tests for the perfbench output checks: each check accepts a correct
// result and rejects one corruption of it.  Exits non-zero on any failure.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <utility>
#include <vector>

#include "checks.hpp"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

void histogram_checks() {
  constexpr std::size_t kPes = 3;
  constexpr std::size_t kPerPe = 50;
  constexpr std::uint64_t kRounds = 4;
  std::vector<std::vector<std::size_t>> streams;
  for (std::size_t pe = 0; pe < kPes; ++pe) {
    streams.push_back(perfbench::uniform_indices(
        perfbench::stream(7, pe, 1), 400, kPes * kPerPe));
  }
  // The table as a correct run leaves it: every update applied once per
  // round, computed directly rather than through histogram_expected().
  std::vector<std::uint64_t> table(kPes * kPerPe, 0);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (const auto& s : streams) {
      for (std::size_t i : s) table[i] += 1;
    }
  }
  bool all_ok = true;
  for (std::size_t pe = 0; pe < kPes; ++pe) {
    const auto want = perfbench::histogram_expected(
        streams, pe * kPerPe, (pe + 1) * kPerPe, kRounds);
    const std::span<const std::uint64_t> got(table.data() + pe * kPerPe,
                                             kPerPe);
    all_ok = all_ok && perfbench::check_histogram(got, want).ok();
  }
  expect(all_ok, "histogram: correct table accepted");

  // One update moved to the wrong slot.
  const std::size_t from = streams[1][17];
  const std::size_t to = (from + 1) % table.size();
  table[from] -= 1;
  table[to] += 1;
  std::uint64_t missing = 0;
  std::uint64_t extra = 0;
  for (std::size_t pe = 0; pe < kPes; ++pe) {
    const auto want = perfbench::histogram_expected(
        streams, pe * kPerPe, (pe + 1) * kPerPe, kRounds);
    const auto c = perfbench::check_histogram(
        std::span<const std::uint64_t>(table.data() + pe * kPerPe, kPerPe),
        want);
    missing += c.missing;
    extra += c.extra;
  }
  expect(missing == 1 && extra == 1,
         "histogram: one update moved to the wrong slot rejected");
}

void gather_checks() {
  const auto idx = perfbench::uniform_indices(perfbench::stream(9, 2, 2),
                                              1000, 4000);
  std::vector<std::uint64_t> values;
  for (std::size_t i : idx) values.push_back(perfbench::gather_value(i));
  expect(perfbench::gather_mismatches(idx, values) == 0,
         "indexgather: correct gather accepted");

  // Two gathered values swapped (positions chosen with different indices).
  std::size_t a = 3;
  std::size_t b = 4;
  while (idx[b] == idx[a]) ++b;
  std::swap(values[a], values[b]);
  expect(perfbench::gather_mismatches(idx, values) == 2,
         "indexgather: two swapped values rejected");
}

void rpc_checks() {
  // Three slots receiving 5, 0 and 9 requests from two origins; the owner
  // hands out 1..k per slot, and replies land at whichever origin asked.
  const std::vector<std::uint64_t> k = {5, 0, 9};
  std::vector<perfbench::RpcSlotTally> origin0(k.size());
  std::vector<perfbench::RpcSlotTally> origin1(k.size());
  for (std::size_t s = 0; s < k.size(); ++s) {
    for (std::uint64_t v = 1; v <= k[s]; ++v) {
      auto& origin = (v % 2 == 0) ? origin0 : origin1;
      origin[s].issued += 1;
      origin[s].reply(v);
    }
  }
  const auto merged = [&](const std::vector<perfbench::RpcSlotTally>& x,
                          const std::vector<perfbench::RpcSlotTally>& y) {
    std::vector<perfbench::RpcSlotTally> out(x.size());
    for (std::size_t s = 0; s < x.size(); ++s) {
      out[s].issued = x[s].issued + y[s].issued;
      out[s].replies = x[s].replies + y[s].replies;
      out[s].hash_sum = x[s].hash_sum + y[s].hash_sum;
    }
    return out;
  };
  expect(perfbench::rpc_bad_slots(merged(origin0, origin1), k) == 0,
         "rpc: exact replies accepted");

  // One reply delivered twice.
  auto dup = origin1;
  dup[2].reply(7);
  expect(perfbench::rpc_bad_slots(merged(origin0, dup), k) == 1,
         "rpc: one duplicated reply rejected");

  // A duplicate that replaces another reply keeps the count right; the
  // fingerprint still catches it.
  auto swapped = origin0;
  swapped[2].hash_sum -= perfbench::reply_hash(8);
  swapped[2].hash_sum += perfbench::reply_hash(7);
  expect(perfbench::rpc_bad_slots(merged(swapped, origin1), k) == 1,
         "rpc: duplicated reply in place of another rejected");

  // A request that never completed.
  auto lost = origin0;
  lost[0].issued += 1;
  expect(perfbench::rpc_bad_slots(merged(lost, origin1), k) == 1,
         "rpc: missing completion rejected");
}

}  // namespace

int main() {
  histogram_checks();
  gather_checks();
  rpc_checks();
  std::printf("%s\n", failures == 0 ? "all checks behave" : "check failures");
  return failures == 0 ? 0 : 1;
}
