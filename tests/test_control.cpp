// Adaptive aggregation control (DESIGN.md §14): the pure control law under
// deterministic synthetic signals (convergence up and down, hysteresis dead
// band, bound clamping, idle hold), the age-triggered partial flush at the
// command-queue level, runtime threshold retuning, the live controller
// wired into a world, and the config surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/control/controller.hpp"
#include "lamellae/cmd_queue.hpp"
#include "lamellae/shmem_lamellae.hpp"
#include "lamellar.hpp"

namespace {

using namespace lamellar;
using control::AdaptiveController;
using control::ControlBounds;
using control::ControlSignals;
using Decision = AdaptiveController::Decision;

const OutgoingQueues::ProgressFn kNoProgress = [] {};

constexpr std::uint64_t kBudgetNs = 2'000'000;  // 2 ms age budget

ControlBounds bounds() {
  ControlBounds b;
  b.min_bytes = 4 * 1024;
  b.max_bytes = 1024 * 1024;
  b.age_budget_ns = kBudgetNs;
  b.hysteresis = 0.25;
  return b;
}

/// Interval dominated by full-buffer departures with latency headroom.
ControlSignals full_and_fast() {
  ControlSignals s;
  s.flush_threshold = 90;
  s.flush_other = 10;
  s.lane_age_p99_ns = kBudgetNs / 10;  // far below the lower band
  return s;
}

/// Interval dominated by age-triggered flushes (trickle traffic).
ControlSignals trickle() {
  ControlSignals s;
  s.flush_age = 9;
  s.flush_other = 1;
  s.lane_age_p99_ns = kBudgetNs * 2;  // above the upper band too
  return s;
}

// ---- pure control law ----

TEST(AdaptiveController, StepsUpOnFullBuffersWithLatencyHeadroom) {
  AdaptiveController ctl(64 * 1024, bounds());
  EXPECT_EQ(ctl.tick(full_and_fast()), Decision::kUp);
  EXPECT_EQ(ctl.threshold(), 128 * 1024u);
}

TEST(AdaptiveController, StepsDownOnAgeDominatedFlushes) {
  AdaptiveController ctl(64 * 1024, bounds());
  EXPECT_EQ(ctl.tick(trickle()), Decision::kDown);
  EXPECT_EQ(ctl.threshold(), 32 * 1024u);
}

TEST(AdaptiveController, StepsDownOnHighLaneAgeAlone) {
  // Departures are all threshold-caused, but the p99 lane age blew the
  // budget: latency pressure wins even against occupancy pressure.
  AdaptiveController ctl(64 * 1024, bounds());
  ControlSignals s;
  s.flush_threshold = 100;
  s.lane_age_p99_ns = kBudgetNs * 3;
  EXPECT_EQ(ctl.tick(s), Decision::kDown);
}

TEST(AdaptiveController, HoldsInsideDeadBand) {
  AdaptiveController ctl(64 * 1024, bounds());
  // Full buffers but p99 inside the hysteresis band: no step, so the two
  // pressures cannot ping-pong around the budget.
  ControlSignals s;
  s.flush_threshold = 100;
  s.lane_age_p99_ns = kBudgetNs;  // exactly at budget: inside the band
  EXPECT_EQ(ctl.tick(s), Decision::kHold);
  EXPECT_EQ(ctl.threshold(), 64 * 1024u);

  // Mixed causes with in-band latency also hold.
  ControlSignals mixed;
  mixed.flush_threshold = 40;
  mixed.flush_age = 30;
  mixed.flush_other = 30;
  mixed.lane_age_p99_ns = kBudgetNs;
  EXPECT_EQ(ctl.tick(mixed), Decision::kHold);
}

TEST(AdaptiveController, IdleIntervalHoldsWithoutDecay) {
  AdaptiveController ctl(256 * 1024, bounds());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(ctl.tick(ControlSignals{}), Decision::kHold);
  }
  // Bursty workloads keep their learned threshold across gaps.
  EXPECT_EQ(ctl.threshold(), 256 * 1024u);
}

TEST(AdaptiveController, ClampsAtBoundsAndHolds) {
  AdaptiveController up(512 * 1024, bounds());
  EXPECT_EQ(up.tick(full_and_fast()), Decision::kUp);
  EXPECT_EQ(up.threshold(), bounds().max_bytes);
  // Saturated at the cap: further occupancy pressure is a hold, not an
  // endless stream of no-op "adjustments".
  EXPECT_EQ(up.tick(full_and_fast()), Decision::kHold);

  AdaptiveController down(8 * 1024, bounds());
  EXPECT_EQ(down.tick(trickle()), Decision::kDown);
  EXPECT_EQ(down.threshold(), bounds().min_bytes);
  EXPECT_EQ(down.tick(trickle()), Decision::kHold);
}

TEST(AdaptiveController, InitialThresholdClampedToBounds) {
  EXPECT_EQ(AdaptiveController(1, bounds()).threshold(), bounds().min_bytes);
  EXPECT_EQ(AdaptiveController(64 * 1024 * 1024, bounds()).threshold(),
            bounds().max_bytes);
}

/// Synthetic plant: a steady stream filling lanes at `fill_rate` bytes/ns.
/// A buffer of `threshold` bytes fills in threshold/fill_rate ns; if that
/// beats the age budget the departure is threshold-caused with p99 = fill
/// time, otherwise the lane goes out on the age deadline.  The walk must
/// converge to the equilibrium threshold ~ fill_rate * budget and stop.
TEST(AdaptiveController, ConvergesOnSyntheticPlantAndStaysConverged) {
  const double fill_rate = 0.05;  // bytes/ns -> 50 MB/s
  AdaptiveController ctl(bounds().min_bytes, bounds());
  int steps_after_converged = 0;
  bool converged = false;
  for (int i = 0; i < 64; ++i) {
    const double fill_ns =
        static_cast<double>(ctl.threshold()) / fill_rate;
    ControlSignals s;
    if (fill_ns < static_cast<double>(kBudgetNs)) {
      s.flush_threshold = 100;
      s.lane_age_p99_ns = static_cast<std::uint64_t>(fill_ns);
    } else {
      s.flush_age = 100;
      s.lane_age_p99_ns = kBudgetNs + kBudgetNs / 2;
    }
    const Decision d = ctl.tick(s);
    if (converged) {
      EXPECT_EQ(d, Decision::kHold) << "oscillated after converging";
      ++steps_after_converged;
    } else if (d == Decision::kHold) {
      converged = true;
    }
  }
  ASSERT_TRUE(converged);
  EXPECT_GE(steps_after_converged, 40);
  // Equilibrium within one multiplicative step of fill_rate * budget.
  const double eq = fill_rate * static_cast<double>(kBudgetNs);
  EXPECT_GE(static_cast<double>(ctl.threshold()), eq / 2.0);
  EXPECT_LE(static_cast<double>(ctl.threshold()), eq * 2.0);
}

// ---- command-queue level: age flush + runtime retune ----

TEST(ControlCmdQueue, FlushAgedFlushesOnlyLanesOverBudget) {
  ShmemLamellaeGroup group(2, {});
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  OutgoingQueues q(*l0, 1 << 20);

  auto stage_byte = [&q] {
    auto w = q.begin_record(1);
    w.buffer().write_pod<std::uint8_t>(0x5a);
    q.commit_record(w, kNoProgress);
  };
  stage_byte();
  ASSERT_TRUE(q.has_pending());
  const sim_nanos staged_at = l0->mono_now();

  // Younger than the budget: stays staged.
  q.flush_aged(staged_at, /*max_age=*/1'000'000, kNoProgress);
  EXPECT_TRUE(q.has_pending());

  // Older than the budget: departs.
  q.flush_aged(staged_at + 2'000'000, /*max_age=*/1'000'000, kNoProgress);
  EXPECT_FALSE(q.has_pending());
  FabricMessage msg;
  ASSERT_TRUE(l1->poll(msg));
  EXPECT_EQ(msg.payload.size(), 1u);

  // The age stamp resets on the next empty->nonempty transition: a fresh
  // record staged later is young again.
  stage_byte();
  q.flush_aged(l0->mono_now(), /*max_age=*/1'000'000, kNoProgress);
  EXPECT_TRUE(q.has_pending());
  q.flush_all(kNoProgress);
}

TEST(ControlCmdQueue, SetFlushThresholdTakesEffectOnNextCommit) {
  ShmemLamellaeGroup group(2, {});
  auto l0 = group.endpoint(0);
  auto l1 = group.endpoint(1);
  OutgoingQueues q(*l0, 1 << 20);

  auto stage_bytes = [&q](std::size_t n) {
    auto w = q.begin_record(1);
    for (std::size_t i = 0; i < n; ++i) {
      w.buffer().write_pod<std::uint8_t>(static_cast<std::uint8_t>(i));
    }
    q.commit_record(w, kNoProgress);
  };

  stage_bytes(512);
  EXPECT_TRUE(q.has_pending());  // far under the 1 MB threshold

  // Retune down at runtime: the very next commit observes the new value
  // and swaps the (now over-threshold) buffer out.
  q.set_flush_threshold(64);
  EXPECT_EQ(q.flush_threshold(), 64u);
  stage_bytes(1);
  EXPECT_FALSE(q.has_pending());
  FabricMessage msg;
  ASSERT_TRUE(l1->poll(msg));
  EXPECT_EQ(msg.payload.size(), 513u);

  // Clamped to >= 1 so every nonempty commit can still depart.
  q.set_flush_threshold(0);
  EXPECT_EQ(q.flush_threshold(), 1u);
}

// ---- world-level integration ----

struct TinyAm {
  std::uint64_t x = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(x);
  }
  std::uint64_t exec(AmContext&) { return x + 1; }
};

RuntimeConfig quiet_config() {
  RuntimeConfig cfg;  // defaults, not env: deterministic under any runner
  cfg.threads_per_pe = 2;
  return cfg;
}

TEST(ControlWorld, SetAggThresholdRetunesLiveWorld) {
  std::uint64_t threshold_flushes = 0;
  run_world(
      2,
      [&](World& world) {
        // Retune to the 1-byte floor.  Under the default 100 KB threshold
        // these 64 tiny blocking round-trips depart as *explicit* flushes
        // only; at threshold 1 every commit crosses the bar (counted as
        // bypass_large since one record alone fills the "buffer"), so any
        // threshold-crossing departure proves the live queues observed
        // the new value.
        world.set_agg_threshold(1);
        if (world.my_pe() == 0) {
          for (int i = 0; i < 64; ++i) {
            world.block_on(world.exec_am_pe(1, TinyAm{std::uint64_t(i)}));
          }
        }
        world.barrier();
        if (world.my_pe() == 0) {
          const auto snap = world.metrics_snapshot();
          threshold_flushes = snap.counter("cmdq.flush_threshold") +
                              snap.counter("cmdq.bypass_large");
        }
      },
      quiet_config());
  EXPECT_GT(threshold_flushes, 0u);
}

TEST(ControlWorld, LiveControllerAdjustsDownUnderTrickle) {
  RuntimeConfig cfg = quiet_config();
  cfg.adapt = AdaptMode::kAgg;
  cfg.agg_threshold_bytes = 1 << 20;  // deliberately static-worst for trickle
  cfg.adapt_interval_us = 1;
  cfg.adapt_age_budget_us = 1;
  std::uint64_t ticks = 0, adjustments = 0, age_flushes = 0;
  std::size_t final_threshold = 0;
  run_world(
      2,
      [&](World& world) {
        if (world.my_pe() == 0) {
          // Sustained stream of tiny AMs: lanes never reach 1 MB, so every
          // departure the controller causes is age-triggered -> it should
          // walk the threshold down.
          for (int i = 0; i < 20'000; ++i) {
            world.engine().send_cb(1, TinyAm{std::uint64_t(i)},
                                   [](std::uint64_t) {});
          }
          world.wait_all();
          auto snap = world.metrics_snapshot();
          ticks = snap.counter("ctl.ticks");
          adjustments = snap.counter("ctl.adjustments");
          age_flushes = snap.counter("cmdq.flush_age");
          final_threshold = world.engine().outgoing().flush_threshold();
          ASSERT_NE(world.engine().control_loop(), nullptr);
        }
        world.barrier();
      },
      cfg);
  EXPECT_GT(ticks, 0u);
  EXPECT_GT(age_flushes, 0u);
  EXPECT_GT(adjustments, 0u);
  EXPECT_LT(final_threshold, std::size_t{1} << 20);
  EXPECT_GE(final_threshold, quiet_config().adapt_min_bytes);
}

TEST(ControlWorld, LiveControllerAdjustsUpWithLatencyHeadroom) {
  RuntimeConfig cfg = quiet_config();
  cfg.adapt = AdaptMode::kAgg;
  cfg.agg_threshold_bytes = 4 * 1024;  // start at the floor
  cfg.adapt_interval_us = 1;
  cfg.adapt_age_budget_us = 1'000'000;  // 1 s of virtual headroom
  std::size_t final_threshold = 0;
  run_world(
      2,
      [&](World& world) {
        if (world.my_pe() == 0) {
          // Buffers fill in a few hundred records: threshold-caused
          // departures with a huge latency budget -> walk up.
          for (int i = 0; i < 20'000; ++i) {
            world.engine().send_cb(1, TinyAm{std::uint64_t(i)},
                                   [](std::uint64_t) {});
          }
          world.wait_all();
          final_threshold = world.engine().outgoing().flush_threshold();
        }
        world.barrier();
      },
      cfg);
  EXPECT_GT(final_threshold, std::size_t{4} * 1024);
  EXPECT_LE(final_threshold, quiet_config().adapt_max_bytes);
}

// ---- config surface ----

TEST(ControlConfig, ParseAdaptMode) {
  EXPECT_EQ(parse_adapt_mode("off"), AdaptMode::kOff);
  EXPECT_EQ(parse_adapt_mode("agg"), AdaptMode::kAgg);
  EXPECT_THROW(parse_adapt_mode("full"), std::invalid_argument);
  EXPECT_THROW(parse_adapt_mode("bogus"), std::invalid_argument);
}

TEST(ControlConfig, UnknownEnvVarsFlagged) {
  // Retired knobs are flagged too, so old scripts warn instead of silently
  // running without them.
  const std::vector<std::string> flagged = {"LAMELLAR_DEFINITELY_NOT_A_KNOB",
                                            "LAMELLAR_ADMIT_WINDOW",
                                            "LAMELLAR_CMDQ_DEPTH"};
  for (const auto& name : flagged) ::setenv(name.c_str(), "1", 1);
  ::setenv("LAMELLAR_ADAPT", "off", 1);  // known: must not be flagged
  auto unknown = unknown_lamellar_env_vars();
  for (const auto& name : unknown) EXPECT_NE(name, "LAMELLAR_ADAPT");
  for (const auto& name : flagged) {
    EXPECT_EQ(std::count(unknown.begin(), unknown.end(), name), 1) << name;
    ::unsetenv(name.c_str());
  }
  ::unsetenv("LAMELLAR_ADAPT");
}

/// Remote round trips from PE 0; returns PE 0's world clock afterwards.
sim_nanos clock_after_round_trips(const RuntimeConfig& cfg) {
  sim_nanos t = 0;
  run_world(
      2,
      [&](World& world) {
        if (world.my_pe() == 0) {
          for (int i = 0; i < 16; ++i) {
            EXPECT_EQ(world.block_on(world.exec_am_pe(
                          1, TinyAm{std::uint64_t(i)})),
                      std::uint64_t(i) + 1);
          }
          t = world.time_ns();
        }
        world.barrier();
      },
      cfg);
  return t;
}

TEST(ControlConfig, VirtualTimeSwitchFollowsConfig) {
  EXPECT_GT(clock_after_round_trips(quiet_config()), 0u);

  RuntimeConfig off = quiet_config();
  off.enable_virtual_time = false;
  EXPECT_EQ(clock_after_round_trips(off), 0u);

  ::setenv("LAMELLAR_VIRTUAL_TIME", "0", 1);
  RuntimeConfig env = RuntimeConfig::from_env();
  ::unsetenv("LAMELLAR_VIRTUAL_TIME");
  EXPECT_FALSE(env.enable_virtual_time);
  env.backend = BackendKind::kShmem;  // the switch is shmem-only
  EXPECT_EQ(clock_after_round_trips(env), 0u);
}

}  // namespace

LAMELLAR_REGISTER_AM(TinyAm);
