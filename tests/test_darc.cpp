// Darc lifetime-protocol tests: collective creation, clone/drop counting,
// transfer tracking across AMs, revive-after-drop, destruction exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "lamellar.hpp"

namespace {

using namespace lamellar;

std::atomic<int> g_live_payloads{0};

struct TrackedPayload {
  int tag = 0;
  TrackedPayload() { g_live_payloads.fetch_add(1); }
  explicit TrackedPayload(int t) : tag(t) { g_live_payloads.fetch_add(1); }
  TrackedPayload(TrackedPayload&& o) noexcept : tag(o.tag) {
    g_live_payloads.fetch_add(1);
  }
  ~TrackedPayload() { g_live_payloads.fetch_sub(1); }
};

struct HoldDarcAm {
  Darc<TrackedPayload> darc;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(darc);
  }
  std::uint64_t exec(AmContext&) { return darc->tag; }
};

}  // namespace

LAMELLAR_REGISTER_AM(HoldDarcAm);

namespace {

TEST(Darc, CreateAccessDestroy) {
  g_live_payloads.store(0);
  run_world(4, [](World& world) {
    {
      auto d = world.new_darc(TrackedPayload(int(world.my_pe()) + 10));
      EXPECT_EQ(d->tag, int(world.my_pe()) + 10);
      EXPECT_EQ(world.darc_manager().local_refs(d.id()), 1u);
      world.barrier();
    }
    // Handles dropped; the distributed protocol must destroy all instances
    // before the world finalizes.
  });
  EXPECT_EQ(g_live_payloads.load(), 0);
}

TEST(Darc, CloneCounts) {
  run_world(2, [](World& world) {
    auto d = world.new_darc(TrackedPayload(1));
    {
      auto d2 = d;       // NOLINT(performance-unnecessary-copy-initialization)
      auto d3 = d2;      // NOLINT
      EXPECT_EQ(world.darc_manager().local_refs(d.id()), 3u);
    }
    EXPECT_EQ(world.darc_manager().local_refs(d.id()), 1u);
    world.barrier();
  });
}

TEST(Darc, AccessesRemoteInstanceThroughAm) {
  run_world(3, [](World& world) {
    auto d = world.new_darc(TrackedPayload(int(world.my_pe()) * 100));
    if (world.my_pe() == 0) {
      // Each PE's instance is independent: exec on PE 2 sees its tag.
      auto v = world.block_on(world.exec_am_pe(2, HoldDarcAm{d}));
      EXPECT_EQ(v, 200u);
    }
    world.barrier();
  });
}

TEST(Darc, InFlightRefClearsWhenTransferIsAcked) {
  run_world(2, [](World& world) {
    auto d = world.new_darc(TrackedPayload(int(world.my_pe())));
    DarcManager& darcs = world.darc_manager();
    if (world.my_pe() == 0) {
      // The serialized copy is both a local reference and in flight until
      // PE 1's transfer-ack lands; conversions rely on telling the two
      // apart from a user-held handle.
      EXPECT_EQ(world.block_on(world.exec_am_pe(1, HoldDarcAm{d})), 1u);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (darcs.local_refs(d.id()) != 1 &&
             std::chrono::steady_clock::now() < deadline) {
        world.pool().try_run_one();
        world.engine().poll_inbox();
      }
      EXPECT_EQ(darcs.local_refs(d.id()), 1u);
      EXPECT_EQ(darcs.in_flight_refs(d.id()), 0u);
    }
    world.barrier();
  });
}

TEST(Darc, SurvivesWhileRemoteHoldsOnlyReference) {
  g_live_payloads.store(0);
  run_world(2, [](World& world) {
    if (world.my_pe() == 0) {
      auto fut = [&] {
        auto d = world.new_darc(TrackedPayload(7));
        return world.exec_am_pe(1, HoldDarcAm{d});
        // d dropped here while the AM (holding a transferred ref) is in
        // flight; the protocol must keep the object alive until the remote
        // execution finishes.
      }();
      EXPECT_EQ(world.block_on(std::move(fut)), 7u);
    } else {
      auto d = world.new_darc(TrackedPayload(7));
      // PE1 drops immediately.
    }
  });
  EXPECT_EQ(g_live_payloads.load(), 0);
}

TEST(Darc, ManyDarcsAllReclaimed) {
  g_live_payloads.store(0);
  run_world(2, [](World& world) {
    for (int i = 0; i < 20; ++i) {
      auto d = world.new_darc(TrackedPayload(i));
      if (world.my_pe() == 0 && i % 3 == 0) {
        world.exec_am_pe(1, HoldDarcAm{d});
      }
    }
    world.wait_all();
    world.barrier();
  });
  EXPECT_EQ(g_live_payloads.load(), 0);
}

TEST(OneSided, WeightedTransferReclaims) {
  run_world(2, [](World& world) {
    std::size_t live_before = world.onesided_registry().live();
    {
      auto region = OneSidedMemoryRegion<std::uint64_t>::create(world, 4);
      EXPECT_EQ(world.onesided_registry().live(), live_before + 1);
    }
    EXPECT_EQ(world.onesided_registry().live(), live_before);
    world.barrier();
  });
}

struct EchoRegionAm {
  OneSidedMemoryRegion<std::uint32_t> region;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(region);
  }
  std::uint64_t exec(AmContext&) { return region.len(); }
};

}  // namespace

LAMELLAR_REGISTER_AM(EchoRegionAm);

namespace {

TEST(OneSided, RegionFreedAfterRemoteHandleDies) {
  run_world(2, [](World& world) {
    if (world.my_pe() == 0) {
      std::size_t live_before = world.onesided_registry().live();
      {
        auto region = OneSidedMemoryRegion<std::uint32_t>::create(world, 16);
        auto v = world.block_on(world.exec_am_pe(1, EchoRegionAm{region}));
        EXPECT_EQ(v, 16u);
      }
      // Local handle gone; the remote proxy's weight return may still be in
      // flight.  Help the runtime until it lands (bounded).
      for (int spin = 0;
           world.onesided_registry().live() != live_before && spin < 2'000'000;
           ++spin) {
        if (!world.pool().try_run_one()) world.engine().poll_inbox();
      }
      EXPECT_EQ(world.onesided_registry().live(), live_before);
      world.barrier();
    } else {
      world.barrier();
    }
  });
}

}  // namespace
