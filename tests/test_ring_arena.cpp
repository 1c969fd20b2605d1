#include "common/ring_arena.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"

namespace pcap::common {
namespace {

TEST(RingArena, DepthZeroAllocatesNothingAndReadsEmpty) {
  RingArena<int> arena(1000, 0);
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.size(999), 0u);
  EXPECT_EQ(arena.total_size(), 0u);
}

TEST(RingArena, PushIntoAFullRingThrowsAndOverwritesNothing) {
  RingArena<int> arena(3, 2);
  EXPECT_EQ(arena.capacity(), 6u);
  arena.push_back(1, 10);
  arena.push_back(1, 11);
  EXPECT_THROW(arena.push_back(1, 12), std::logic_error);
  EXPECT_EQ(arena.size(1), 2u);
  EXPECT_EQ(arena.front(1), 10);
  arena.pop_front(1);
  EXPECT_EQ(arena.front(1), 11);
  // Neighbouring rings are untouched by a full one.
  EXPECT_EQ(arena.size(0), 0u);
  EXPECT_EQ(arena.size(2), 0u);
  arena.push_back(1, 12);  // room again: wraps around the ring
  arena.pop_front(1);
  EXPECT_EQ(arena.front(1), 12);
}

TEST(RingArena, AdoptCarriesARingOldestFirst) {
  RingArena<int> old_arena(2, 3);
  old_arena.push_back(1, 1);
  old_arena.push_back(1, 2);
  old_arena.pop_front(1);
  old_arena.push_back(1, 3);
  old_arena.push_back(1, 4);  // ring 1 holds 2 3 4, head mid-ring
  RingArena<int> next(4, 3);
  next.adopt(3, old_arena, 1);
  next.adopt(0, old_arena, 0);
  EXPECT_EQ(next.size(0), 0u);
  ASSERT_EQ(next.size(3), 3u);
  for (const int want : {2, 3, 4}) {
    EXPECT_EQ(next.front(3), want);
    next.pop_front(3);
  }
  next.clear();
  EXPECT_EQ(next.total_size(), 0u);
}

// Property: every ring behaves like its own bounded deque under a random
// interleaving of pushes and pops across slots.
class RingArenaModel : public ::testing::TestWithParam<int> {};

TEST_P(RingArenaModel, MatchesPerSlotDequeReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t slots = 1 + rng.index(8);
  const auto depth = static_cast<std::uint32_t>(1 + rng.index(4));
  RingArena<int> arena(slots, depth);
  std::vector<std::deque<int>> ref(slots);
  for (int step = 0; step < 1000; ++step) {
    const std::size_t s = rng.index(slots);
    if (rng.bernoulli(0.55)) {
      const int v = static_cast<int>(rng.uniform_int(-1000, 1000));
      if (ref[s].size() == depth) {
        ASSERT_THROW(arena.push_back(s, v), std::logic_error);
      } else {
        arena.push_back(s, v);
        ref[s].push_back(v);
      }
    } else if (!ref[s].empty()) {
      ASSERT_EQ(arena.front(s), ref[s].front()) << "step " << step;
      arena.pop_front(s);
      ref[s].pop_front();
    }
    ASSERT_EQ(arena.size(s), ref[s].size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingArenaModel, ::testing::Range(1, 9));

}  // namespace
}  // namespace pcap::common
