// util::FlatMap64, the open-addressing table behind the pool's hash/id/
// account indexes and the network's stream and batch maps: seeded
// differential runs against std::unordered_map, plus the probe-run edge
// cases (wrap-around clusters at the table end, backward-shift erase
// across the wrap, growth with erases in between).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_map.h"
#include "util/rng.h"

namespace topo::util {
namespace {

using Ref = std::unordered_map<uint64_t, uint64_t>;

/// Every reference entry is found with its value, the sizes agree, the
/// load stays at or under 3/4, and a full walk visits exactly the
/// reference content.
void expect_same(const FlatMap64<uint64_t>& m, const Ref& ref) {
  ASSERT_EQ(m.size(), ref.size());
  EXPECT_LE(m.size() * 4, m.capacity() * 3 + 4) << "load above 3/4";
  for (const auto& [k, v] : ref) {
    const uint64_t* got = m.find(k);
    ASSERT_NE(got, nullptr) << "key " << k;
    EXPECT_EQ(*got, v) << "key " << k;
  }
  Ref walked;
  m.for_each([&walked](uint64_t k, uint64_t v) {
    EXPECT_TRUE(walked.emplace(k, v).second) << "key " << k << " visited twice";
  });
  EXPECT_EQ(walked, ref);
}

/// One seeded run of inserts, overwrites, erases and lookups over a key
/// universe small enough that keys come and go many times. Key 0 (the
/// empty-slot marker) and the all-ones key are always in the universe.
void differential_run(uint64_t seed, size_t universe, size_t ops) {
  Rng rng(seed);
  std::vector<uint64_t> keys{0, std::numeric_limits<uint64_t>::max()};
  while (keys.size() < universe) keys.push_back(rng.next());
  FlatMap64<uint64_t> m;
  Ref ref;
  for (size_t op = 0; op < ops; ++op) {
    const uint64_t k = keys[rng.index(keys.size())];
    const uint64_t v = rng.next();
    switch (rng.index(5)) {
      case 0: {
        const auto [slot, inserted] = m.try_emplace(k, v);
        const auto [it, ref_inserted] = ref.try_emplace(k, v);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 1:
        m.insert_or_assign(k, v);
        ref[k] = v;
        break;
      case 2:
      case 3:
        ASSERT_EQ(m.erase(k), ref.erase(k) == 1) << "op " << op;
        break;
      default: {
        const uint64_t* got = m.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
    }
    if (op % 257 == 0) expect_same(m, ref);
  }
  expect_same(m, ref);
}

TEST(FlatMap64, MatchesUnorderedMapOnSeededSequences) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    differential_run(seed, 8 + 40 * seed, 6000);
  }
}

TEST(FlatMap64, GrowthUnderLiveErasesKeepsEveryKey) {
  // Inserts outpace erases 3:1, so the table doubles many times while a
  // third of what it ever held is erased between the growth steps.
  Rng rng(77);
  FlatMap64<uint64_t> m;
  Ref ref;
  std::vector<uint64_t> live;
  for (uint64_t i = 1; i <= 20000; ++i) {
    const uint64_t k = (i % 3 == 0) ? i : rng.next();  // sequential ids and hashes
    m.insert_or_assign(k, i);
    ref[k] = i;
    live.push_back(k);
    if (i % 4 == 0) {
      const size_t at = rng.index(live.size());
      ASSERT_EQ(m.erase(live[at]), ref.erase(live[at]) == 1);
      live[at] = live.back();
      live.pop_back();
    }
    if (i % 1000 == 0) expect_same(m, ref);
  }
  EXPECT_GE(m.capacity(), 16384u);
  expect_same(m, ref);
}

TEST(FlatMap64, WrapAroundClusterAtTheTableEnd) {
  // Keep the table at 8 slots (at most 6 entries) and build a probe run
  // that starts in the last slot and wraps to the front, then erase from
  // its head so the backward shift has to move entries across the wrap.
  FlatMap64<uint64_t> m;
  m.insert_or_assign(1, 1);
  m.erase(1);
  ASSERT_EQ(m.capacity(), 8u);
  std::vector<uint64_t> last, first;  // keys whose probes start at slot 7 / 0
  for (uint64_t k = 1; last.size() < 3 || first.size() < 2; ++k) {
    if (m.bucket(k) == 7 && last.size() < 3) last.push_back(k);
    if (m.bucket(k) == 0 && first.size() < 2) first.push_back(k);
  }
  Ref ref;
  for (uint64_t k : {last[0], last[1], first[0], last[2], first[1]}) {
    m.insert_or_assign(k, k * 10);
    ref[k] = k * 10;
  }
  ASSERT_EQ(m.capacity(), 8u) << "five entries fit without growth";
  expect_same(m, ref);
  // Slots now: 7=last0, 0=last1, 1=first0, 2=last2, 3=first1. Erasing
  // last0 must pull last1 back across the wrap into slot 7, and so on.
  for (uint64_t k : {last[0], first[0], last[1]}) {
    ASSERT_TRUE(m.erase(k));
    ref.erase(k);
    expect_same(m, ref);
    EXPECT_EQ(m.find(k), nullptr);
  }
  EXPECT_FALSE(m.erase(last[0])) << "erasing an absent key is a no-op";
  expect_same(m, ref);
}

TEST(FlatMap64, KeyZeroLivesBesideTheSlots) {
  FlatMap64<uint64_t> m;
  EXPECT_EQ(m.find(0), nullptr);
  m[0] = 5;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.capacity(), 0u) << "key 0 needs no slot array";
  ASSERT_NE(m.find(0), nullptr);
  EXPECT_EQ(*m.find(0), 5u);
  m.insert_or_assign(9, 90);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(0));
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.at(9), 90u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u) << "clear() releases the slot array";
}

TEST(FlatMap64, CopiesAreIndependent) {
  // Copy-on-write pool state clones its indexes by plain copy.
  FlatMap64<std::pair<uint64_t, uint64_t>> a;
  for (uint64_t k = 1; k <= 100; ++k) a.insert_or_assign(k, {k, k + 1});
  FlatMap64<std::pair<uint64_t, uint64_t>> b = a;
  for (uint64_t k = 1; k <= 100; k += 2) b.erase(k);
  b.insert_or_assign(1000, {1, 2});
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(b.size(), 51u);
  for (uint64_t k = 1; k <= 100; ++k) {
    ASSERT_NE(a.find(k), nullptr);
    EXPECT_EQ(a.at(k).second, k + 1);
    EXPECT_EQ(b.contains(k), k % 2 == 0);
  }
  EXPECT_FALSE(a.contains(1000));
}

}  // namespace
}  // namespace topo::util
