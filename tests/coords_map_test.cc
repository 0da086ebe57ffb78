// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Seeded differential tests of CoordsMap (cube/coords_map.h) against
// std::unordered_map: every operation the evaluators use, replayed on both
// tables, must leave them with the same contents. Keys are drawn from small
// domains so inserts collide, and some runs are chosen to share home slots
// at the end of the slot array so that probe runs wrap around it.

#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "cube/coords_map.h"

namespace casm {
namespace {

using Map = CoordsMap<int64_t>;
using Oracle = std::unordered_map<Coords, int64_t, CoordsHash>;

bool Has(const Map& map, const Coords& key) {
  return map.find(key) != map.end();
}

Coords RandomKey(std::mt19937_64* rng, int64_t domain) {
  std::uniform_int_distribution<int64_t> pick(0, domain - 1);
  return Coords{pick(*rng), pick(*rng), pick(*rng)};
}

/// Same keys and values, and every key found through find().
void ExpectSame(const Oracle& oracle, const Map& map) {
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    auto it = map.find(key);
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->second, value);
  }
  size_t visited = 0;
  for (const auto& kv : map) {
    ++visited;
    EXPECT_EQ(map.hash_at(&kv), Map::Hash(kv.first));
    auto it = oracle.find(kv.first);
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(kv.second, it->second);
  }
  EXPECT_EQ(visited, oracle.size());
}

/// `count` keys whose home slot in a `slots`-slot array is one of the last
/// two, so that their probe run wraps past the end of the array.
std::vector<Coords> KeysHomedAtTheEnd(size_t slots, size_t count) {
  std::vector<Coords> keys;
  for (int64_t i = 0; keys.size() < count; ++i) {
    Coords key{i, -i, 7};
    if ((Map::Hash(key) & (slots - 1)) >= slots - 2) keys.push_back(key);
  }
  return keys;
}

TEST(CoordsMapTest, InsertsThroughRehashesMatchUnorderedMap) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    Map map;
    Oracle oracle;
    size_t rehashes = 0;
    for (int i = 0; i < 5000; ++i) {
      const Coords key = RandomKey(&rng, 24);
      const size_t buckets = map.bucket_count();
      switch (i % 3) {
        case 0: {
          auto [it, inserted] = map.try_emplace(key, i);
          auto [oit, oinserted] = oracle.try_emplace(key, i);
          EXPECT_EQ(inserted, oinserted);
          EXPECT_EQ(it->second, oit->second);
          break;
        }
        case 1:
          EXPECT_EQ(map.emplace(key, i).second, oracle.emplace(key, i).second);
          break;
        default:
          map[key] += i;
          oracle[key] += i;
          break;
      }
      if (map.bucket_count() != buckets) ++rehashes;
    }
    EXPECT_GE(rehashes, 8u) << "seed " << seed;
    ExpectSame(oracle, map);

    // Present and absent keys, including ones outside the drawn domain.
    for (int i = 0; i < 2000; ++i) {
      const Coords key = RandomKey(&rng, 32);
      EXPECT_EQ(Has(map, key), oracle.count(key) == 1) << "seed " << seed;
    }
    EXPECT_EQ(map.find(Coords{1, 2}), map.end());
    EXPECT_EQ(map.find(Coords{}), map.end());
  }
}

TEST(CoordsMapTest, EraseWhileIteratingVisitsEveryEntry) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    std::mt19937_64 rng(seed);
    Map map;
    map.reserve(40);
    const size_t slots = map.bucket_count();
    ASSERT_GE(slots, 80u);
    Oracle oracle;
    // A colliding run that wraps the array, then random fill.
    for (const Coords& key : KeysHomedAtTheEnd(slots, 6)) {
      map.emplace(key, 1);
      oracle.emplace(key, 1);
    }
    while (map.size() < 40) {
      const Coords key = RandomKey(&rng, 1000);
      const int64_t value = static_cast<int64_t>(rng() % 100);
      map.try_emplace(key, value);
      oracle.try_emplace(key, value);
    }
    ASSERT_EQ(map.bucket_count(), slots) << "reserve(40) must not grow";
    ExpectSame(oracle, map);

    // The FilterOwned loop: erase roughly half, visiting each entry once.
    std::unordered_set<Coords, CoordsHash> visited;
    std::vector<Coords> erased;
    for (auto it = map.begin(); it != map.end();) {
      EXPECT_TRUE(visited.insert(it->first).second) << "visited twice";
      if (rng() % 2 == 0) {
        erased.push_back(it->first);
        oracle.erase(it->first);
        it = map.erase(it);
      } else {
        ++it;
      }
    }
    EXPECT_EQ(visited.size(), 40u) << "seed " << seed;
    ExpectSame(oracle, map);
    for (const Coords& key : erased) EXPECT_FALSE(Has(map, key));

    // The wrapped run stays reachable after every single erasure.
    Map run;
    run.reserve(40);
    Oracle run_oracle;
    for (const Coords& key : KeysHomedAtTheEnd(slots, 8)) {
      run.emplace(key, 2);
      run_oracle.emplace(key, 2);
    }
    while (!run.empty()) {
      auto victim = run.begin() + static_cast<ptrdiff_t>(rng() % run.size());
      run_oracle.erase(victim->first);
      run.erase(victim);
      ExpectSame(run_oracle, run);
    }
  }
}

TEST(CoordsMapTest, ReserveThenSwap) {
  std::mt19937_64 rng(21);
  Map a;
  a.reserve(500);
  const size_t reserved = a.bucket_count();
  Oracle a_oracle;
  for (int i = 0; i < 300; ++i) {
    const Coords key = RandomKey(&rng, 50);
    a.try_emplace(key, i);
    a_oracle.try_emplace(key, i);
  }
  Map b{{Coords{1, 1, 1}, 5}, {Coords{2, 2, 2}, 6}};
  Oracle b_oracle{{Coords{1, 1, 1}, 5}, {Coords{2, 2, 2}, 6}};

  a.swap(b);
  ExpectSame(b_oracle, a);
  ExpectSame(a_oracle, b);
  EXPECT_EQ(b.bucket_count(), reserved);
  // The reserved table keeps absorbing inserts without growing.
  while (b.size() < 500) {
    const Coords key = RandomKey(&rng, 1000);
    b.try_emplace(key, 1);
    a_oracle.try_emplace(key, 1);
  }
  EXPECT_EQ(b.bucket_count(), reserved);
  ExpectSame(a_oracle, b);

  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.bucket_count(), reserved);
  EXPECT_FALSE(Has(b, Coords{1, 1, 1}));
  b.emplace(Coords{3}, 4);
  EXPECT_EQ(b.at(Coords{3}), 4);
}

TEST(CoordsMapTest, MergeDisjointWithAndWithoutClashes) {
  for (uint64_t seed : {31u, 32u}) {
    std::mt19937_64 rng(seed);
    Map left, right;
    Oracle oracle;
    for (int i = 0; i < 400; ++i) {
      // Disjoint by construction: the first coordinate splits the sides.
      Coords key = RandomKey(&rng, 40);
      key[0] = i % 2 == 0 ? 0 : 1;
      Map& side = key[0] == 0 ? left : right;
      if (side.try_emplace(key, i).second) oracle.emplace(key, i);
    }
    const size_t from_right = right.size();
    EXPECT_TRUE(left.MergeDisjoint(std::move(right)));
    EXPECT_TRUE(right.empty());
    ExpectSame(oracle, left);
    EXPECT_GT(from_right, 0u);

    // An empty destination takes the source whole.
    Map empty;
    Map copy = left;
    EXPECT_TRUE(empty.MergeDisjoint(std::move(copy)));
    EXPECT_TRUE(empty == left);

    // A clash is reported; the destination keeps its own value and still
    // takes every non-clashing entry.
    Map clashing;
    const Coords shared = left.begin()->first;
    const int64_t kept = left.begin()->second;
    clashing.emplace(shared, kept + 1000);
    clashing.emplace(Coords{9, 9, 9}, 77);
    EXPECT_FALSE(left.MergeDisjoint(std::move(clashing)));
    oracle.emplace(Coords{9, 9, 9}, 77);
    ExpectSame(oracle, left);
    EXPECT_EQ(left.at(shared), kept);
    EXPECT_FALSE(left == empty);
  }
}

TEST(CoordsMapTest, StoredHashInsertMatchesPlainInsert) {
  std::mt19937_64 rng(41);
  Map plain, hashed;
  for (int i = 0; i < 1000; ++i) {
    const Coords key = RandomKey(&rng, 30);
    plain.try_emplace(key, i);
    hashed.try_emplace_hashed(Map::Hash(key), key, i);
  }
  EXPECT_TRUE(plain == hashed);
  // Insertion order, not hash order, is the iteration order.
  auto a = plain.begin();
  for (auto b = hashed.begin(); b != hashed.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
  }
}

}  // namespace
}  // namespace casm
