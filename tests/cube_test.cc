// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Unit tests for src/cube: hierarchies (numeric + nominal), schemas,
// granularities and region arithmetic.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cube/granularity.h"
#include "cube/hierarchy.h"
#include "cube/region.h"
#include "cube/schema.h"

namespace casm {
namespace {

Hierarchy TimeHierarchy() {
  return Hierarchy::Numeric("Time", 2 * 86400, {60, 3600, 86400},
                            {"second", "minute", "hour", "day"})
      .value();
}

Hierarchy KeywordHierarchy() {
  // 12 words in 4 groups of 3, then 2 super-groups of 2 groups.
  std::vector<int64_t> to_group(12), to_super(12);
  for (int64_t w = 0; w < 12; ++w) {
    to_group[static_cast<size_t>(w)] = w / 3;
    to_super[static_cast<size_t>(w)] = w / 6;
  }
  return Hierarchy::Nominal("Keyword", 12, {to_group, to_super},
                            {"word", "group", "super"})
      .value();
}

TEST(HierarchyTest, NumericLevels) {
  Hierarchy h = TimeHierarchy();
  EXPECT_EQ(h.num_levels(), 5);  // + ALL
  EXPECT_EQ(h.level_name(0), "second");
  EXPECT_EQ(h.level_name(4), "ALL");
  EXPECT_TRUE(h.is_all(4));
  EXPECT_EQ(h.unit(0), 1);
  EXPECT_EQ(h.unit(2), 3600);
  EXPECT_EQ(h.LevelValueCount(3), 2);   // 2 days
  EXPECT_EQ(h.LevelValueCount(1), 2 * 1440);
  EXPECT_EQ(h.LevelValueCount(4), 1);
}

TEST(HierarchyTest, NumericMapFromFinest) {
  Hierarchy h = TimeHierarchy();
  EXPECT_EQ(h.MapFromFinest(0, 0), 0);
  EXPECT_EQ(h.MapFromFinest(59, 1), 0);
  EXPECT_EQ(h.MapFromFinest(60, 1), 1);
  EXPECT_EQ(h.MapFromFinest(86399, 3), 0);
  EXPECT_EQ(h.MapFromFinest(86400, 3), 1);
  EXPECT_EQ(h.MapFromFinest(123456, 4), 0);  // ALL
}

TEST(HierarchyTest, NumericMapUp) {
  Hierarchy h = TimeHierarchy();
  // minute 61 -> hour 1, day 0.
  EXPECT_EQ(h.MapUp(61, 1, 2), 1);
  EXPECT_EQ(h.MapUp(61, 1, 3), 0);
  EXPECT_EQ(h.MapUp(61, 1, 1), 61);
  EXPECT_EQ(h.MapUp(61, 1, 4), 0);  // ALL
}

TEST(HierarchyTest, NumericRejectsNonNestedUnits) {
  EXPECT_FALSE(
      Hierarchy::Numeric("X", 100, {4, 6}, {"a", "b", "c"}).ok());
  EXPECT_FALSE(Hierarchy::Numeric("X", 100, {4, 4}, {"a", "b", "c"}).ok());
  EXPECT_FALSE(Hierarchy::Numeric("X", 0, {}, {"a"}).ok());
  EXPECT_FALSE(Hierarchy::Numeric("X", 100, {4}, {"a"}).ok());
}

TEST(HierarchyTest, NominalLevels) {
  Hierarchy h = KeywordHierarchy();
  EXPECT_EQ(h.kind(), AttributeKind::kNominal);
  EXPECT_EQ(h.num_levels(), 4);
  EXPECT_EQ(h.LevelValueCount(0), 12);
  EXPECT_EQ(h.LevelValueCount(1), 4);
  EXPECT_EQ(h.LevelValueCount(2), 2);
  EXPECT_EQ(h.LevelValueCount(3), 1);
}

TEST(HierarchyTest, NominalMapFromFinestAndUp) {
  Hierarchy h = KeywordHierarchy();
  EXPECT_EQ(h.MapFromFinest(7, 0), 7);
  EXPECT_EQ(h.MapFromFinest(7, 1), 2);
  EXPECT_EQ(h.MapFromFinest(7, 2), 1);
  EXPECT_EQ(h.MapUp(2, 1, 2), 1);  // group 2 -> super 1
  EXPECT_EQ(h.MapUp(0, 1, 2), 0);
  EXPECT_EQ(h.MapUp(3, 1, 3), 0);  // ALL
}

TEST(HierarchyTest, NominalRejectsNonNestingLevels) {
  // Level 2 splits a level-1 group: invalid.
  std::vector<int64_t> to_group = {0, 0, 1, 1};
  std::vector<int64_t> bad_super = {0, 1, 1, 1};
  EXPECT_FALSE(
      Hierarchy::Nominal("K", 4, {to_group, bad_super}, {"w", "g", "s"}).ok());
}

TEST(HierarchyTest, NominalRejectsIncompleteMap) {
  std::vector<int64_t> short_map = {0, 0, 1};
  EXPECT_FALSE(Hierarchy::Nominal("K", 4, {short_map}, {"w", "g"}).ok());
}

TEST(HierarchyTest, LevelByName) {
  Hierarchy h = TimeHierarchy();
  EXPECT_EQ(h.LevelByName("hour").value(), 2);
  EXPECT_EQ(h.LevelByName("ALL").value(), 4);
  EXPECT_FALSE(h.LevelByName("fortnight").ok());
}

SchemaPtr TestSchema() {
  return MakeSchemaOrDie({KeywordHierarchy(), TimeHierarchy()});
}

TEST(SchemaTest, AttributeLookup) {
  SchemaPtr schema = TestSchema();
  EXPECT_EQ(schema->num_attributes(), 2);
  EXPECT_EQ(schema->AttributeIndex("Time").value(), 1);
  EXPECT_FALSE(schema->AttributeIndex("Nope").ok());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  EXPECT_FALSE(
      Schema::Create({TimeHierarchy(), TimeHierarchy()}).ok());
  EXPECT_FALSE(Schema::Create({}).ok());
}

TEST(SchemaTest, RejectsSchemasWiderThanRegionKeys) {
  std::vector<Hierarchy> attrs;
  for (int i = 0; i <= Schema::kMaxAttributes; ++i) {
    attrs.push_back(Hierarchy::Numeric(std::string("A").append(
                                           std::to_string(i)),
                                       100, {10},
                                       {"unit", "ten"})
                        .value());
  }
  Result<Schema> too_wide = Schema::Create(attrs);
  EXPECT_EQ(too_wide.status().code(), StatusCode::kInvalidArgument);
  attrs.pop_back();
  Result<Schema> widest = Schema::Create(attrs);
  ASSERT_TRUE(widest.ok()) << widest.status();
  EXPECT_EQ(widest->num_attributes(), Schema::kMaxAttributes);
}

TEST(GranularityTest, OfAndToString) {
  SchemaPtr schema = TestSchema();
  Granularity g =
      Granularity::Of(*schema, {{"Keyword", "word"}, {"Time", "hour"}})
          .value();
  EXPECT_EQ(g.level(0), 0);
  EXPECT_EQ(g.level(1), 2);
  EXPECT_EQ(g.ToString(*schema), "<Keyword:word, Time:hour>");

  Granularity top = Granularity::Top(*schema);
  EXPECT_EQ(top.ToString(*schema), "<>");
  EXPECT_FALSE(Granularity::Of(*schema, {{"Bogus", "word"}}).ok());
}

TEST(GranularityTest, GeneralityOrderAndLca) {
  SchemaPtr schema = TestSchema();
  Granularity word_min =
      Granularity::Of(*schema, {{"Keyword", "word"}, {"Time", "minute"}})
          .value();
  Granularity word_hour =
      Granularity::Of(*schema, {{"Keyword", "word"}, {"Time", "hour"}})
          .value();
  Granularity group_min =
      Granularity::Of(*schema, {{"Keyword", "group"}, {"Time", "minute"}})
          .value();

  EXPECT_TRUE(word_hour.IsMoreGeneralOrEqual(word_min));
  EXPECT_FALSE(word_min.IsMoreGeneralOrEqual(word_hour));
  // Incomparable pair.
  EXPECT_FALSE(word_hour.IsMoreGeneralOrEqual(group_min));
  EXPECT_FALSE(group_min.IsMoreGeneralOrEqual(word_hour));

  Granularity lca = Granularity::Lca(word_hour, group_min);
  EXPECT_EQ(lca.ToString(*schema), "<Keyword:group, Time:hour>");
  EXPECT_TRUE(lca.IsMoreGeneralOrEqual(word_hour));
  EXPECT_TRUE(lca.IsMoreGeneralOrEqual(group_min));
}

TEST(GranularityTest, NumRegions) {
  SchemaPtr schema = TestSchema();
  Granularity g =
      Granularity::Of(*schema, {{"Keyword", "group"}, {"Time", "day"}})
          .value();
  EXPECT_EQ(g.NumRegions(*schema), 4 * 2);
  EXPECT_EQ(Granularity::Top(*schema).NumRegions(*schema), 1);
}

TEST(RegionTest, RegionOfRecordAndMapUp) {
  SchemaPtr schema = TestSchema();
  Granularity fine =
      Granularity::Of(*schema, {{"Keyword", "word"}, {"Time", "minute"}})
          .value();
  Granularity coarse =
      Granularity::Of(*schema, {{"Keyword", "group"}, {"Time", "hour"}})
          .value();
  int64_t record[2] = {7, 3700};  // word 7, second 3700 (minute 61, hour 1)
  Coords fine_coords = RegionOfRecord(*schema, fine, record);
  EXPECT_EQ(fine_coords, (Coords{7, 61}));
  Coords up = MapRegionUp(*schema, fine, fine_coords, coarse);
  EXPECT_EQ(up, (Coords{2, 1}));
  // Mapping up must agree with direct extraction at the coarse level.
  EXPECT_EQ(up, RegionOfRecord(*schema, coarse, record));
}

TEST(RegionTest, CoordsToStringOmitsAll) {
  SchemaPtr schema = TestSchema();
  Granularity g = Granularity::Of(*schema, {{"Time", "day"}}).value();
  int64_t record[2] = {3, 90000};
  Coords coords = RegionOfRecord(*schema, g, record);
  EXPECT_EQ(CoordsToString(*schema, g, coords), "[Time=1]");
}

TEST(RegionTest, CoordsHaveValueSemantics) {
  Coords zeros(3);
  EXPECT_EQ(zeros.size(), 3u);
  EXPECT_EQ(zeros, (Coords{0, 0, 0}));
  EXPECT_TRUE(Coords().empty());

  const int64_t raw[] = {4, -2, 9};
  Coords from_range(raw, raw + 3);
  Coords from_list{4, -2, 9};
  EXPECT_EQ(from_range, from_list);
  EXPECT_EQ(std::vector<int64_t>(from_list.begin(), from_list.end()),
            std::vector<int64_t>({4, -2, 9}));

  Coords copy = from_list;
  copy[1] = 5;
  EXPECT_EQ(from_list[1], -2);  // the copy owns its coordinates
  EXPECT_NE(copy, from_list);
  EXPECT_EQ(copy, (Coords{4, 5, 9}));

  // Lexicographic, like std::vector: first difference decides, and a
  // proper prefix sorts first.
  EXPECT_LT(from_list, copy);
  EXPECT_FALSE(copy < from_list);
  EXPECT_FALSE(copy < copy);
  EXPECT_LT((Coords{4, -2}), from_list);
  EXPECT_LT((Coords{-1, 100, 100}), (Coords{0, 0, 0}));
  EXPECT_NE((Coords{0, 0}), (Coords{0, 0, 0}));
}

TEST(RegionTest, CoordsHashDistinguishesNeighbours) {
  CoordsHash hash;
  EXPECT_NE(hash(Coords{0, 0}), hash(Coords{0, 1}));
  EXPECT_NE(hash(Coords{1, 0}), hash(Coords{0, 1}));
  EXPECT_EQ(hash(Coords{5, 9}), hash(Coords{5, 9}));
}

TEST(RegionTest, CoordsHashSpreadsGridsOverMorselPartitions) {
  // A 2-D grid is the typical region-key set of one block; the morsel
  // engine picks partition hash % 64, so the low bits must spread it
  // evenly — also when every coordinate shares its low bits (stride
  // 1024), which defeats hashes without a final avalanche. 128 x 128
  // keys = 256 per partition on average.
  constexpr size_t kPartitions = 64;
  constexpr int64_t kSide = 128;
  const double mean =
      static_cast<double>(kSide * kSide) / static_cast<double>(kPartitions);
  for (int64_t stride : {1, 1024}) {
    std::vector<int64_t> per_partition(kPartitions, 0);
    for (int64_t x = 0; x < kSide; ++x) {
      for (int64_t y = 0; y < kSide; ++y) {
        const Coords key{x * stride, y * stride, 0, 0, 0, 0};
        ++per_partition[CoordsHash()(key) % kPartitions];
      }
    }
    // Binomial sd ~ 16 at this mean; +-25% of the mean is ~4 sd.
    for (size_t p = 0; p < kPartitions; ++p) {
      EXPECT_GE(per_partition[p], 0.75 * mean)
          << "stride " << stride << " partition " << p;
      EXPECT_LE(per_partition[p], 1.25 * mean)
          << "stride " << stride << " partition " << p;
    }
  }
}

}  // namespace
}  // namespace casm
