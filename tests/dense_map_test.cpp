// Tests for the dense slot-indexed containers (common/dense_map.hpp):
// StableVector pointer stability, DenseIdMap insert/erase/slot-reuse
// semantics, deterministic slot-order iteration, handle stability under
// growth, and a randomized differential test against std::map.

#include "common/dense_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <algorithm>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "ran/ue_soa.hpp"

namespace slices {
namespace {

TEST(StableVector, PushSlotReturnsSequentialIndices) {
  StableVector<int> v;
  EXPECT_TRUE(v.empty());
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(v.push_slot(), i);
    v[i] = static_cast<int>(i);
  }
  EXPECT_EQ(v.size(), 1000u);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], static_cast<int>(i));
}

TEST(StableVector, PointersSurviveGrowth) {
  StableVector<std::string> v;
  const std::size_t first = v.push_slot();
  v[first] = "anchor";
  std::string* anchor = &v[first];
  // Grow well past several 256-element blocks.
  for (std::size_t i = 0; i < 5000; ++i) {
    const std::size_t slot = v.push_slot();
    v[slot] = std::to_string(slot);
  }
  EXPECT_EQ(anchor, &v[first]);
  EXPECT_EQ(*anchor, "anchor");
  EXPECT_EQ(v[4321], "4321");
}

TEST(DenseIdMap, InsertFindErase) {
  DenseIdMap<UeId, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(UeId{1}), nullptr);
  EXPECT_FALSE(map.erase(UeId{1}));

  ASSERT_NE(map.insert(UeId{1}, 10), nullptr);
  ASSERT_NE(map.insert(UeId{2}, 20), nullptr);
  EXPECT_EQ(map.insert(UeId{1}, 99), nullptr);  // duplicate: rejected
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(UeId{1}), nullptr);
  EXPECT_EQ(*map.find(UeId{1}), 10);  // duplicate insert left value alone

  map.insert_or_assign(UeId{1}, 11);
  EXPECT_EQ(*map.find(UeId{1}), 11);

  EXPECT_TRUE(map.erase(UeId{1}));
  EXPECT_FALSE(map.erase(UeId{1}));
  EXPECT_EQ(map.find(UeId{1}), nullptr);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.contains(UeId{2}));
}

TEST(DenseIdMap, ErasedSlotsAreReusedLifo) {
  DenseIdMap<UeId, int> map;
  for (std::uint64_t i = 1; i <= 6; ++i) map.insert(UeId{i}, static_cast<int>(i));
  const std::uint32_t slot2 = map.slot_of(UeId{2});
  const std::uint32_t slot5 = map.slot_of(UeId{5});
  ASSERT_TRUE(map.erase(UeId{2}));
  ASSERT_TRUE(map.erase(UeId{5}));
  // LIFO: the next insert takes 5's slot, the one after takes 2's.
  map.insert(UeId{100}, 100);
  map.insert(UeId{200}, 200);
  EXPECT_EQ(map.slot_of(UeId{100}), slot5);
  EXPECT_EQ(map.slot_of(UeId{200}), slot2);
  EXPECT_EQ(map.slot_count(), 6u);  // arena did not grow
}

TEST(DenseIdMap, IterationIsSlotOrdered) {
  DenseIdMap<UeId, int> map;
  for (std::uint64_t i = 1; i <= 5; ++i) map.insert(UeId{i}, static_cast<int>(i));
  ASSERT_TRUE(map.erase(UeId{3}));

  std::vector<std::uint64_t> seen;
  for (const auto& [ue, value] : map) {
    seen.push_back(ue.value());
    EXPECT_EQ(value, static_cast<int>(ue.value()));
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 4, 5}));

  // A new key fills the freed slot and shows up mid-sequence, exactly
  // where the erased key used to be.
  map.insert(UeId{42}, 42);
  seen.clear();
  for (const auto& [ue, value] : map) seen.push_back(ue.value());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 42, 4, 5}));
}

TEST(DenseIdMap, IterationOrderIsAFunctionOfOperationHistory) {
  // Two maps fed the same operation sequence iterate identically —
  // the property the epoch loop's determinism contract relies on.
  DenseIdMap<UeId, int> a;
  DenseIdMap<UeId, int> b;
  Rng rng(7);
  std::vector<UeId> live;
  for (int op = 0; op < 2000; ++op) {
    if (live.empty() || rng.uniform() < 0.6) {
      const UeId id{static_cast<std::uint64_t>(op) + 1};
      a.insert(id, op);
      b.insert(id, op);
      live.push_back(id);
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      a.erase(live[pick]);
      b.erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end() && itb != b.end(); ++ita, ++itb) {
    EXPECT_EQ((*ita).key, (*itb).key);
    EXPECT_EQ((*ita).value, (*itb).value);
  }
  EXPECT_EQ(ita == a.end(), itb == b.end());
}

TEST(DenseIdMap, HandlesStayValidUnderGrowth) {
  DenseIdMap<UeId, std::uint64_t> map;
  std::vector<std::uint64_t*> handles;
  constexpr std::uint64_t kCount = 10000;  // many rehashes + arena blocks
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    handles.push_back(map.insert(UeId{i}, i * 3));
  }
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    EXPECT_EQ(map.find(UeId{i}), handles[i - 1]);
    EXPECT_EQ(*handles[i - 1], i * 3);
  }
}

TEST(DenseIdMap, ReserveAvoidsRehashButKeepsSemantics) {
  DenseIdMap<UeId, int> map;
  map.reserve(5000);
  for (std::uint64_t i = 1; i <= 5000; ++i) map.insert(UeId{i}, static_cast<int>(i));
  EXPECT_EQ(map.size(), 5000u);
  EXPECT_EQ(*map.find(UeId{4999}), 4999);
}

struct PairKey {
  std::uint32_t a = ~std::uint32_t{0};
  std::uint32_t b = ~std::uint32_t{0};
  friend bool operator==(PairKey, PairKey) = default;
};

struct PairKeyTraits {
  [[nodiscard]] static constexpr PairKey invalid() noexcept { return PairKey{}; }
  [[nodiscard]] static constexpr std::uint64_t hash(PairKey k) noexcept {
    return dense_mix64((std::uint64_t{k.a} << 32) | k.b);
  }
};

TEST(DenseIdMap, CustomKeyTraits) {
  DenseIdMap<PairKey, int, PairKeyTraits> map;
  for (std::uint32_t a = 0; a < 20; ++a) {
    for (std::uint32_t b = 0; b < 20; ++b) {
      map.insert(PairKey{a, b}, static_cast<int>(a * 100 + b));
    }
  }
  EXPECT_EQ(map.size(), 400u);
  ASSERT_NE(map.find(PairKey{7, 13}), nullptr);
  EXPECT_EQ(*map.find(PairKey{7, 13}), 713);
  EXPECT_TRUE(map.erase(PairKey{7, 13}));
  EXPECT_EQ(map.find(PairKey{7, 13}), nullptr);
  EXPECT_EQ(map.size(), 399u);
}

TEST(DenseIdMap, RandomizedDifferentialAgainstStdMap) {
  // Fuzz-style differential test: a long random mix of insert /
  // insert_or_assign / erase / find, mirrored into std::map; contents
  // must agree after every operation batch. Keys are drawn from a small
  // range so collisions, reuse and backward-shift deletion all trigger.
  DenseIdMap<UeId, std::uint64_t> dense;
  std::map<UeId, std::uint64_t> reference;
  Rng rng(1213);
  for (int op = 0; op < 50000; ++op) {
    const UeId key{static_cast<std::uint64_t>(rng.uniform_int(1, 400))};
    switch (rng.uniform_int(0, 3)) {
      case 0: {  // insert (no overwrite)
        const std::uint64_t value = rng.next_u64();
        const bool dense_inserted = dense.insert(key, value) != nullptr;
        const bool ref_inserted = reference.emplace(key, value).second;
        ASSERT_EQ(dense_inserted, ref_inserted);
        break;
      }
      case 1: {  // insert_or_assign
        const std::uint64_t value = rng.next_u64();
        dense.insert_or_assign(key, value);
        reference[key] = value;
        break;
      }
      case 2: {  // erase
        ASSERT_EQ(dense.erase(key), reference.erase(key) > 0);
        break;
      }
      default: {  // find
        const std::uint64_t* found = dense.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) ASSERT_EQ(*found, it->second);
        break;
      }
    }
    ASSERT_EQ(dense.size(), reference.size());
    if (op % 1000 == 999) {
      // Full-content sweep: every dense entry is in the reference...
      std::size_t walked = 0;
      for (const auto& [key_seen, value] : dense) {
        const auto it = reference.find(key_seen);
        ASSERT_NE(it, reference.end());
        ASSERT_EQ(value, it->second);
        ++walked;
      }
      // ...and the counts match, so the sets are equal.
      ASSERT_EQ(walked, reference.size());
    }
  }
}

TEST(DenseIdMap, EraseCanMoveTheValueOut) {
  DenseIdMap<UeId, std::string> map;
  map.insert(UeId{3}, "three");
  std::string taken;
  EXPECT_FALSE(map.erase(UeId{4}, &taken));
  EXPECT_TRUE(taken.empty());
  EXPECT_TRUE(map.erase(UeId{3}, &taken));
  EXPECT_EQ(taken, "three");
  EXPECT_EQ(map.find(UeId{3}), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(DenseIdMap, ClearResetsEverything) {
  DenseIdMap<UeId, int> map;
  for (std::uint64_t i = 1; i <= 100; ++i) map.insert(UeId{i}, 1);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.slot_count(), 0u);
  EXPECT_EQ(map.find(UeId{50}), nullptr);
  map.insert(UeId{50}, 2);
  EXPECT_EQ(*map.find(UeId{50}), 2);
}

// --- UeSoa column store -----------------------------------------------------
//
// The epoch kernel's column store must keep the same contents AND the
// same iteration order as an AoS layout (one record per DenseIdMap
// slot) under any attach/detach history, so that a given history fills
// the same rows as it did before the SoA rewrite. The store keeps no UE
// identity at all (a row is its PLMN and CQI bytes, CQI 0 marking a
// hole); like RanController, the tests own the id -> row map.

TEST(UeSoa, RandomizedDiffAgainstDenseIdMap) {
  struct LegacyUe {
    std::uint8_t plmn_index;
    std::uint8_t cqi;
  };
  ran::UeSoa soa;
  DenseIdMap<UeId, LegacyUe> legacy;
  DenseIdMap<UeId, std::uint32_t> rows;  // the owner's id -> row index

  Rng rng(0xD1FFu);
  for (int op = 0; op < 20000; ++op) {
    const UeId ue{static_cast<std::uint64_t>(rng.uniform_int(1, 300))};
    switch (rng.uniform_int(0, 2)) {
      case 0:
      case 1: {  // attach (biased: populations grow)
        const auto plmn = static_cast<std::uint8_t>(rng.uniform_int(0, 5));
        const auto cqi_value = static_cast<int>(rng.uniform_int(1, 15));
        const bool legacy_inserted =
            legacy.insert(ue, LegacyUe{plmn, static_cast<std::uint8_t>(cqi_value)}) !=
            nullptr;
        ASSERT_EQ(!rows.contains(ue), legacy_inserted);
        if (!legacy_inserted) break;  // the owner never re-inserts a live id
        const std::uint32_t row = soa.insert(plmn, ran::Cqi{cqi_value});
        // Row assignment is DenseIdMap slot assignment.
        ASSERT_EQ(row, legacy.slot_of(ue));
        rows.insert(ue, row);
        break;
      }
      default: {  // detach
        std::uint32_t row = 0;
        const bool present = rows.erase(ue, &row);
        ASSERT_EQ(present, legacy.erase(ue));
        if (present) soa.erase(row);
        break;
      }
    }
    ASSERT_EQ(soa.size(), legacy.size());

    if (op % 500 == 499) {
      // The live-row walk must visit the same UEs, with the same
      // attributes, in the same order as DenseIdMap slot iteration. The
      // owner's map names each row's UE; every other row is a hole and
      // reads CQI 0.
      std::vector<UeId> owner(soa.cqi_column().size(), UeId::invalid());
      for (const auto& [ue_id, row] : rows) owner[row] = ue_id;
      std::vector<UeId> soa_order;
      for (std::uint32_t row = 0; row < soa.cqi_column().size(); ++row) {
        ASSERT_EQ(soa.live(row), owner[row].valid()) << "row " << row;
        if (!soa.live(row)) {
          ASSERT_EQ(soa.cqi_column()[row], 0) << "row " << row;
          continue;
        }
        const UeId seen = owner[row];
        soa_order.push_back(seen);
        ASSERT_EQ(row, legacy.slot_of(seen));
        const LegacyUe* ref = legacy.find(seen);
        ASSERT_NE(ref, nullptr);
        ASSERT_EQ(soa.plmn_slot_at(row), ref->plmn_index);
        ASSERT_EQ(soa.cqi_at(row).index(), static_cast<int>(ref->cqi));
      }
      std::vector<UeId> legacy_order;
      for (const auto& [seen, unused] : legacy) legacy_order.push_back(seen);
      ASSERT_EQ(soa_order, legacy_order);
    }
  }
}

TEST(UeSoa, RowsReusedLifoAndColumnsStayAligned) {
  ran::UeSoa soa;
  for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(soa.insert(0, ran::Cqi{7}), i);
  soa.erase(1);
  soa.erase(4);
  EXPECT_FALSE(soa.live(1));
  EXPECT_FALSE(soa.live(4));
  // A hole reads CQI 0, which no live row can hold.
  EXPECT_EQ(soa.cqi_column()[1], 0);
  EXPECT_EQ(soa.cqi_column()[4], 0);
  // LIFO: the most recently freed row (4) is handed out first.
  EXPECT_EQ(soa.insert(3, ran::Cqi{12}), 4u);
  EXPECT_EQ(soa.insert(1, ran::Cqi{3}), 1u);
  EXPECT_EQ(soa.insert(2, ran::Cqi{9}), 6u);  // free list empty: append
  EXPECT_EQ(soa.plmn_slot_at(4), 3);
  EXPECT_EQ(soa.cqi_at(4).index(), 12);
  EXPECT_EQ(soa.cqi_at(1).index(), 3);
  EXPECT_EQ(soa.size(), 7u);
  EXPECT_EQ(soa.cqi_column().size(), 7u);
  // A reused row takes the new UE's attributes in every column.
  soa.erase(4);
  EXPECT_EQ(soa.cqi_column()[4], 0);
  EXPECT_EQ(soa.insert(5, ran::Cqi{2}), 4u);
  EXPECT_TRUE(soa.live(4));
  EXPECT_EQ(soa.plmn_slot_at(4), 5);
  EXPECT_EQ(soa.cqi_at(4).index(), 2);
  EXPECT_EQ(soa.cqi_column()[4], 2);
}

}  // namespace
}  // namespace slices
