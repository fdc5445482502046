// Tests of the open-addressed ProbeTable (the cache policies' hit-path
// index) and the arena-backed SlotList it pairs with: unit coverage of the
// tricky paths (backward-shift deletion, growth, sentinel-free keys) plus a
// randomized differential test against std::unordered_map.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/probe_table.h"
#include "src/cache/slot_list.h"
#include "src/util/rng.h"

namespace {

using cdn::cache::ProbeTable;
using cdn::cache::SlotList;

TEST(ProbeTableTest, EmptyTableFindsNothing) {
  ProbeTable table;
  EXPECT_EQ(table.find(0), ProbeTable::kNil);
  EXPECT_EQ(table.find(42), ProbeTable::kNil);
  EXPECT_FALSE(table.contains(42));
  EXPECT_FALSE(table.erase(42));
  EXPECT_EQ(table.size(), 0u);
}

TEST(ProbeTableTest, InsertFindErase) {
  ProbeTable table;
  table.insert(7, 100);
  table.insert(9, 200);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(7), 100u);
  EXPECT_EQ(table.find(9), 200u);
  EXPECT_EQ(table.find(8), ProbeTable::kNil);
  EXPECT_TRUE(table.erase(7));
  EXPECT_FALSE(table.erase(7));
  EXPECT_EQ(table.find(7), ProbeTable::kNil);
  EXPECT_EQ(table.find(9), 200u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(ProbeTableTest, AnyKeyValueIsValid) {
  // Emptiness is tracked on the value side, so extreme keys (0, all-ones)
  // must behave like any other key.
  ProbeTable table;
  table.insert(0, 1);
  table.insert(~std::uint64_t{0}, 2);
  EXPECT_EQ(table.find(0), 1u);
  EXPECT_EQ(table.find(~std::uint64_t{0}), 2u);
  EXPECT_TRUE(table.erase(0));
  EXPECT_EQ(table.find(~std::uint64_t{0}), 2u);
}

TEST(ProbeTableTest, GrowthPreservesEntries) {
  ProbeTable table;
  constexpr std::uint64_t kCount = 10'000;  // forces many doublings
  for (std::uint64_t k = 0; k < kCount; ++k) {
    table.insert(k * 0x10001, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(table.size(), kCount);
  for (std::uint64_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(table.find(k * 0x10001), static_cast<std::uint32_t>(k));
  }
}

TEST(ProbeTableTest, ReserveAvoidsNothingButStaysCorrect) {
  ProbeTable reserved;
  reserved.reserve(1000);
  ProbeTable organic;
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    reserved.insert(k, static_cast<std::uint32_t>(k));
    organic.insert(k, static_cast<std::uint32_t>(k));
  }
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    EXPECT_EQ(reserved.find(k), organic.find(k));
  }
}

TEST(ProbeTableTest, ClearEmptiesButKeepsWorking) {
  ProbeTable table;
  for (std::uint64_t k = 0; k < 100; ++k) table.insert(k, 1);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(5), ProbeTable::kNil);
  table.insert(5, 50);
  EXPECT_EQ(table.find(5), 50u);
}

TEST(ProbeTableTest, DifferentialFuzzAgainstUnorderedMap) {
  // Narrow key range => long probe chains => the backward-shift deletion
  // path runs constantly.  Every operation's result must match the STL map.
  ProbeTable table;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  cdn::util::Rng rng(2024);
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t key = rng.uniform_index(512);
    const auto action = rng.uniform_index(4);
    if (action == 0) {
      if (!reference.contains(key)) {
        const auto slot = static_cast<std::uint32_t>(op);
        table.insert(key, slot);
        reference.emplace(key, slot);
      }
    } else if (action == 1) {
      EXPECT_EQ(table.erase(key), reference.erase(key) > 0) << "key " << key;
    } else if (action == 2) {
      const auto slot = static_cast<std::uint32_t>(op);
      table.insert_or_assign(key, slot);
      reference[key] = slot;
    } else {
      const auto it = reference.find(key);
      EXPECT_EQ(table.find(key),
                it == reference.end() ? ProbeTable::kNil : it->second)
          << "key " << key;
    }
    if (table.full()) {
      // Sweep before a new key would grow the table, as the freshness
      // tables prune; odd steps drop nothing, so the sweep must grow it.
      const auto dropped = [&](std::uint64_t k) {
        return op % 2 == 0 && k % 3 == key % 3;
      };
      table.erase_if(dropped);
      std::erase_if(reference, [&](const auto& e) { return dropped(e.first); });
      EXPECT_FALSE(table.full());
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  for (const auto& [key, slot] : reference) {
    EXPECT_EQ(table.find(key), slot);
  }
}

struct TestNode {
  int payload;
  std::uint32_t prev;
  std::uint32_t next;
};

std::vector<int> forward_payloads(const SlotList<TestNode>& list) {
  std::vector<int> out;
  for (std::uint32_t s = list.head(); s != SlotList<TestNode>::kNil;
       s = list[s].next) {
    out.push_back(list[s].payload);
  }
  return out;
}

TEST(SlotListTest, PushUnlinkAndMoveToFront) {
  SlotList<TestNode> list;
  const auto a = list.alloc({1, 0, 0});
  const auto b = list.alloc({2, 0, 0});
  const auto c = list.alloc({3, 0, 0});
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  EXPECT_EQ(forward_payloads(list), (std::vector<int>{1, 2, 3}));

  list.move_to_front(c);
  EXPECT_EQ(forward_payloads(list), (std::vector<int>{3, 1, 2}));
  list.move_to_front(c);  // already at head: no-op
  EXPECT_EQ(forward_payloads(list), (std::vector<int>{3, 1, 2}));

  list.remove(a);
  EXPECT_EQ(forward_payloads(list), (std::vector<int>{3, 2}));
  EXPECT_EQ(list.size(), 2u);

  // Freed slot is recycled before the arena grows.
  const auto d = list.alloc({4, 0, 0});
  EXPECT_EQ(d, a);
  list.insert_before(d, list.head());
  EXPECT_EQ(forward_payloads(list), (std::vector<int>{4, 3, 2}));
  EXPECT_EQ(list.tail(), b);
}

TEST(SlotListTest, InsertBeforeNilAppends) {
  SlotList<TestNode> list;
  const auto a = list.alloc({1, 0, 0});
  list.insert_before(a, SlotList<TestNode>::kNil);
  const auto b = list.alloc({2, 0, 0});
  list.insert_before(b, SlotList<TestNode>::kNil);
  EXPECT_EQ(forward_payloads(list), (std::vector<int>{1, 2}));
  EXPECT_EQ(list.head(), a);
  EXPECT_EQ(list.tail(), b);
}

}  // namespace
