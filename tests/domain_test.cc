#include "domain/domain.h"

#include <algorithm>
#include <cstdio>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_countdown.h"
#include "gtest/gtest.h"
#include "util/rng.h"
#include "workload/key_gen.h"

namespace cssidx::domain {
namespace {

TEST(IntDomain, BuildSortsAndDedups) {
  auto d = IntDomain::FromValues({5, 3, 9, 3, 5, 1});
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.values(), (std::vector<uint32_t>{1, 3, 5, 9}));
}

TEST(Domain, FromSortedColumnYieldsTheDictionaryAndTheColumnIds) {
  // A load sorts its column, then one run-length pass must give what
  // FromValues and EncodeColumn give: the same dictionary, and each cell
  // encoded. Empty, all-equal, unsorted and empty-string columns.
  const std::vector<std::vector<std::string>> columns = {
      {},
      {"x", "x", "x"},
      {"pear", "", "fig", "", "pear", "apple", "fig"},
      {""},
      {"", "", "b", "a"}};
  for (const std::vector<std::string>& column : columns) {
    std::vector<std::string> sorted = column;
    std::sort(sorted.begin(), sorted.end());
    const StringDomain oracle = StringDomain::FromValues(column);
    const std::vector<uint32_t> want_ids = oracle.EncodeColumn(sorted, nullptr);
    std::vector<uint32_t> ids = {7, 7};  // stale contents are replaced
    const StringDomain d = StringDomain::FromSortedColumn(sorted, &ids);
    EXPECT_EQ(d.values(), oracle.values());
    EXPECT_EQ(ids, want_ids);
    for (const std::string& v : column) EXPECT_EQ(d.Encode(v), oracle.Encode(v));
  }

  std::vector<uint32_t> column = {9, 1, 4, 1, 9, 9};
  std::sort(column.begin(), column.end());
  std::vector<uint32_t> ids;
  const IntDomain d = IntDomain::FromSortedColumn(column, &ids);
  EXPECT_EQ(d.values(), (std::vector<uint32_t>{1, 4, 9}));
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 0, 1, 2, 2, 2}));
  EXPECT_EQ(d.Encode(4), std::optional<uint32_t>(1));  // directory built
  EXPECT_EQ(IntDomain::FromSortedColumn({}, nullptr).size(), 0u);
}

TEST(IntDomain, EncodeDecodeRoundTrip) {
  auto values = workload::DistinctSortedKeys(10'000, 3, 8);
  auto d = IntDomain::FromValues(values);
  for (size_t i = 0; i < values.size(); i += 53) {
    auto id = d.Encode(values[i]);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, i);
    EXPECT_EQ(d.Decode(*id), values[i]);
  }
  EXPECT_FALSE(d.Encode(values.back() + 1).has_value());
}

TEST(IntDomain, IdsAreOrderPreserving) {
  auto d = IntDomain::FromValues({100, 50, 200, 10});
  // §2.1: inequality predicates evaluate on IDs directly.
  EXPECT_LT(*d.Encode(10), *d.Encode(50));
  EXPECT_LT(*d.Encode(50), *d.Encode(100));
  EXPECT_LT(*d.Encode(100), *d.Encode(200));
}

TEST(IntDomain, EncodeColumnReportsMissing) {
  auto d = IntDomain::FromValues({10, 20, 30});
  std::vector<size_t> missing;
  auto ids = d.EncodeColumn({10, 99, 30, 77}, &missing);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[2], 2u);
  EXPECT_EQ(missing, (std::vector<size_t>{1, 3}));
}

TEST(IntDomain, LowerBoundIdForRangePredicates) {
  auto d = IntDomain::FromValues({10, 20, 30, 40});
  EXPECT_EQ(d.LowerBoundId(25), 2u);  // first value >= 25 is 30 (id 2)
  EXPECT_EQ(d.LowerBoundId(10), 0u);
  EXPECT_EQ(d.LowerBoundId(41), 4u);  // past the end
}

TEST(StringDomain, EncodeDecode) {
  auto d = StringDomain::FromValues({"cherry", "apple", "banana", "apple"});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(*d.Encode("apple"), 0u);
  EXPECT_EQ(*d.Encode("banana"), 1u);
  EXPECT_EQ(*d.Encode("cherry"), 2u);
  EXPECT_FALSE(d.Encode("durian").has_value());
  EXPECT_EQ(d.Decode(1), "banana");
}

TEST(StringDomain, OrderPreservingForStrings) {
  auto d = StringDomain::FromValues({"delta", "alpha", "charlie", "bravo"});
  EXPECT_LT(*d.Encode("alpha"), *d.Encode("bravo"));
  EXPECT_LT(*d.Encode("bravo"), *d.Encode("charlie"));
  // Range predicate name < "c" on IDs:
  uint32_t cutoff = d.LowerBoundId("c");
  EXPECT_EQ(cutoff, 2u);  // alpha, bravo are below
}

TEST(StringDomain, LooksUpViewsIntoALargerBufferWithoutAllocating) {
  auto d = StringDomain::FromValues({"ant", "bee", "beetle", "cat"});
  // A statement's tokens are views into its text: no NUL after a token,
  // and the bytes that follow belong to the next one.
  const char text[] = {'b', 'e', 'e', 't', 'l', 'e', 'c', 'a'};
  const std::string_view bee(text, 3), beet(text, 4), beetle(text, 6);
  const std::string_view ca(text + 6, 2);
  g_allocs_left = 0;  // any allocation below throws
  const std::optional<uint32_t> bee_id = d.Encode(bee);
  const std::optional<uint32_t> beetle_id = d.Encode(beetle);
  const std::optional<uint32_t> beet_id = d.Encode(beet);
  const uint32_t beet_bound = d.LowerBoundId(beet);
  const uint32_t ca_bound = d.LowerBoundId(ca);
  g_allocs_left = -1;
  EXPECT_EQ(bee_id, 1u);
  EXPECT_EQ(beetle_id, 2u);
  EXPECT_FALSE(beet_id.has_value());
  EXPECT_EQ(beet_bound, 2u);  // between "bee" and "beetle"
  EXPECT_EQ(ca_bound, 3u);    // below "cat"
}

TEST(StringDomain, EncodeBatchMatchesEncodeAtEveryBatchSize) {
  // Dictionaries of 0, 1, 2, 3 and 50 values (the lockstep search runs a
  // different number of halvings for each), probed by present tokens
  // plus absent ones: empty, below the minimum, above the maximum, and
  // between neighbors. Batch sizes 0-33 cover an empty batch, partial
  // groups, a full group and a full group plus one.
  std::vector<std::string> all;
  for (int i = 0; i < 50; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "v%06d", i * 2);
    all.push_back(buf);
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{50}}) {
    const auto d = StringDomain::FromValues(
        std::vector<std::string>(all.begin(), all.begin() + n));
    std::vector<std::string> tokens = {"", "a", "v", "v000001", "v000002",
                                       "v000098", "v000099", "w", "zzz"};
    for (size_t i = 0; i < n; ++i) tokens.push_back(all[i]);
    Pcg32 gen(n);
    for (size_t batch = 0; batch <= 33; ++batch) {
      std::vector<std::string_view> views(batch);
      for (auto& view : views) view = tokens[gen.Below(static_cast<uint32_t>(tokens.size()))];
      std::vector<uint32_t> ids(batch, 7);
      d.EncodeBatch(views, ids);
      for (size_t i = 0; i < batch; ++i) {
        EXPECT_EQ(ids[i], d.Encode(views[i]).value_or(kAbsentId))
            << "n=" << n << " batch=" << batch << " token '" << views[i]
            << "'";
      }
    }
  }
}

TEST(StringDomain, RandomValuesRoundTripAgainstSortedDistinctOracle) {
  // Property test for the serving/engine string path: a dictionary built
  // from a random multiset of words must behave exactly like the STL
  // sorted-distinct oracle for Encode, Decode, and LowerBoundId — for
  // values inside the dictionary AND probe strings that are not (prefixes,
  // extensions, the empty string).
  Pcg32 rng(0x5712);
  const std::string alphabet = "abcdz";
  auto random_word = [&] {
    std::string w(1 + rng.Below(6), 'a');
    for (auto& c : w) c = alphabet[rng.Below(5)];
    return w;
  };
  std::vector<std::string> values(2'000);
  for (auto& v : values) v = random_word();
  values.push_back("");  // the empty string sorts first; keep it legal

  std::vector<std::string> oracle = values;
  std::sort(oracle.begin(), oracle.end());
  oracle.erase(std::unique(oracle.begin(), oracle.end()), oracle.end());

  auto d = StringDomain::FromValues(values);
  ASSERT_EQ(d.size(), oracle.size());
  for (uint32_t id = 0; id < oracle.size(); ++id) {
    ASSERT_EQ(d.Decode(id), oracle[id]);
    ASSERT_EQ(d.Encode(oracle[id]), std::optional<uint32_t>(id));
  }
  std::vector<std::string> probes;
  for (int i = 0; i < 500; ++i) probes.push_back(random_word());
  probes.push_back("");
  probes.push_back("zzzzzzzz");  // above every word in the alphabet
  for (const std::string& p : probes) {
    const auto it = std::lower_bound(oracle.begin(), oracle.end(), p);
    const auto expect_lb = static_cast<uint32_t>(it - oracle.begin());
    ASSERT_EQ(d.LowerBoundId(p), expect_lb) << p;
    if (it != oracle.end() && *it == p) {
      ASSERT_EQ(d.Encode(p), std::optional<uint32_t>(expect_lb)) << p;
    } else {
      ASSERT_FALSE(d.Encode(p).has_value()) << p;
    }
  }
}

TEST(IntDomain, LargeDomainEncodeThroughput) {
  // Sanity-scale test: a million-value domain encodes a column correctly.
  auto values = workload::DistinctSortedKeys(1'000'000, 7, 4);
  auto d = IntDomain::FromValues(values);
  std::vector<uint32_t> column;
  for (size_t i = 0; i < 10'000; ++i) {
    column.push_back(values[(i * 101) % values.size()]);
  }
  std::vector<size_t> missing;
  auto ids = d.EncodeColumn(column, &missing);
  EXPECT_TRUE(missing.empty());
  for (size_t i = 0; i < column.size(); ++i) {
    ASSERT_EQ(d.Decode(ids[i]), column[i]);
  }
}

// ------------------------------------------- AddBatch, both value types

/// Value generators for the typed tests. Make(x) is strictly increasing in
/// x, so tests place values by their x; Extremes() are the edges of the
/// value type (the smallest value, the largest or longest ones); Random()
/// draws from a small space, so batches hit old values (for strings:
/// words of 0-5 letters, so prefixes of each other too).
template <typename V>
struct Values;

template <>
struct Values<uint32_t> {
  static uint32_t Make(uint64_t x) { return static_cast<uint32_t>(1 + x); }
  static std::vector<uint32_t> Extremes() { return {0, UINT32_MAX}; }
  static uint32_t Random(Pcg32& rng) { return rng.Below(4096); }
};

template <>
struct Values<std::string> {
  static std::string Make(uint64_t x) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "v%010llu",
                  static_cast<unsigned long long>(x));
    return buf;
  }
  // Long strings live on the heap, so copying them allocates.
  static std::vector<std::string> Extremes() {
    return {"", std::string(300, 'z'), "v" + std::string(100, '0') + "1"};
  }
  static std::string Random(Pcg32& rng) {
    std::string w(rng.Below(6), 'm');
    for (char& c : w) c = static_cast<char>('m' + rng.Below(5));
    return w;
  }
};

template <typename V>
std::vector<V> Make(std::initializer_list<uint64_t> xs) {
  std::vector<V> out;
  for (uint64_t x : xs) out.push_back(Values<V>::Make(x));
  return out;
}

template <typename V>
std::vector<V> SortedDistinct(std::vector<V> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// Grows FromValues(base) by `batch` and checks it against the oracle: the
/// dictionary is the sorted-distinct union, remap[i] is the lower_bound of
/// old value i in it (so strictly increasing), and Encode / LowerBoundId
/// agree with the oracle on every value and on probes between them — for
/// uint32 that proves the CSS directory covers the merged array.
template <typename V>
void ExpectAddBatchMatchesOracle(const std::vector<V>& base,
                                 const std::vector<V>& batch) {
  auto d = Domain<V>::FromValues(base);
  const std::vector<V> old = d.values();
  std::vector<V> oracle = old;
  oracle.insert(oracle.end(), batch.begin(), batch.end());
  oracle = SortedDistinct(std::move(oracle));

  const std::vector<uint32_t> remap = d.AddBatch(batch);
  ASSERT_EQ(d.values(), oracle);
  ASSERT_EQ(d.size(), oracle.size());
  ASSERT_EQ(remap.size(), old.size());
  for (size_t i = 0; i < old.size(); ++i) {
    const auto at = std::lower_bound(oracle.begin(), oracle.end(), old[i]);
    ASSERT_EQ(remap[i], static_cast<uint32_t>(at - oracle.begin())) << i;
    if (i > 0) {
      ASSERT_GT(remap[i], remap[i - 1]) << i;
    }
  }
  for (uint32_t id = 0; id < oracle.size(); ++id) {
    ASSERT_EQ(d.Encode(oracle[id]), std::optional<uint32_t>(id));
    ASSERT_EQ(d.LowerBoundId(oracle[id]), id);
    ASSERT_EQ(d.Decode(id), oracle[id]);
  }
  std::vector<V> probes = Values<V>::Extremes();
  Pcg32 rng(0x9e37);
  for (uint64_t x = 0; x < 64; ++x) {
    probes.push_back(Values<V>::Make(x));
    probes.push_back(Values<V>::Random(rng));
  }
  for (const V& p : probes) {
    const auto at = std::lower_bound(oracle.begin(), oracle.end(), p);
    ASSERT_EQ(d.LowerBoundId(p), static_cast<uint32_t>(at - oracle.begin()));
    ASSERT_EQ(d.Encode(p).has_value(), at != oracle.end() && *at == p);
  }
  const std::vector<uint32_t> ids = d.EncodeColumn(oracle, nullptr);
  for (uint32_t id = 0; id < ids.size(); ++id) ASSERT_EQ(ids[id], id);
}

template <typename V>
class DomainAddBatch : public ::testing::Test {};
using ValueTypes = ::testing::Types<uint32_t, std::string>;
TYPED_TEST_SUITE(DomainAddBatch, ValueTypes);

TYPED_TEST(DomainAddBatch, DuplicatesInsideTheBatch) {
  ExpectAddBatchMatchesOracle(Make<TypeParam>({2, 10, 20}),
                              Make<TypeParam>({5, 5, 15, 5, 25, 15, 1, 1}));
}

TYPED_TEST(DomainAddBatch, ValuesAlreadyPresent) {
  ExpectAddBatchMatchesOracle(Make<TypeParam>({2, 10, 20, 30}),
                              Make<TypeParam>({10, 11, 30, 2, 31, 10}));
  // A batch of present values only changes nothing.
  ExpectAddBatchMatchesOracle(Make<TypeParam>({2, 10, 20, 30}),
                              Make<TypeParam>({30, 2, 2, 20}));
}

TYPED_TEST(DomainAddBatch, EmptyBatchIsTheIdentity) {
  const std::vector<TypeParam> base = Make<TypeParam>({7, 3, 9, 3});
  auto d = Domain<TypeParam>::FromValues(base);
  const std::vector<TypeParam> before = d.values();
  EXPECT_EQ(d.AddBatch({}), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(d.values(), before);
  ExpectAddBatchMatchesOracle(base, {});
}

TYPED_TEST(DomainAddBatch, EmptyDictionary) {
  ExpectAddBatchMatchesOracle<TypeParam>({}, Make<TypeParam>({4, 1, 4, 9}));
  ExpectAddBatchMatchesOracle<TypeParam>({}, {});
}

TYPED_TEST(DomainAddBatch, ExtremeValues) {
  const std::vector<TypeParam> extremes = Values<TypeParam>::Extremes();
  ExpectAddBatchMatchesOracle(Make<TypeParam>({3, 8, 40}), extremes);
  ExpectAddBatchMatchesOracle(extremes, Make<TypeParam>({3, 8, 40}));
  std::vector<TypeParam> both = extremes;
  both.push_back(Values<TypeParam>::Make(5));
  ExpectAddBatchMatchesOracle(both, both);
}

TYPED_TEST(DomainAddBatch, RandomBatchesAgainstTheOracle) {
  // Up to 2000 old values, so the uint32 directory has several levels.
  Pcg32 rng(0xd0a1);
  for (int round = 0; round < 20; ++round) {
    std::vector<TypeParam> base, batch;
    for (uint32_t i = rng.Below(2000); i > 0; --i) {
      base.push_back(Values<TypeParam>::Random(rng));
    }
    for (uint32_t i = rng.Below(300); i > 0; --i) {
      batch.push_back(Values<TypeParam>::Random(rng));
    }
    ExpectAddBatchMatchesOracle(base, batch);
  }
}

TYPED_TEST(DomainAddBatch, IsAllOrNothingUnderAllocationFailure) {
  // Fails the k-th allocation of AddBatch for k = 0, 1, ... until the call
  // succeeds; every failed call must leave the domain exactly as it was.
  std::vector<TypeParam> base, batch = Values<TypeParam>::Extremes();
  for (uint64_t x = 0; x < 1000; ++x) {
    base.push_back(Values<TypeParam>::Make(2 * x));
  }
  for (uint64_t x = 0; x < 32; ++x) {
    batch.push_back(Values<TypeParam>::Make(61 * x + 1));
  }
  auto d = Domain<TypeParam>::FromValues(base);
  const std::vector<TypeParam> before = d.values();
  int failures = 0;
  for (long k = 0;; ++k) {
    bool threw = false;
    g_allocs_left = k;
    try {
      d.AddBatch(batch);
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    g_allocs_left = -1;
    if (!threw) break;
    ++failures;
    ASSERT_EQ(d.size(), before.size()) << "allocation " << k;
    for (uint32_t id = 0; id < before.size(); ++id) {
      ASSERT_EQ(d.Decode(id), before[id]) << "allocation " << k;
      ASSERT_EQ(d.Encode(before[id]), std::optional<uint32_t>(id))
          << "allocation " << k;
    }
  }
  EXPECT_GT(failures, 0);
  std::vector<TypeParam> oracle = before;
  oracle.insert(oracle.end(), batch.begin(), batch.end());
  EXPECT_EQ(d.values(), SortedDistinct(std::move(oracle)));
}

TYPED_TEST(DomainAddBatch, CopiesAreIndependent) {
  // The serving layer grows a copy of the published dictionary.
  auto d = Domain<TypeParam>::FromValues(Make<TypeParam>({1, 3, 5}));
  Domain<TypeParam> grown = d;
  grown.AddBatch(Make<TypeParam>({2, 4}));
  EXPECT_EQ(d.values(), Make<TypeParam>({1, 3, 5}));
  EXPECT_EQ(d.Encode(Values<TypeParam>::Make(5)), std::optional<uint32_t>(2));
  EXPECT_EQ(grown.Encode(Values<TypeParam>::Make(5)),
            std::optional<uint32_t>(4));
}

// ------------------------------------------------------------ TranslateIds

void ExpectTranslateMatchesEncode(const StringDomain& from,
                                  const StringDomain& to) {
  const std::vector<uint32_t> ids = TranslateIds(from, to);
  ASSERT_EQ(ids.size(), from.size());
  for (uint32_t i = 0; i < from.size(); ++i) {
    EXPECT_EQ(ids[i], to.Encode(from.Decode(i)).value_or(kAbsentId)) << i;
  }
}

TEST(TranslateIds, EntryIsTheOtherDictionarysIdOrAbsent) {
  const auto abc = StringDomain::FromValues({"a", "b", "c"});
  const auto xyz = StringDomain::FromValues({"x", "y", "z"});
  const auto bcd = StringDomain::FromValues({"b", "c", "d", "e"});
  const auto empty = StringDomain::FromValues({});
  const StringDomain* domains[] = {&abc, &xyz, &bcd, &empty};
  for (const StringDomain* from : domains) {
    for (const StringDomain* to : domains) {
      ExpectTranslateMatchesEncode(*from, *to);
    }
  }
  // Spelled out: disjoint, overlapping, identical and empty.
  EXPECT_EQ(TranslateIds(abc, xyz),
            (std::vector<uint32_t>{kAbsentId, kAbsentId, kAbsentId}));
  EXPECT_EQ(TranslateIds(abc, bcd),
            (std::vector<uint32_t>{kAbsentId, 0, 1}));
  EXPECT_EQ(TranslateIds(bcd, abc),
            (std::vector<uint32_t>{1, 2, kAbsentId, kAbsentId}));
  EXPECT_EQ(TranslateIds(abc, abc), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(TranslateIds(empty, abc).empty());
  EXPECT_EQ(TranslateIds(abc, empty),
            (std::vector<uint32_t>{kAbsentId, kAbsentId, kAbsentId}));
}

TEST(TranslateIds, RandomDictionariesMatchPerValueEncode) {
  // Interleaved, nested and disjoint value sets of every relative size:
  // the merge must land on exactly the per-value Encode answer.
  Pcg32 rng(107);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::string> a(rng.Below(300)), b(rng.Below(300));
    const uint32_t a_span = 1 + rng.Below(600), b_span = 1 + rng.Below(600);
    for (std::string& v : a) v = "k" + std::to_string(rng.Below(a_span));
    for (std::string& v : b) v = "k" + std::to_string(rng.Below(b_span));
    ExpectTranslateMatchesEncode(StringDomain::FromValues(a),
                                 StringDomain::FromValues(b));
  }
}

/// EncodeColumn against Encode value by value, absent values and the
/// `missing` positions included.
template <typename V>
void ExpectEncodeColumnMatchesEncode(const Domain<V>& d,
                                     const std::vector<V>& column) {
  std::vector<size_t> missing, want_missing;
  const std::vector<uint32_t> ids = d.EncodeColumn(column, &missing);
  ASSERT_EQ(ids.size(), column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    ASSERT_EQ(ids[i], d.Encode(column[i]).value_or(kAbsentId)) << i;
    if (ids[i] == kAbsentId) want_missing.push_back(i);
  }
  EXPECT_EQ(missing, want_missing);
  EXPECT_EQ(d.EncodeColumn(column, nullptr), ids);
}

TEST(Domain, EncodeColumnMatchesPerValueEncode) {
  // Dictionaries from empty to larger than the column; columns from empty
  // to several string staging blocks, half their values absent.
  Pcg32 rng(109);
  for (uint32_t dictionary_size : {0u, 1u, 50u, 3000u}) {
    SCOPED_TRACE("dictionary " + std::to_string(dictionary_size));
    std::vector<uint32_t> int_values(dictionary_size);
    for (uint32_t& v : int_values) v = 2 * rng.Below(4000);
    std::vector<std::string> string_values;
    for (uint32_t v : int_values) string_values.push_back(std::to_string(v));
    const IntDomain ints = IntDomain::FromValues(int_values);
    const StringDomain strings = StringDomain::FromValues(string_values);
    for (size_t rows : {size_t{0}, size_t{1}, size_t{2500}}) {
      std::vector<uint32_t> int_column(rows);
      for (uint32_t& v : int_column) v = rng.Below(8000);
      std::vector<std::string> string_column;
      for (uint32_t v : int_column) string_column.push_back(std::to_string(v));
      ExpectEncodeColumnMatchesEncode(ints, int_column);
      ExpectEncodeColumnMatchesEncode(strings, string_column);
    }
  }
}

}  // namespace
}  // namespace cssidx::domain
