#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/binary_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qbs {
namespace {

uint64_t DigestOf(const std::vector<unsigned char>& bytes) {
  Checksum64 sum;
  sum.Update(bytes.data(), bytes.size());
  return sum.Digest();
}

// 203 bytes: 25 whole words, six blocks of one word per lane and then
// one, and a 3-byte tail.
std::vector<unsigned char> ChecksumStream() {
  std::vector<unsigned char> bytes(203);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  return bytes;
}

// Splitting the stream into Update() calls at any one or two cuts, inside
// words and across lane and block boundaries, leaves the digest as it is.
TEST(Checksum64Test, DigestDoesNotDependOnTheSplit) {
  const std::vector<unsigned char> bytes = ChecksumStream();
  const uint64_t whole = DigestOf(bytes);
  const size_t n = bytes.size();
  for (size_t i = 0; i <= n; ++i) {
    for (size_t j = i; j <= n; ++j) {
      Checksum64 sum;
      sum.Update(bytes.data(), i);
      sum.Update(bytes.data() + i, j - i);
      sum.Update(bytes.data() + j, n - j);
      ASSERT_EQ(sum.Digest(), whole) << "cuts at " << i << " and " << j;
    }
  }
}

TEST(Checksum64Test, EverySingleByteFlipChangesTheDigest) {
  const std::vector<unsigned char> bytes = ChecksumStream();
  const uint64_t whole = DigestOf(bytes);
  for (size_t at = 0; at < bytes.size(); ++at) {
    for (const unsigned mask : {0x01u, 0x02u, 0x04u, 0x08u, 0x10u, 0x20u,
                                0x40u, 0x80u, 0xFFu}) {
      std::vector<unsigned char> flipped = bytes;
      flipped[at] = static_cast<unsigned char>(flipped[at] ^ mask);
      ASSERT_NE(DigestOf(flipped), whole) << "byte " << at << " ^ " << mask;
    }
  }
}

// Adjacent words go to different lanes. In a one-block stream, each lane
// holds one word, so only a fold that keeps the lanes' order tells a swap.
TEST(Checksum64Test, SwappingAdjacentWordsChangesTheDigest) {
  const std::vector<unsigned char> stream = ChecksumStream();
  for (const size_t n : {size_t{32}, stream.size()}) {
    const std::vector<unsigned char> bytes(stream.begin(), stream.begin() + n);
    const uint64_t whole = DigestOf(bytes);
    for (size_t word = 0; word + 1 < n / 8; ++word) {
      std::vector<unsigned char> swapped = bytes;
      auto* first = swapped.data() + 8 * word;
      std::swap_ranges(first, first + 8, first + 8);
      ASSERT_NE(DigestOf(swapped), whole)
          << n << " bytes, words " << word << " and " << word + 1;
    }
  }
}

// The length is folded in, so a zero-padded tail differs from zero bytes.
TEST(Checksum64Test, RunsOfZeroBytesDifferByLength) {
  std::set<uint64_t> digests;
  for (size_t n = 0; n <= 64; ++n) {
    digests.insert(DigestOf(std::vector<unsigned char>(n, 0)));
  }
  EXPECT_EQ(digests.size(), 65u);
}

// Computed by scripts/file_fixtures.py's independent Checksum64:
//   python3 -c "import sys; sys.path.insert(0, 'scripts');
//     import file_fixtures; print(hex(file_fixtures.checksum64(
//     b'The quick brown fox jumps over the lazy dog')))"
TEST(Checksum64Test, DigestOfAFixedStringIsPinned) {
  const std::string text = "The quick brown fox jumps over the lazy dog";
  Checksum64 sum;
  sum.Update(text.data(), text.size());
  EXPECT_EQ(sum.Digest(), 0xcf027054be11aae8ull);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.UniformReal();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(hits.size(), 8,
              [&](size_t i, size_t) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](size_t i, size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, WorkerIndexInRange) {
  std::atomic<bool> ok{true};
  ParallelFor(100, 3, [&](size_t, size_t worker) {
    if (worker >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ParallelFor(0, 4, [](size_t, size_t) { FAIL(); });
}

TEST(WallTimerTest, Monotonic) {
  WallTimer t;
  const int64_t a = t.ElapsedNanos();
  const int64_t b = t.ElapsedNanos();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

}  // namespace
}  // namespace qbs
