// Tests for the deterministic RNG substrate. Statistical checks use wide
// tolerances — they guard against implementation blunders (bad seeding,
// truncation), not against subtle distributional flaws.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace cellflow {
namespace {

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(12345);
  SplitMix64 b(12345);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int k = 0; k < 100; ++k)
    if (a.next() == b.next()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(SplitMix64, KnownVector) {
  // Reference value for seed 0 from the canonical SplitMix64.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
}

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(999);
  Xoshiro256 b(999);
  for (int k = 0; k < 1000; ++k) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, NearbySeedsDecorrelated) {
  Xoshiro256 a(7);
  Xoshiro256 b(8);
  int equal = 0;
  for (int k = 0; k < 1000; ++k)
    if (a() == b()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, Uniform01InRange) {
  Xoshiro256 rng(42);
  for (int k = 0; k < 10000; ++k) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, Uniform01MeanNearHalf) {
  Xoshiro256 rng(42);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int k = 0; k < n; ++k) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(3);
  for (int k = 0; k < 1000; ++k) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Xoshiro256, UniformRejectsInvertedBounds) {
  Xoshiro256 rng(3);
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(17);
  for (int k = 0; k < 10000; ++k) EXPECT_LT(rng.below(13), 13u);
}

TEST(Xoshiro256, BelowOneIsAlwaysZero) {
  Xoshiro256 rng(17);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, BelowZeroViolatesContract) {
  Xoshiro256 rng(17);
  EXPECT_THROW((void)rng.below(0), ContractViolation);
}

TEST(Xoshiro256, BelowCoversAllResidues) {
  Xoshiro256 rng(5);
  std::array<int, 7> counts{};
  constexpr int n = 70000;
  for (int k = 0; k < n; ++k) ++counts[rng.below(7)];
  for (const int c : counts) {
    // Expected 10000 each; allow ±6%.
    EXPECT_GT(c, 9400);
    EXPECT_LT(c, 10600);
  }
}

TEST(Xoshiro256, BernoulliMatchesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  constexpr int n = 100000;
  for (int k = 0; k < n; ++k)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Xoshiro256, BernoulliDegenerateCases) {
  Xoshiro256 rng(11);
  for (int k = 0; k < 100; ++k) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro256, BernoulliRejectsOutOfRange) {
  Xoshiro256 rng(11);
  EXPECT_THROW((void)rng.bernoulli(-0.1), ContractViolation);
  EXPECT_THROW((void)rng.bernoulli(1.1), ContractViolation);
}

// bernoulli_cut with succeeds(draw53(), cut) is bernoulli(p) in integer
// form (the stochastic failure model draws through them): the raw 53-bit
// draw m = rng() >> 11 against ⌈p·2⁵³⌉. That must make the same decision
// as bernoulli(p), i.e. m·2⁻⁵³ < p, on every draw.
TEST(Xoshiro256, IntegerCutMatchesBernoulli) {
  for (const double p :
       {0.0, 0x1.0p-53, 1e-4, 0.05, 0.1, std::nextafter(0.5, 0.0),
        1.0 - 0x1.0p-53, 1.0}) {
    const std::uint64_t cut = Xoshiro256::bernoulli_cut(p);
    // The boundary itself, which random draws essentially never reach:
    // m = cut − 1 is a success and m = cut is not.
    if (cut > 0) {
      EXPECT_LT(static_cast<double>(cut - 1) * 0x1.0p-53, p) << p;
    }
    EXPECT_LE(cut, std::uint64_t{1} << 53) << p;
    if (cut < (std::uint64_t{1} << 53)) {
      EXPECT_GE(static_cast<double>(cut) * 0x1.0p-53, p) << p;
    }
    Xoshiro256 by_double(2024);
    Xoshiro256 by_integer(2024);
    std::uint64_t hits = 0;
    for (int k = 0; k < 1'000'000; ++k) {
      const bool want = by_double.bernoulli(p);
      const bool got = Xoshiro256::succeeds(by_integer.draw53(), cut);
      ASSERT_EQ(got, want) << "p=" << p << " draw " << k;
      hits += got ? 1 : 0;
    }
    EXPECT_EQ(by_integer.state(), by_double.state());
    EXPECT_NEAR(static_cast<double>(hits) * 1e-6, p, 0.002) << p;
  }
  EXPECT_THROW((void)Xoshiro256::bernoulli_cut(-0.1), ContractViolation);
  EXPECT_THROW((void)Xoshiro256::bernoulli_cut(1.1), ContractViolation);
}

// draw53 is the raw draw every Bernoulli form decides on, and succeeds
// is the decision: at its boundary a cut equal to the draw fails and one
// above it succeeds. A draw-first caller (the stochastic failure model)
// that takes draw53 and then asks succeeds for either of two cuts must
// get what bernoulli(p) on the same draw gives, for p on both sides of
// the boundary.
TEST(Xoshiro256, Draw53IsTheBernoulliDraw) {
  Xoshiro256 rng(99);
  for (int k = 0; k < 1000; ++k) {
    Xoshiro256 raw = rng;
    Xoshiro256 below = rng;
    Xoshiro256 at = rng;
    Xoshiro256 above = rng;
    const std::uint64_t m = rng.draw53();
    EXPECT_EQ(m, raw() >> 11) << k;
    EXPECT_LT(m, std::uint64_t{1} << 53) << k;
    EXPECT_EQ(rng.state(), raw.state()) << k;
    EXPECT_FALSE(Xoshiro256::succeeds(m, m)) << k;
    EXPECT_TRUE(Xoshiro256::succeeds(m, m + 1)) << k;
    // p = m·2⁻⁵³ exactly: bernoulli fails, and so does its cut.
    const double p_at = static_cast<double>(m) * 0x1.0p-53;
    EXPECT_FALSE(at.bernoulli(p_at)) << k;
    EXPECT_FALSE(Xoshiro256::succeeds(m, Xoshiro256::bernoulli_cut(p_at)))
        << k;
    // One ulp of the draw grid above: both succeed.
    const double p_above = static_cast<double>(m + 1) * 0x1.0p-53;
    EXPECT_TRUE(above.bernoulli(p_above)) << k;
    EXPECT_TRUE(Xoshiro256::succeeds(m, Xoshiro256::bernoulli_cut(p_above)))
        << k;
    // Just below the draw: both fail.
    if (m > 0) {
      const double p_below = std::nextafter(p_at, 0.0);
      EXPECT_FALSE(below.bernoulli(p_below)) << k;
      EXPECT_FALSE(
          Xoshiro256::succeeds(m, Xoshiro256::bernoulli_cut(p_below)))
          << k;
    }
  }
}

// A trial at its boundary: against a cut equal to the next draw's m,
// succeeds(draw53(), cut) fails, and against one above it succeeds, each
// consuming exactly that one draw.
TEST(Xoshiro256, DrawBelowComparesStrictly) {
  Xoshiro256 rng(77);
  for (int k = 0; k < 1000; ++k) {
    Xoshiro256 peek = rng;
    const std::uint64_t m = peek() >> 11;
    Xoshiro256 at = rng;
    Xoshiro256 above = rng;
    EXPECT_FALSE(Xoshiro256::succeeds(at.draw53(), m)) << k;
    EXPECT_TRUE(Xoshiro256::succeeds(above.draw53(), m + 1)) << k;
    EXPECT_EQ(at.state(), peek.state());
    EXPECT_EQ(above.state(), peek.state());
    rng();
  }
}

TEST(Xoshiro256, SplitGivesIndependentStream) {
  Xoshiro256 parent(100);
  Xoshiro256 child = parent.split();
  int equal = 0;
  for (int k = 0; k < 1000; ++k)
    if (parent() == child()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256::min() == 0);
  static_assert(Xoshiro256::max() == ~0ULL);
  Xoshiro256 rng(1);
  const std::uint64_t v = rng();
  EXPECT_GE(v, Xoshiro256::min());
}

// state() IS the serialized stream format (src/snapshot writes these four
// words verbatim): the word order and the SplitMix64 seed expansion are
// pinned here with literal golden values. If this test breaks, every
// previously written snapshot decodes into a different stream — bump the
// snapshot format version rather than updating the constants casually.
TEST(Xoshiro256, StateWordsMatchSeedExpansionGolden) {
  const Xoshiro256 rng(42);
  const std::array<std::uint64_t, 4> words = rng.state();
  EXPECT_EQ(words[0], 0xBDD732262FEB6E95ULL);
  EXPECT_EQ(words[1], 0x28EFE333B266F103ULL);
  EXPECT_EQ(words[2], 0x47526757130F9F52ULL);
  EXPECT_EQ(words[3], 0x581CE1FF0E4AE394ULL);
}

TEST(Xoshiro256, FromStateResumesMidStream) {
  Xoshiro256 a(7);
  for (int k = 0; k < 13; ++k) a();  // advance into the stream
  Xoshiro256 b = Xoshiro256::from_state(a.state());
  for (int k = 0; k < 100; ++k) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, SetStateOverwritesPosition) {
  Xoshiro256 a(7);
  const auto mark = a.state();
  const std::uint64_t first = a();
  for (int k = 0; k < 50; ++k) a();
  a.set_state(mark);  // rewind
  EXPECT_EQ(a(), first);
}

// The captured state must be position-sensitive: consuming one value
// changes the words (no silent aliasing of streams).
TEST(Xoshiro256, StateAdvancesWithConsumption) {
  Xoshiro256 a(9);
  const auto before = a.state();
  (void)a();
  EXPECT_NE(before, a.state());
}

}  // namespace
}  // namespace cellflow
