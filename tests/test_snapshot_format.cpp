// Adversarial decoder tests for the snapshot wire format (DESIGN.md
// §11): a snapshot reader is a parser of untrusted bytes, so every
// corruption must surface as a typed SnapshotError — never UB, never a
// partial restore. Exercised here: truncation at EVERY byte boundary,
// a flipped bit in EVERY byte, wrong magic/version, and checksum-valid
// crafted buffers (duplicate/unknown/out-of-order tags, short and
// overlong sections, dangling section headers, lying element counts,
// non-0/1 booleans, NEPrev lists the encoder cannot emit). After every failed restore the target engine's
// digest is unchanged — atomicity under attack, not just under success.
// The ASan/UBSan preset (cmake --preset asan) runs this suite with
// -fsanitize=address,undefined to turn latent UB into hard failures.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cell_state.hpp"
#include "core/system.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/wire.hpp"
#include "util/rng.hpp"

namespace cellflow {
namespace {

using snapshot::Errc;
using snapshot::SnapshotError;

SystemConfig small_config() {
  SystemConfig cfg;
  cfg.side = 4;
  cfg.params = Params(0.25, 0.05, 0.1);
  cfg.sources = {CellId{1, 0}};
  cfg.target = CellId{1, 3};
  return cfg;
}

/// A real snapshot with nonempty cells (entities in flight).
std::vector<std::uint8_t> sample_snapshot(System& sys) {
  for (int r = 0; r < 25; ++r) sys.update();
  return snapshot::save(sys);
}

/// Strips the trailing checksum and re-appends the correct one — the
/// tool for crafting checksum-valid malformed buffers (fnv1a is exposed
/// by wire.hpp exactly for this).
std::vector<std::uint8_t> refix_checksum(std::vector<std::uint8_t> b) {
  b.resize(b.size() - 8);
  const std::uint64_t c =
      snapshot::fnv1a(std::span<const std::uint8_t>(b.data(), b.size()));
  for (int k = 0; k < 8; ++k) {
    b.push_back(static_cast<std::uint8_t>((c >> (8 * k)) & 0xFFu));
  }
  return b;
}

/// Expects restore to throw and the engine to be untouched.
void expect_rejected(System& sys, const std::vector<std::uint8_t>& bytes,
                     const char* what) {
  const std::uint64_t before = snapshot::state_digest(sys);
  EXPECT_THROW(snapshot::restore(sys, bytes), SnapshotError) << what;
  EXPECT_EQ(snapshot::state_digest(sys), before)
      << what << ": failed restore mutated the engine";
}

TEST(SnapshotFormat, TruncationAtEveryByteBoundaryIsTyped) {
  System sys(small_config());
  const auto bytes = sample_snapshot(sys);
  System target(small_config());
  const std::uint64_t before = snapshot::state_digest(target);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   len));
    try {
      snapshot::restore(target, prefix);
      FAIL() << "truncation to " << len << " bytes accepted";
    } catch (const SnapshotError& e) {
      if (len < 16) {
        EXPECT_EQ(e.code(), Errc::kTruncated) << "len=" << len;
      }
      // Longer prefixes fail as kTruncated or kChecksumMismatch — any
      // typed code is acceptable; UB or std::bad_alloc is not.
    }
  }
  EXPECT_EQ(snapshot::state_digest(target), before);
}

TEST(SnapshotFormat, FlippedBitInEveryByteIsTyped) {
  System sys(small_config());
  const auto bytes = sample_snapshot(sys);
  System target(small_config());
  const std::uint64_t before = snapshot::state_digest(target);

  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    try {
      snapshot::restore(target, mutated);
      FAIL() << "bit flip at byte " << at << " accepted";
    } catch (const SnapshotError& e) {
      // Magic and version are checked before the checksum; everything
      // else (payload or trailer) must be caught by the checksum, so no
      // flipped payload bit is ever parsed.
      if (at < 4) {
        EXPECT_EQ(e.code(), Errc::kBadMagic) << "at=" << at;
      } else if (at < 8) {
        EXPECT_EQ(e.code(), Errc::kBadVersion) << "at=" << at;
      } else {
        EXPECT_EQ(e.code(), Errc::kChecksumMismatch) << "at=" << at;
      }
    }
  }
  EXPECT_EQ(snapshot::state_digest(target), before);
}

TEST(SnapshotFormat, WrongMagicAndVersion) {
  System sys(small_config());
  auto bytes = sample_snapshot(sys);
  System target(small_config());

  auto wrong_magic = bytes;
  wrong_magic[0] = 'X';
  try {
    snapshot::restore(target, wrong_magic);
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kBadMagic);
  }

  // A replay log is not a snapshot: its magic must be rejected even
  // with a valid checksum.
  snapshot::Writer w({'C', 'F', 'R', 'L'}, 1);
  w.begin_section(1);
  w.u64(0);
  w.end_section();
  expect_rejected(target, w.finish(), "replay-log magic");

  auto future = bytes;
  future[4] = 9;  // version 9
  future = refix_checksum(future);
  try {
    snapshot::restore(target, future);
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kBadVersion);
  }
}

/// Returns [start, end) of the section with `tag` (header included),
/// for byte surgery on a real snapshot.
std::pair<std::size_t, std::size_t> section_span(
    const std::vector<std::uint8_t>& bytes, std::uint32_t want) {
  std::size_t at = 8;
  for (;;) {
    const auto tag = static_cast<std::uint32_t>(
        static_cast<std::uint32_t>(bytes[at]) |
        (static_cast<std::uint32_t>(bytes[at + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[at + 3]) << 24));
    std::uint64_t len = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      len |= static_cast<std::uint64_t>(bytes[at + 4 + k]) << (8 * k);
    }
    const std::size_t end = at + 12 + static_cast<std::size_t>(len);
    if (tag == want) return {at, end};
    at = end;
  }
}

/// Section-order violations need the PRECEDING sections to parse cleanly
/// (the decoder is streaming), so these are surgeries on a real snapshot
/// rather than minimal crafted buffers.
TEST(SnapshotFormat, DuplicateAndOutOfOrderAndUnknownTags) {
  System sys(small_config());
  const auto bytes = sample_snapshot(sys);
  System target(small_config());

  {
    // Replay the header section immediately after itself.
    auto mutated = bytes;
    const auto [h0, h1] = section_span(mutated, 1);
    const std::vector<std::uint8_t> header(mutated.begin() +
                                               static_cast<std::ptrdiff_t>(h0),
                                           mutated.begin() +
                                               static_cast<std::ptrdiff_t>(h1));
    mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(h1),
                   header.begin(), header.end());
    mutated = refix_checksum(mutated);
    const std::uint64_t before = snapshot::state_digest(target);
    try {
      snapshot::restore(target, mutated);
      FAIL();
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), Errc::kDuplicateTag);
    }
    EXPECT_EQ(snapshot::state_digest(target), before);
  }
  {
    // Swap the header (tag 1) and config (tag 2) sections: config parses
    // fine on its own, then tag 1 arrives after tag 2.
    auto mutated = bytes;
    const auto [h0, h1] = section_span(mutated, 1);
    const auto [c0, c1] = section_span(mutated, 2);
    ASSERT_EQ(h1, c0);
    std::vector<std::uint8_t> swapped(mutated.begin(),
                                      mutated.begin() +
                                          static_cast<std::ptrdiff_t>(h0));
    swapped.insert(swapped.end(),
                   mutated.begin() + static_cast<std::ptrdiff_t>(c0),
                   mutated.begin() + static_cast<std::ptrdiff_t>(c1));
    swapped.insert(swapped.end(),
                   mutated.begin() + static_cast<std::ptrdiff_t>(h0),
                   mutated.begin() + static_cast<std::ptrdiff_t>(h1));
    swapped.insert(swapped.end(),
                   mutated.begin() + static_cast<std::ptrdiff_t>(c1),
                   mutated.end());
    swapped = refix_checksum(swapped);
    try {
      snapshot::restore(target, swapped);
      FAIL();
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), Errc::kOutOfOrderTag);
    }
  }
  {
    // A tag outside the schema fails before its payload is parsed, so a
    // minimal crafted buffer suffices.
    snapshot::Writer w({'C', 'F', 'S', 'N'}, 1);
    w.begin_section(99);
    w.end_section();
    try {
      snapshot::restore(target, w.finish());
      FAIL();
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), Errc::kUnknownTag);
    }
  }
}

TEST(SnapshotFormat, MissingRequiredSections) {
  System target(small_config());
  snapshot::Writer w({'C', 'F', 'S', 'N'}, 1);
  w.begin_section(1);  // header only: kind 0, counters
  w.u8(0);
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.end_section();
  try {
    snapshot::restore(target, w.finish());
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kMissingSection);
  }
}

TEST(SnapshotFormat, SectionWithExtraBytesIsTrailingBytes) {
  System target(small_config());
  snapshot::Writer w({'C', 'F', 'S', 'N'}, 1);
  w.begin_section(1);
  w.u8(0);
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.u8(0xAA);  // one byte beyond the header's fields
  w.end_section();
  try {
    snapshot::restore(target, w.finish());
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kTrailingBytes);
  }
}

TEST(SnapshotFormat, SectionShorterThanItsFieldsIsMalformed) {
  System target(small_config());
  snapshot::Writer w({'C', 'F', 'S', 'N'}, 1);
  w.begin_section(1);
  w.u8(0);  // header then ends; the u64 reads must hit the boundary
  w.end_section();
  try {
    snapshot::restore(target, w.finish());
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kMalformed);
  }
}

TEST(SnapshotFormat, DanglingPartialSectionHeader) {
  System sys(small_config());
  auto bytes = sample_snapshot(sys);
  // Insert 5 stray bytes where the next section header would start (the
  // trailer slot is refilled by refix_checksum).
  for (int k = 0; k < 5; ++k) {
    bytes.insert(bytes.end() - 8, 0x7F);
  }
  bytes = refix_checksum(bytes);
  System target(small_config());
  try {
    snapshot::restore(target, bytes);
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kMalformed);
  }
}

TEST(SnapshotFormat, SectionLengthOverrunsBuffer) {
  System target(small_config());
  snapshot::Writer w({'C', 'F', 'S', 'N'}, 1);
  w.begin_section(1);
  w.u64(0);
  w.end_section();
  auto bytes = w.finish();
  // The section length field sits at offset 12 (magic 4 + version 4 +
  // tag 4); inflate it past the buffer and refix the checksum.
  bytes[12] = 0xFF;
  bytes[13] = 0xFF;
  bytes = refix_checksum(bytes);
  try {
    snapshot::restore(target, bytes);
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kMalformed);
  }
}

TEST(SnapshotFormat, LyingElementCountIsMalformedNotBadAlloc) {
  System sys(small_config());
  auto bytes = sample_snapshot(sys);
  // The cells section's count is bounded by Reader::count(): find the
  // section by walking tags, then blast the count to 2^56.
  // Offsets: 8 (envelope) then per section 12 + len.
  std::size_t at = 8;
  for (;;) {
    const std::uint32_t tag = static_cast<std::uint32_t>(
        static_cast<std::uint32_t>(bytes[at]) |
        (static_cast<std::uint32_t>(bytes[at + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[at + 3]) << 24));
    std::uint64_t len = 0;
    for (int k = 0; k < 8; ++k) {
      len |= static_cast<std::uint64_t>(bytes[at + 4 +
                                              static_cast<std::size_t>(k)])
             << (8 * k);
    }
    if (tag == 3) {  // cells
      // First payload field is the u64 cell count.
      bytes[at + 12 + 7] = 0xFF;
      break;
    }
    at += 12 + static_cast<std::size_t>(len);
  }
  bytes = refix_checksum(bytes);
  System target(small_config());
  try {
    snapshot::restore(target, bytes);
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kMalformed);
  }
}

TEST(SnapshotFormat, NonBinaryBooleanIsMalformed) {
  System sys(small_config());
  auto bytes = sample_snapshot(sys);
  // First cells-section payload byte after the count is the first
  // cell's `failed` boolean. Walk to tag 3 as above.
  std::size_t at = 8;
  for (;;) {
    const std::uint32_t tag = static_cast<std::uint32_t>(
        static_cast<std::uint32_t>(bytes[at]) |
        (static_cast<std::uint32_t>(bytes[at + 1]) << 8) |
        (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
        (static_cast<std::uint32_t>(bytes[at + 3]) << 24));
    std::uint64_t len = 0;
    for (int k = 0; k < 8; ++k) {
      len |= static_cast<std::uint64_t>(bytes[at + 4 +
                                              static_cast<std::size_t>(k)])
             << (8 * k);
    }
    if (tag == 3) {
      bytes[at + 12 + 8] = 2;  // boolean must be 0/1
      break;
    }
    at += 12 + static_cast<std::size_t>(len);
  }
  bytes = refix_checksum(bytes);
  System target(small_config());
  try {
    snapshot::restore(target, bytes);
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kMalformed);
  }
}

// --- NEPrev on the wire ------------------------------------------------
//
// A cell's NEPrev is written as its count and then its ids, ascending. The
// decoder rebuilds the neighbor mask from them, so it must refuse every
// list write_cell cannot emit. Each case re-seals a real snapshot whose
// cell ⟨1,1⟩ has its NEPrev list replaced.

std::uint64_t le_u64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t k = 0; k < 8; ++k)
    v |= static_cast<std::uint64_t>(b[at + k]) << (8 * k);
  return v;
}

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int k = 0; k < bytes; ++k)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * k)) & 0xFFu));
}

/// `bytes` with the NEPrev list of cell `index` (dense order) replaced by
/// `count` followed by `ids`, the cells section's length patched and the
/// checksum re-sealed.
std::vector<std::uint8_t> with_ne_prev(const std::vector<std::uint8_t>& bytes,
                                       std::size_t index, std::uint8_t count,
                                       const std::vector<CellId>& ids) {
  const auto [start, end] = section_span(bytes, 3);  // cells
  std::size_t at = start + 12 + 8;                   // past the cell count
  const auto skip_opt_cell = [&] { at += bytes[at] != 0 ? 9u : 1u; };
  for (std::size_t k = 0;; ++k) {
    at += 1 + 8;  // failed, dist
    skip_opt_cell();  // next
    skip_opt_cell();  // token
    skip_opt_cell();  // signal
    const std::size_t list = at;
    at += 1 + 8 * static_cast<std::size_t>(bytes[at]);
    if (k == index) {
      std::vector<std::uint8_t> out(bytes.begin(),
                                    bytes.begin() + static_cast<long>(list));
      out.push_back(count);
      for (const CellId id : ids) {
        put_le(out, static_cast<std::uint32_t>(id.i), 4);
        put_le(out, static_cast<std::uint32_t>(id.j), 4);
      }
      const std::size_t grown = out.size() - list;
      out.insert(out.end(), bytes.begin() + static_cast<long>(at),
                 bytes.end());
      const std::uint64_t len = le_u64(bytes, start + 4) + grown - (at - list);
      for (std::size_t b = 0; b < 8; ++b)
        out[start + 4 + b] = static_cast<std::uint8_t>((len >> (8 * b)) & 0xFFu);
      return refix_checksum(std::move(out));
    }
    at += 8 + 24 * static_cast<std::size_t>(le_u64(bytes, at));  // members
    EXPECT_LT(at, end);
  }
}

void expect_ne_prev_malformed(std::uint8_t count,
                              const std::vector<CellId>& ids,
                              const char* what) {
  System sys(small_config());
  const auto bytes = sample_snapshot(sys);
  System target(small_config());
  const std::uint64_t before = snapshot::state_digest(target);
  try {
    snapshot::restore(target, with_ne_prev(bytes, 5, count, ids));
    ADD_FAILURE() << what << ": restored";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kMalformed) << what;
  }
  EXPECT_EQ(snapshot::state_digest(target), before) << what;
}

TEST(SnapshotFormat, NePrevPatchOfAValidListRestores) {
  // The control for the cases below: the same surgery with a list the
  // encoder could have written restores, and the cell holds exactly it.
  System sys(small_config());
  const auto bytes = sample_snapshot(sys);
  System target(small_config());
  snapshot::restore(target,
                    with_ne_prev(bytes, 5, 2, {CellId{0, 1}, CellId{2, 1}}));
  const CellId self{1, 1};
  const auto got = neighbors_in(self, target.cell(self).ne_prev);
  EXPECT_EQ(std::vector<CellId>(got.begin(), got.end()),
            (std::vector<CellId>{CellId{0, 1}, CellId{2, 1}}));
}

TEST(SnapshotFormat, NePrevNonNeighborIsMalformed) {
  expect_ne_prev_malformed(1, {CellId{3, 3}}, "non-neighbor");
  expect_ne_prev_malformed(1, {CellId{1, 1}}, "the cell itself");
  expect_ne_prev_malformed(1, {CellId{2, 2}}, "diagonal");
}

TEST(SnapshotFormat, NePrevRepeatedIdIsMalformed) {
  expect_ne_prev_malformed(2, {CellId{0, 1}, CellId{0, 1}}, "repeated id");
}

TEST(SnapshotFormat, NePrevDescendingPairIsMalformed) {
  expect_ne_prev_malformed(2, {CellId{1, 2}, CellId{1, 0}}, "descending");
}

TEST(SnapshotFormat, NePrevCountAboveDegreeIsMalformed) {
  expect_ne_prev_malformed(5,
                           {CellId{0, 1}, CellId{1, 0}, CellId{1, 2},
                            CellId{2, 1}, CellId{2, 1}},
                           "count of 5");
}

TEST(SnapshotFormat, EmptyBufferIsTruncated) {
  System target(small_config());
  try {
    snapshot::restore(target, std::vector<std::uint8_t>{});
    FAIL();
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), Errc::kTruncated);
  }
}

TEST(SnapshotFormat, ErrcNamesAreDistinct) {
  // to_string backs error reporting in the CLI; collisions would make
  // two failure classes indistinguishable in logs.
  const Errc all[] = {Errc::kTruncated, Errc::kBadMagic, Errc::kBadVersion,
                      Errc::kChecksumMismatch, Errc::kUnknownTag,
                      Errc::kDuplicateTag, Errc::kOutOfOrderTag,
                      Errc::kMissingSection, Errc::kMalformed,
                      Errc::kTrailingBytes, Errc::kConfigMismatch};
  for (std::size_t i = 0; i < std::size(all); ++i) {
    for (std::size_t j = i + 1; j < std::size(all); ++j) {
      EXPECT_STRNE(snapshot::to_string(all[i]), snapshot::to_string(all[j]));
    }
  }
}

}  // namespace
}  // namespace cellflow
