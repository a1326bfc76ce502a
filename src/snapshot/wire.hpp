// Binary wire substrate for snapshots and replay logs (DESIGN.md §11).
//
// Envelope: 4-byte magic, u32 version, a sequence of sections, and a
// trailing FNV-1a-64 checksum over every preceding byte. Each section is
// `u32 tag, u64 length, payload`; tags must be strictly increasing so a
// duplicated or reordered section is detectable without a schema. All
// integers are little-endian fixed-width; doubles travel as the u64
// bit pattern (bit_cast), so round-trips are exact for every value
// including -0.0 and NaNs.
//
// The reader is strict by construction: the checksum is verified before
// any field is parsed (a single flipped payload bit is kChecksumMismatch,
// never a misparse), every primitive read is bounded by its section,
// section lengths are bounded by the buffer, and callers must consume
// each section exactly. Failures throw SnapshotError with a typed Errc —
// decoding adversarial bytes is expected usage, not UB
// (tests/test_snapshot_format.cpp).
//
// Writer and DigestAccumulator offer the same field methods (u8, i32,
// u64, f64, boolean), so one encoder template serves both: the state
// digests hash exactly the fields the snapshot writes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cellflow::snapshot {

/// Typed decode/validation failures. kConfigMismatch is the only code
/// raised after byte-level parsing succeeds: the snapshot is well-formed
/// but was taken from an engine built with different parameters than the
/// restore target.
enum class Errc : std::uint8_t {
  kTruncated,         ///< buffer shorter than the fixed envelope
  kBadMagic,          ///< first four bytes are not the expected magic
  kBadVersion,        ///< unknown format version
  kChecksumMismatch,  ///< payload bytes do not hash to the trailer
  kUnknownTag,        ///< section tag outside the schema
  kDuplicateTag,      ///< section tag repeated
  kOutOfOrderTag,     ///< section tags not strictly increasing
  kMissingSection,    ///< a required section is absent
  kMalformed,         ///< field-level corruption inside a section
  kTrailingBytes,     ///< section payload longer than its fields
  kConfigMismatch,    ///< snapshot vs restore-target engine mismatch
};

[[nodiscard]] const char* to_string(Errc code) noexcept;

/// Thrown by every decode/restore failure; code() discriminates.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(Errc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] Errc code() const noexcept { return code_; }

 private:
  Errc code_;
};

/// FNV-1a 64-bit over a byte span. Exposed so tests can craft
/// checksum-valid adversarial buffers, and reused for state digests.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                  std::uint64_t seed =
                                      0xcbf29ce484222325ULL) noexcept;

/// Incremental FNV-1a accumulator for state digests: feed fixed-width
/// words, read the running hash. Word-granular (not byte-remixed) so the
/// digest of a struct is independent of how callers batch the fields.
/// It offers the Writer's field methods, every field widened to one word
/// (i32 through u32), so snapshot.cpp's encoders are generic over the
/// sink: a state digest is the wire encoder writing into an accumulator.
class DigestAccumulator {
 public:
  constexpr void u64(std::uint64_t word) noexcept {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xFFu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  constexpr void u8(std::uint8_t v) noexcept { u64(v); }
  constexpr void i32(std::int32_t v) noexcept {
    u64(static_cast<std::uint32_t>(v));
  }
  void f64(double value) noexcept;
  constexpr void boolean(bool value) noexcept { u64(value ? 1 : 0); }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept {
    return hash_;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Append-only section writer. Usage: construct with a magic, write
/// sections via begin_section/end_section pairs, call finish() once.
class Writer {
 public:
  Writer(std::array<std::uint8_t, 4> magic, std::uint32_t version);

  void begin_section(std::uint32_t tag);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Appends the checksum trailer and releases the buffer. The Writer is
  /// spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t section_start_ = 0;  ///< offset of open section's length field
  bool in_section_ = false;
  bool finished_ = false;
};

/// Strict section reader. Construction verifies the full envelope
/// (magic, version, checksum); next_section()/close_section() walk the
/// sections enforcing strictly increasing tags within [min_tag, max_tag];
/// primitive reads are bounded by the open section.
class Reader {
 public:
  /// @throws SnapshotError kTruncated/kBadMagic/kBadVersion/
  ///         kChecksumMismatch
  Reader(std::span<const std::uint8_t> bytes,
         std::array<std::uint8_t, 4> magic, std::uint32_t version,
         std::uint32_t min_tag, std::uint32_t max_tag);

  /// Opens the next section and returns its tag; nullopt cleanly at end.
  /// @throws SnapshotError kDuplicateTag/kOutOfOrderTag/kUnknownTag/
  ///         kMalformed (length overruns buffer)
  [[nodiscard]] std::optional<std::uint32_t> next_section();

  /// Asserts the open section was fully consumed.
  /// @throws SnapshotError kTrailingBytes
  void close_section();

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32();
  [[nodiscard]] double f64();
  /// u8 that must be exactly 0 or 1. @throws SnapshotError kMalformed
  [[nodiscard]] bool boolean();

  /// Reads an element count and validates `count * min_bytes_per_item`
  /// fits in the rest of the open section, so corrupt counts fail here
  /// instead of driving a giant allocation. min_bytes_per_item must be
  /// the minimum ENCODED size of one element, and must be > 0.
  [[nodiscard]] std::uint64_t count(std::uint64_t min_bytes_per_item);

  /// Bytes left in the open section.
  [[nodiscard]] std::size_t section_remaining() const noexcept {
    return section_end_ - cursor_;
  }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;       ///< next unread byte
  std::size_t payload_end_ = 0;  ///< first checksum byte
  std::size_t section_end_ = 0;  ///< end of the open section
  std::uint32_t min_tag_ = 0;
  std::uint32_t max_tag_ = 0;
  std::optional<std::uint32_t> last_tag_;
  bool in_section_ = false;
};

[[noreturn]] void fail(Errc code, const std::string& what);

}  // namespace cellflow::snapshot
