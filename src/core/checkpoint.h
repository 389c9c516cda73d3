// Versioned binary snapshot framing for checkpoint/restore.
//
// The streaming service mode (sim/stream_sim.h) runs open-ended: a grid
// replay that never drains must be restartable, so the engines serialize
// their live state — simulator clock, pending events, per-cluster queues
// and running sets, job-store slabs — into one self-contained snapshot
// blob.  This header provides the framing those engines share:
//
//   * CheckpointWriter: append-only little-endian-agnostic primitive
//     encoder (fixed-width integers, raw IEEE doubles, length-prefixed
//     byte runs) that seals the blob with a magic, a format version and
//     a trailing FNV-1a checksum;
//   * CheckpointReader: the mirror decoder — verifies magic, version and
//     checksum up front and bounds-checks every read, so a truncated,
//     corrupted or version-skewed snapshot is rejected with a
//     CheckpointError before any engine state is touched.
//
// Format rule (docs/ARCHITECTURE.md "Streaming service mode"): any
// change to what an engine writes bumps kCheckpointVersion; readers
// reject every version other than their own.  Snapshots are restart
// artifacts, not archives — cross-version migration is out of scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace lgs {

/// Malformed snapshot: bad magic, version skew, checksum mismatch,
/// truncation, or engine-level incompatibility (config digest mismatch,
/// unsupported pending event).
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error("checkpoint: " + what) {}
};

/// Leading magic of every snapshot blob (8 bytes, no terminator).
inline constexpr char kCheckpointMagic[8] = {'L', 'G', 'S', 'S',
                                             'N', 'A', 'P', '\n'};
/// Bumped on ANY layout change of the serialized engine state.
inline constexpr std::uint32_t kCheckpointVersion = 2;

class CheckpointWriter {
 public:
  /// Starts the blob with the magic and format version.
  CheckpointWriter();

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// Length-prefixed raw byte run (for POD row slabs).
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s) { bytes(s.data(), s.size()); }

  /// Seal the blob: append the FNV-1a checksum of everything written and
  /// return the buffer.  The writer must not be reused afterwards.
  std::vector<unsigned char> finish();

  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  std::vector<unsigned char> buf_;
};

class CheckpointReader {
 public:
  /// Verifies magic, version and trailing checksum before any field
  /// read; throws CheckpointError on truncation, corruption or skew.
  CheckpointReader(const unsigned char* data, std::size_t n);
  explicit CheckpointReader(const std::vector<unsigned char>& blob)
      : CheckpointReader(blob.data(), blob.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  /// Read a length-prefixed byte run of exactly `n` payload bytes into
  /// `out` (the expected size is the caller's schema knowledge — a
  /// mismatched prefix is a format error).
  void bytes(void* out, std::size_t n);
  /// Read a length-prefixed byte run of any size.
  std::vector<unsigned char> blob();
  std::string str();

  /// Read an element count and reject it when `min_bytes` per element
  /// would already overrun the payload left — the guard every restore
  /// site applies before sizing a container from a blob, so a hostile
  /// count throws CheckpointError instead of allocating.
  std::uint64_t count(std::size_t min_bytes);

  /// Every payload byte consumed?  Engines assert this after the last
  /// field so trailing garbage cannot hide.
  bool exhausted() const { return pos_ == end_; }
  std::size_t remaining() const { return end_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (end_ - pos_ < n) throw CheckpointError("truncated snapshot");
  }
  const unsigned char* data_;
  std::size_t pos_ = 0;  ///< next unread payload byte
  std::size_t end_ = 0;  ///< payload end (checksum excluded)
};

/// FNV-1a over raw bytes — the snapshot checksum (and the config-digest
/// fold the engines use to reject restoring into a different setup).
std::uint64_t checkpoint_fnv1a(std::uint64_t h, const void* data,
                               std::size_t n);
inline constexpr std::uint64_t kCheckpointFnvBasis = 0xcbf29ce484222325ull;

}  // namespace lgs
