#include "core/checkpoint.h"

namespace lgs {

std::uint64_t checkpoint_fnv1a(std::uint64_t h, const void* data,
                               std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Fixed little-endian layout: snapshots written on any host restore on
/// any other (the CI runners and dev boxes are all little-endian, but
/// the explicit byte order keeps the format well-defined regardless).
void put_u32(std::vector<unsigned char>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back((v >> (8 * i)) & 0xff);
}
void put_u64(std::vector<unsigned char>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back((v >> (8 * i)) & 0xff);
}
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

}  // namespace

CheckpointWriter::CheckpointWriter()
    : buf_(kCheckpointMagic, kCheckpointMagic + sizeof kCheckpointMagic) {
  u32(kCheckpointVersion);
}

void CheckpointWriter::u32(std::uint32_t v) { put_u32(buf_, v); }
void CheckpointWriter::u64(std::uint64_t v) { put_u64(buf_, v); }

void CheckpointWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void CheckpointWriter::bytes(const void* data, std::size_t n) {
  u64(static_cast<std::uint64_t>(n));
  raw(data, n);
}

std::vector<unsigned char> CheckpointWriter::finish() {
  const std::uint64_t sum =
      checkpoint_fnv1a(kCheckpointFnvBasis, buf_.data(), buf_.size());
  put_u64(buf_, sum);
  return std::move(buf_);
}

CheckpointReader::CheckpointReader(const unsigned char* data, std::size_t n)
    : data_(data) {
  constexpr std::size_t kHeader = sizeof kCheckpointMagic + 4;
  constexpr std::size_t kTrailer = 8;  // checksum
  if (n < kHeader + kTrailer) throw CheckpointError("truncated snapshot");
  if (std::memcmp(data, kCheckpointMagic, sizeof kCheckpointMagic) != 0)
    throw CheckpointError("bad magic (not an lgs snapshot)");
  const std::uint64_t stored = get_u64(data + n - kTrailer);
  const std::uint64_t actual =
      checkpoint_fnv1a(kCheckpointFnvBasis, data, n - kTrailer);
  if (stored != actual)
    throw CheckpointError("checksum mismatch (corrupted snapshot)");
  const std::uint32_t version = get_u32(data + sizeof kCheckpointMagic);
  if (version != kCheckpointVersion)
    throw CheckpointError("format version " + std::to_string(version) +
                          " (this build reads version " +
                          std::to_string(kCheckpointVersion) + ")");
  pos_ = kHeader;
  end_ = n - kTrailer;
}

std::uint8_t CheckpointReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t CheckpointReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t CheckpointReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(data_ + pos_);
  pos_ += 8;
  return v;
}

double CheckpointReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t CheckpointReader::count(std::size_t min_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_bytes)
    throw CheckpointError("element count " + std::to_string(n) +
                          " exceeds the snapshot");
  return n;
}

void CheckpointReader::bytes(void* out, std::size_t n) {
  const std::uint64_t len = u64();
  if (len != n) throw CheckpointError("byte-run length mismatch");
  need(n);
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

std::vector<unsigned char> CheckpointReader::blob() {
  const std::uint64_t len = u64();
  need(len);
  std::vector<unsigned char> out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

std::string CheckpointReader::str() {
  const std::uint64_t len = u64();
  need(len);
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

}  // namespace lgs
