// Checksummed record framing shared by the on-disk formats (octree_io v2
// tree files, the world manifest), plus the one FNV-1a hash behind it,
// the on-disk tile signature (hash_leaf_records) and the service wire
// checksum.
//
// Layout (host byte order, like every pod in these formats):
//   magic[8] | u64 payload length | payload | u64 FNV-1a(payload)
// The trailing checksum turns any bit corruption — not just structural
// damage — into a clean std::runtime_error instead of a silently different
// record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace omu::map {

/// The standard 64-bit FNV-1a offset basis.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;

/// 64-bit FNV-1a over `size` bytes, continuing from `seed`: chained calls
/// hash several spans as one stream.
inline uint64_t fnv1a(const void* data, std::size_t size, uint64_t seed = kFnv1aOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Reads one pod; throws "<what>: truncated stream" when the stream ends.
template <typename T>
T read_pod(std::istream& is, const char* what) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error(std::string(what) + ": truncated stream");
  return v;
}

/// Writes one framed record. Throws "<what>: write failure" when the
/// stream fails.
void write_framed_record(std::ostream& os, const char (&magic)[8], const std::string& payload,
                         const char* what);

/// Reads the rest of a framed record whose magic the caller has already
/// read and matched, and returns the verified payload. Throws
/// std::runtime_error prefixed with `what` on a length above
/// `max_payload_bytes` (a corrupt field, never handed to the allocator),
/// truncation, or a checksum mismatch.
std::string read_framed_payload(std::istream& is, uint64_t max_payload_bytes, const char* what);

}  // namespace omu::map
