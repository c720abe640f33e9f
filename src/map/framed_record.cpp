#include "map/framed_record.hpp"

#include <algorithm>

namespace omu::map {

void write_framed_record(std::ostream& os, const char (&magic)[8], const std::string& payload,
                         const char* what) {
  os.write(magic, sizeof(magic));
  write_pod(os, static_cast<uint64_t>(payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  write_pod(os, fnv1a(payload.data(), payload.size()));
  if (!os) throw std::runtime_error(std::string(what) + ": write failure");
}

std::string read_framed_payload(std::istream& is, uint64_t max_payload_bytes, const char* what) {
  const auto payload_size = read_pod<uint64_t>(is, what);
  if (payload_size > max_payload_bytes) {
    throw std::runtime_error(std::string(what) + ": implausible payload size (corrupt stream)");
  }
  // Read in bounded chunks so a corrupt (inflated) size field fails on the
  // actual stream length instead of committing a giant upfront allocation.
  std::string bytes;
  char chunk[64 * 1024];
  for (uint64_t remaining = payload_size; remaining > 0;) {
    const auto n = static_cast<std::streamsize>(std::min<uint64_t>(remaining, sizeof(chunk)));
    is.read(chunk, n);
    if (!is) throw std::runtime_error(std::string(what) + ": truncated stream");
    bytes.append(chunk, static_cast<std::size_t>(n));
    remaining -= static_cast<uint64_t>(n);
  }
  if (read_pod<uint64_t>(is, what) != fnv1a(bytes.data(), bytes.size())) {
    throw std::runtime_error(std::string(what) + ": checksum mismatch (corrupt stream)");
  }
  return bytes;
}

}  // namespace omu::map
