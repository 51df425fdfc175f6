// tests/legacy_frame.hpp — a record frame exactly as the previous frame
// format ("HHWAL001", FNV-1a-64 trailer over epoch|size|payload) wrote
// it. Readers and front ends must reject it at the magic word, before
// the trailer is ever looked at, rather than misread it as checksum
// corruption partway through a log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace legacy {

inline constexpr std::uint64_t kV1Magic = 0x48485741'4C303031ull;  // "HHWAL001"

inline std::string v1_frame(std::uint64_t epoch, const void* payload,
                            std::size_t size) {
  const std::uint64_t size64 = size;
  std::string f;
  const auto put = [&f](const void* p, std::size_t n) {
    f.append(static_cast<const char*>(p), n);
  };
  put(&kV1Magic, 8);
  put(&epoch, 8);
  put(&size64, 8);
  if (size > 0) put(payload, size);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 8; i < f.size(); ++i) {
    h ^= static_cast<unsigned char>(f[i]);
    h *= 0x00000100000001B3ull;
  }
  put(&h, 8);
  return f;
}

}  // namespace legacy
