#pragma once
// The record frame shared by journal records and snapshot files:
// [u32le payload length][u32le CRC-32 of the payload][payload].

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "store/crc32.hpp"

namespace slices::store {

inline constexpr std::size_t kFrameHeaderBytes = 8;

/// The two header words of a frame.
struct FrameHeader {
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
};

/// `payload` framed for one write().
[[nodiscard]] inline std::string encode_frame(std::string_view payload) {
  const auto put_u32le = [](char* out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  };
  std::string frame(kFrameHeaderBytes + payload.size(), '\0');
  put_u32le(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32le(frame.data() + 4, crc32(payload));
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(), payload.size());
  return frame;
}

/// Decodes the kFrameHeaderBytes at `bytes`.
[[nodiscard]] inline FrameHeader decode_frame_header(const void* bytes) noexcept {
  const auto* in = static_cast<const unsigned char*>(bytes);
  const auto get_u32le = [](const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
  };
  return FrameHeader{get_u32le(in), get_u32le(in + 4)};
}

/// Whether `payload` is exactly the one `header` describes.
[[nodiscard]] inline bool frame_matches(const FrameHeader& header,
                                        std::string_view payload) noexcept {
  return payload.size() == header.length && crc32(payload) == header.crc;
}

}  // namespace slices::store
