#ifndef DEEPST_TESTS_V3_IMAGE_H_
#define DEEPST_TESTS_V3_IMAGE_H_

// A saved format-v3 file held in memory for corruption tests: patch fields
// in place, re-seal the CRC footer so that only the loader's own checks can
// reject the image, and write it back out. Byte layouts in docs/formats.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "util/crc32.h"
#include "util/fixed_format.h"

namespace deepst {
namespace v3 {

// Header bytes of each file kind; the section table follows the header.
constexpr size_t kRoadnetHeaderBytes = 48;
constexpr size_t kTrajHeaderBytes = 40;

// Header fields shared by both kinds.
constexpr size_t kVersionAt = 4;
constexpr size_t kNumSectionsAt = 32;

// Road-network header fields and section ids.
constexpr size_t kNumVerticesAt = 8;
constexpr size_t kNumSegmentsAt = 16;
constexpr size_t kCellSizeAt = 40;
constexpr uint32_t kSecVertices = 1;
constexpr uint32_t kSecSegments = 2;
constexpr uint32_t kSecPoints = 3;
constexpr uint32_t kSecVoutOff = 4;
constexpr uint32_t kSecVoutIds = 5;
constexpr uint32_t kSecCellOff = 8;
constexpr uint32_t kSecCellIds = 9;

// Dataset header fields, section ids and the 56-byte trip record.
constexpr size_t kNumTripsAt = 8;
constexpr size_t kNumRouteIdsAt = 16;
constexpr size_t kNumGpsPointsAt = 24;
constexpr uint32_t kSecTrips = 1;
constexpr uint32_t kSecRouteIds = 2;
constexpr uint32_t kSecGpsPoints = 3;
constexpr size_t kTripStartTimeAt = 0;
constexpr size_t kTripDestXAt = 8;
constexpr size_t kTripRouteStartAt = 24;
constexpr size_t kTripGpsStartAt = 32;
constexpr size_t kTripDayAt = 40;
constexpr size_t kTripRouteLenAt = 44;
constexpr size_t kTripGpsLenAt = 48;

class Image {
 public:
  Image(const std::string& path, size_t header_bytes)
      : header_bytes_(header_bytes) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes_ = std::move(buf).str();
  }

  template <typename T>
  T Get(size_t offset) const {
    T v{};
    EXPECT_LE(offset + sizeof(T), bytes_.size());
    std::memcpy(&v, bytes_.data() + offset, sizeof(T));
    return v;
  }

  template <typename T>
  void Put(size_t offset, const T& v) {
    ASSERT_LE(offset + sizeof(T), bytes_.size());
    std::memcpy(bytes_.data() + offset, &v, sizeof(T));
  }

  // Absolute byte offset of section `id`'s payload.
  size_t Section(uint32_t id) const {
    const uint32_t n = Get<uint32_t>(kNumSectionsAt);
    for (uint32_t i = 0; i < n; ++i) {
      const size_t entry = header_bytes_ + i * sizeof(util::SectionEntry);
      if (Get<uint32_t>(entry) == id) return Get<uint64_t>(entry + 8);
    }
    ADD_FAILURE() << "no section " << id;
    return 0;
  }

  // Stores a fresh CRC over the patched bytes, then writes them to `path`.
  void ResealTo(const std::string& path) {
    const size_t body = bytes_.size() - util::kFooterBytes;
    Put(body, util::Crc32(bytes_.data(), body));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
    EXPECT_TRUE(out.good()) << path;
  }

 private:
  size_t header_bytes_;
  std::string bytes_;
};

}  // namespace v3
}  // namespace deepst

#endif  // DEEPST_TESTS_V3_IMAGE_H_
