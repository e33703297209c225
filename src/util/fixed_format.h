#ifndef DEEPST_UTIL_FIXED_FORMAT_H_
#define DEEPST_UTIL_FIXED_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace deepst {
namespace util {

// Shared plumbing for the fixed-layout, mmap-able "format v3" family
// (docs/formats.md). A v3 file is:
//
//   [format-specific header, 8-byte aligned fields only]
//   [section table: num_sections x SectionEntry]
//   [zero padding to 8]
//   [section payloads, each starting at an 8-byte-aligned offset,
//    zero-padded to 8 between sections]
//   [footer: u32 CRC32 over bytes [0, size-8), u32 0x33C0DA7A]
//
// Everything is little-endian; struct views are taken directly over the
// mapped region, so the payload records are PODs with explicit padding.

// One row of the section table.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;  // absolute byte offset, 8-aligned
  uint64_t bytes = 0;   // payload size (not padded)
};
static_assert(sizeof(SectionEntry) == 24);

// Every v3 file opens with `u32 magic, u32 version`; 3 is the only version
// read or written.
constexpr uint32_t kFormatVersion = 3;

constexpr uint32_t kFooterMagic = 0x33C0DA7Au;
constexpr size_t kFooterBytes = 8;

constexpr uint64_t AlignUp8(uint64_t n) { return (n + 7u) & ~uint64_t{7}; }

// Appends `bytes` zeros to `out`.
void AppendZeros(std::string* out, size_t bytes);

// Appends a POD array as raw bytes.
template <typename T>
void AppendPod(std::string* out, const T* data, size_t count) {
  out->append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

// Builds the section payload block + table for a writer: call Add for every
// section (in file order), then Finish with everything already written
// before the table (the header) to get table offsets right.
class SectionWriter {
 public:
  // `header_bytes` = bytes preceding the section table in the file.
  explicit SectionWriter(uint64_t header_bytes, size_t num_sections);

  // Appends one section; pads the previous payload to 8 bytes.
  template <typename T>
  void Add(uint32_t id, const T* data, size_t count) {
    AddRaw(id, reinterpret_cast<const char*>(data), count * sizeof(T));
  }
  void AddRaw(uint32_t id, const char* data, uint64_t bytes);

  // Table bytes (fixed once constructed) followed by payload bytes. Appends
  // both to `out` and returns the total appended size.
  void AppendTo(std::string* out) const;

  size_t num_sections() const { return entries_.size(); }

 private:
  uint64_t payload_base_;  // file offset where payloads start
  std::vector<SectionEntry> entries_;
  std::string payload_;
};

// Reads the leading magic and version. False when the image is shorter than
// the 8 bytes they take.
bool ReadMagicAndVersion(const char* data, size_t size, uint32_t* magic,
                         uint32_t* version);

// Checks the leading pair against `magic`: IoError "bad magic" for a short
// or foreign file, and "unsupported version N in WHAT" for any version but
// kFormatVersion, naming `deepst_cli generate` as the remedy.
Status CheckMagicAndVersion(const char* data, size_t size, uint32_t magic,
                            const std::string& what);

// Seals a v3 image: appends the CRC footer over everything written so far.
void AppendCrcFooter(std::string* bytes);

// Validates the footer of a complete v3 image: size, trailing magic and
// CRC. `what` names the file in error messages.
Status CheckCrcFooter(const char* data, size_t size, const std::string& what);

// Read-only section directory over a mapped v3 image. Validates alignment
// and bounds up front; typed accessors then hand out struct views with no
// copying.
class SectionMap {
 public:
  // Parses `num_sections` entries at `table_offset`. All offsets must be
  // 8-aligned and every payload must land inside [payload_start, size -
  // footer). Returns InvalidArgument on any violation.
  static StatusOr<SectionMap> Parse(const char* data, size_t size,
                                    uint64_t table_offset,
                                    uint32_t num_sections,
                                    const std::string& what);

  bool Has(uint32_t id) const;

  // View of section `id` as `count` records of T. Fails when the section is
  // missing or its byte size != count * sizeof(T).
  template <typename T>
  Status View(uint32_t id, uint64_t count, const T** out) const {
    const char* raw = nullptr;
    DEEPST_RETURN_IF_ERROR(RawView(id, count * sizeof(T), &raw));
    *out = reinterpret_cast<const T*>(raw);
    return Status::Ok();
  }

 private:
  Status RawView(uint32_t id, uint64_t bytes, const char** out) const;

  const char* data_ = nullptr;
  std::vector<SectionEntry> entries_;
  std::string what_;
};

}  // namespace util
}  // namespace deepst

#endif  // DEEPST_UTIL_FIXED_FORMAT_H_
