#include "util/fixed_format.h"

#include <cstring>

#include "util/crc32.h"
#include "util/string_util.h"

namespace deepst {
namespace util {

void AppendZeros(std::string* out, size_t bytes) {
  out->append(bytes, '\0');
}

SectionWriter::SectionWriter(uint64_t header_bytes, size_t num_sections)
    : payload_base_(AlignUp8(header_bytes + num_sections * sizeof(SectionEntry))) {
  entries_.reserve(num_sections);
}

void SectionWriter::AddRaw(uint32_t id, const char* data, uint64_t bytes) {
  AppendZeros(&payload_, AlignUp8(payload_.size()) - payload_.size());
  SectionEntry entry;
  entry.id = id;
  entry.offset = payload_base_ + payload_.size();
  entry.bytes = bytes;
  entries_.push_back(entry);
  payload_.append(data, bytes);
}

void SectionWriter::AppendTo(std::string* out) const {
  const size_t table_bytes = entries_.size() * sizeof(SectionEntry);
  AppendPod(out, entries_.data(), entries_.size());
  // Pad from the table end to the 8-aligned payload base.
  AppendZeros(out, AlignUp8(table_bytes) - table_bytes);
  out->append(payload_);
}

bool ReadMagicAndVersion(const char* data, size_t size, uint32_t* magic,
                         uint32_t* version) {
  if (size < 2 * sizeof(uint32_t)) return false;
  std::memcpy(magic, data, sizeof(*magic));
  std::memcpy(version, data + sizeof(*magic), sizeof(*version));
  return true;
}

Status CheckMagicAndVersion(const char* data, size_t size, uint32_t magic,
                            const std::string& what) {
  uint32_t got_magic = 0, version = 0;
  if (!ReadMagicAndVersion(data, size, &got_magic, &version) ||
      got_magic != magic) {
    return Status::IoError("bad magic in " + what);
  }
  if (version != kFormatVersion) {
    return Status::IoError(StrFormat(
        "unsupported version %u in %s: only format v%u is read; write the "
        "file again with `deepst_cli generate`",
        version, what.c_str(), kFormatVersion));
  }
  return Status::Ok();
}

void AppendCrcFooter(std::string* bytes) {
  AppendZeros(bytes, AlignUp8(bytes->size()) - bytes->size());
  const uint32_t crc = Crc32(bytes->data(), bytes->size());
  AppendPod(bytes, &crc, 1);
  AppendPod(bytes, &kFooterMagic, 1);
}

Status CheckCrcFooter(const char* data, size_t size, const std::string& what) {
  if (size < kFooterBytes || size % 8 != 0) {
    return Status::IoError("file too short or misaligned: " + what);
  }
  uint32_t stored_crc = 0;
  uint32_t footer_magic = 0;
  std::memcpy(&stored_crc, data + size - 8, sizeof(stored_crc));
  std::memcpy(&footer_magic, data + size - 4, sizeof(footer_magic));
  if (footer_magic != kFooterMagic) {
    return Status::IoError("missing v3 footer in " + what +
                           " (corrupt or truncated)");
  }
  if (Crc32(data, size - kFooterBytes) != stored_crc) {
    return Status::DataLoss("CRC mismatch in " + what +
                            " (corrupt or truncated)");
  }
  return Status::Ok();
}

StatusOr<SectionMap> SectionMap::Parse(const char* data, size_t size,
                                       uint64_t table_offset,
                                       uint32_t num_sections,
                                       const std::string& what) {
  if (num_sections > 64) {
    return Status::InvalidArgument("implausible section count in " + what);
  }
  if (size < kFooterBytes ||
      table_offset + uint64_t{num_sections} * sizeof(SectionEntry) >
          size - kFooterBytes) {
    return Status::IoError("section table exceeds file size in " + what);
  }
  SectionMap map;
  map.data_ = data;
  map.what_ = what;
  map.entries_.resize(num_sections);
  std::memcpy(map.entries_.data(), data + table_offset,
              num_sections * sizeof(SectionEntry));
  const uint64_t payload_end = size - kFooterBytes;
  for (const SectionEntry& e : map.entries_) {
    if (e.offset % 8 != 0) {
      return Status::InvalidArgument(
          StrFormat("misaligned section %u offset in %s", e.id,
                    what.c_str()));
    }
    if (e.offset > payload_end || e.bytes > payload_end - e.offset) {
      return Status::IoError(
          StrFormat("section %u exceeds file size in %s", e.id,
                    what.c_str()));
    }
  }
  return map;
}

bool SectionMap::Has(uint32_t id) const {
  for (const SectionEntry& e : entries_) {
    if (e.id == id) return true;
  }
  return false;
}

Status SectionMap::RawView(uint32_t id, uint64_t bytes,
                           const char** out) const {
  for (const SectionEntry& e : entries_) {
    if (e.id != id) continue;
    if (e.bytes != bytes) {
      return Status::InvalidArgument(
          StrFormat("section %u size mismatch in %s (%llu != %llu)", id,
                    what_.c_str(), static_cast<unsigned long long>(e.bytes),
                    static_cast<unsigned long long>(bytes)));
    }
    *out = data_ + e.offset;
    return Status::Ok();
  }
  return Status::InvalidArgument(
      StrFormat("missing section %u in %s", id, what_.c_str()));
}

}  // namespace util
}  // namespace deepst
