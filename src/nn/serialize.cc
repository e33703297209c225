#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "util/string_util.h"

namespace deepst {
namespace nn {
namespace {

constexpr uint32_t kMagic = 0xDEE59701;

// Corruption guards: a flipped byte in a length field must be rejected
// before it can drive an allocation. Real models in this repo are a few
// hundred parameters of at most a few million elements each, so these
// bounds are generous while still capping a corrupt read at sane sizes.
constexpr uint64_t kMaxNameLen = 4096;
constexpr uint64_t kMaxNdim = 8;
constexpr int64_t kMaxNumel = int64_t{1} << 28;  // 256M floats = 1 GiB
constexpr uint64_t kMaxEntries = uint64_t{1} << 20;

void WriteU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteU64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::istream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

bool ReadU64(std::istream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

}  // namespace

util::Status WriteTensor(std::ostream& out, const Tensor& t) {
  WriteU64(out, static_cast<uint64_t>(t.ndim()));
  for (int64_t d = 0; d < t.ndim(); ++d) {
    WriteU64(out, static_cast<uint64_t>(t.dim(d)));
  }
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  if (!out.good()) return util::Status::IoError("tensor write failed");
  return util::Status::Ok();
}

util::Status ReadTensor(std::istream& in, Tensor* t) {
  uint64_t ndim = 0;
  if (!ReadU64(in, &ndim)) return util::Status::IoError("truncated shape");
  if (ndim > kMaxNdim) {
    return util::Status::IoError("corrupt tensor: ndim " +
                                 std::to_string(ndim) + " exceeds limit");
  }
  std::vector<int64_t> shape(ndim);
  int64_t numel = 1;
  for (auto& d : shape) {
    uint64_t dim = 0;
    if (!ReadU64(in, &dim)) return util::Status::IoError("truncated shape");
    if (dim == 0 || dim > static_cast<uint64_t>(kMaxNumel)) {
      return util::Status::IoError("corrupt tensor: bad dim " +
                                   std::to_string(dim));
    }
    d = static_cast<int64_t>(dim);
    if (numel > kMaxNumel / d) {
      return util::Status::IoError("corrupt tensor: element count overflow");
    }
    numel *= d;
  }
  Tensor tensor(shape);
  in.read(reinterpret_cast<char*>(tensor.data()),
          static_cast<std::streamsize>(numel * sizeof(float)));
  if (!in.good()) return util::Status::IoError("truncated tensor data");
  *t = std::move(tensor);
  return util::Status::Ok();
}

util::Status WriteNamedTensors(std::ostream& out,
                               const std::vector<NamedTensor>& tensors) {
  WriteU64(out, tensors.size());
  for (const auto& [name, t] : tensors) {
    WriteU64(out, name.size());
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    DEEPST_RETURN_IF_ERROR(WriteTensor(out, t));
  }
  if (!out.good()) return util::Status::IoError("named-tensor write failed");
  return util::Status::Ok();
}

util::StatusOr<std::vector<NamedTensor>> ReadNamedTensors(std::istream& in) {
  uint64_t count = 0;
  if (!ReadU64(in, &count)) return util::Status::IoError("truncated header");
  if (count > kMaxEntries) {
    return util::Status::IoError("corrupt header: entry count " +
                                 std::to_string(count) + " exceeds limit");
  }
  std::vector<NamedTensor> tensors;
  tensors.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    if (!ReadU64(in, &name_len)) {
      return util::Status::IoError("truncated entry");
    }
    if (name_len > kMaxNameLen) {
      return util::Status::IoError("corrupt entry: name length " +
                                   std::to_string(name_len) +
                                   " exceeds limit");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!in.good()) return util::Status::IoError("truncated name");
    Tensor t;
    util::Status s = ReadTensor(in, &t);
    if (!s.ok()) {
      return util::Status::IoError(s.message() + " for " + name);
    }
    tensors.emplace_back(std::move(name), std::move(t));
  }
  return tensors;
}

util::Status ApplyNamedTensors(Module* module,
                               const std::vector<NamedTensor>& tensors) {
  std::unordered_map<std::string, const Tensor*> by_name;
  by_name.reserve(tensors.size());
  for (const auto& [name, t] : tensors) by_name.emplace(name, &t);
  for (const auto& p : module->Parameters()) {
    auto it = by_name.find(p.name);
    if (it == by_name.end()) {
      return util::Status::NotFound("parameter not in checkpoint: " + p.name);
    }
    if (!it->second->SameShape(p.var->value())) {
      return util::Status::InvalidArgument(
          "shape mismatch for " + p.name + ": module " +
          p.var->value().ShapeString() + " vs file " +
          it->second->ShapeString());
    }
    p.var->value() = *it->second;
  }
  return util::Status::Ok();
}

std::vector<NamedTensor> SnapshotParameters(const Module& module) {
  std::vector<NamedTensor> out;
  out.reserve(module.Parameters().size());
  for (const auto& p : module.Parameters()) {
    out.emplace_back(p.name, p.var->value());
  }
  return out;
}

util::Status ApplyNamedBuffers(Module* module,
                               const std::vector<NamedTensor>& tensors) {
  if (tensors.empty()) return util::Status::Ok();
  std::unordered_map<std::string, const Tensor*> by_name;
  by_name.reserve(tensors.size());
  for (const auto& [name, t] : tensors) by_name.emplace(name, &t);
  for (const auto& b : module->Buffers()) {
    auto it = by_name.find(b.name);
    if (it == by_name.end()) {
      return util::Status::NotFound("buffer not in checkpoint: " + b.name);
    }
    if (!it->second->SameShape(*b.tensor)) {
      return util::Status::InvalidArgument(
          "shape mismatch for buffer " + b.name + ": module " +
          b.tensor->ShapeString() + " vs file " + it->second->ShapeString());
    }
    *b.tensor = *it->second;
  }
  return util::Status::Ok();
}

std::vector<NamedTensor> SnapshotBuffers(const Module& module) {
  std::vector<NamedTensor> out;
  out.reserve(module.Buffers().size());
  for (const auto& b : module.Buffers()) {
    out.emplace_back(b.name, *b.tensor);
  }
  return out;
}

util::Status SaveParameters(const Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) return util::Status::IoError("cannot open " + path);
  WriteU32(out, kMagic);
  DEEPST_RETURN_IF_ERROR(WriteNamedTensors(out, SnapshotParameters(module)));
  if (!out.good()) return util::Status::IoError("write failed for " + path);
  return util::Status::Ok();
}

util::Status LoadParameters(Module* module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return util::Status::IoError("cannot open " + path);
  uint32_t magic = 0;
  if (!ReadU32(in, &magic) || magic != kMagic) {
    return util::Status::IoError("bad magic in " + path);
  }
  auto tensors = ReadNamedTensors(in);
  if (!tensors.ok()) return tensors.status();
  return ApplyNamedTensors(module, tensors.value());
}

util::StatusOr<std::string> DescribeParamsFile(const std::string& path,
                                               bool* healthy) {
  if (healthy != nullptr) *healthy = true;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return util::Status::NotFound("cannot open " + path);
  uint32_t magic = 0;
  if (!ReadU32(in, &magic) || magic != kMagic) {
    return util::Status::InvalidArgument("not a parameter file: " + path);
  }
  std::string out = "model parameters  " + path + "\n";
  auto tensors = ReadNamedTensors(in);
  if (!tensors.ok()) {
    if (healthy != nullptr) *healthy = false;
    out += "  payload: " + tensors.status().ToString() + "\n";
    return out;
  }
  int64_t elements = 0;
  // GEMV-packable weights: the matrices the inference fast path repacks as
  // double (gru w_ih/w_hh and the alpha head; biases and the gathered
  // embedding table stay float).
  int64_t gemv_elements = 0;
  auto ends_with = [](const std::string& s, const char* suffix) {
    const size_t n = std::char_traits<char>::length(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  };
  for (const auto& [name, t] : tensors.value()) {
    elements += t.numel();
    const bool gemv = t.ndim() == 2 &&
                      (ends_with(name, "/w_ih") || ends_with(name, "/w_hh") ||
                       name == "alpha/weight");
    if (gemv) gemv_elements += t.numel();
  }
  out += util::StrFormat(
      "  tensors: %zu (%lld elements, %.1f MiB)\n"
      "  storage precision: float32 (GEMV weights packed as double per run)\n"
      "  crc: none (parameter files rely on shape/name validation)\n"
      "  zero-copy: no (streaming format)\n",
      tensors.value().size(), static_cast<long long>(elements),
      static_cast<double>(elements) * sizeof(float) / (1024.0 * 1024.0));
  if (gemv_elements > 0) {
    out += util::StrFormat(
        "  gemv-packable: %lld elements; packed double %.0f KiB\n",
        static_cast<long long>(gemv_elements),
        static_cast<double>(gemv_elements) * 8.0 / 1024.0);
  }
  return out;
}

}  // namespace nn
}  // namespace deepst
