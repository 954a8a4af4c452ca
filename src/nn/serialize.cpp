#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>

namespace mirage::nn {

namespace {
constexpr char kMagic[4] = {'M', 'I', 'R', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void append(std::vector<char>& buf, const T& v) {
  const char* p = reinterpret_cast<const char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
bool read(const std::vector<char>& buf, std::size_t& pos, T& out) {
  if (pos + sizeof(T) > buf.size()) return false;
  std::memcpy(&out, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}
}  // namespace

std::vector<char> serialize_params(const std::vector<Parameter*>& params) {
  std::vector<char> buf;
  buf.insert(buf.end(), kMagic, kMagic + 4);
  append(buf, kVersion);
  append(buf, static_cast<std::uint64_t>(params.size()));
  for (const auto* p : params) {
    append(buf, static_cast<std::uint32_t>(p->name.size()));
    buf.insert(buf.end(), p->name.begin(), p->name.end());
    append(buf, static_cast<std::uint64_t>(p->value.rows()));
    append(buf, static_cast<std::uint64_t>(p->value.cols()));
    const char* data = reinterpret_cast<const char*>(p->value.data());
    buf.insert(buf.end(), data, data + p->value.size() * sizeof(float));
  }
  return buf;
}

bool deserialize_params(const std::vector<char>& bytes, const std::vector<Parameter*>& params) {
  std::size_t pos = 0;
  if (bytes.size() < 4 || std::memcmp(bytes.data(), kMagic, 4) != 0) return false;
  pos = 4;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!read(bytes, pos, version) || version != kVersion) return false;
  if (!read(bytes, pos, count) || count != params.size()) return false;

  // Validate everything first, collecting value offsets.
  std::vector<std::size_t> offsets(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::uint32_t name_len = 0;
    if (!read(bytes, pos, name_len)) return false;
    if (pos + name_len > bytes.size()) return false;
    const std::string name(bytes.data() + pos, name_len);
    pos += name_len;
    std::uint64_t rows = 0, cols = 0;
    if (!read(bytes, pos, rows) || !read(bytes, pos, cols)) return false;
    const auto* p = params[i];
    if (name != p->name || rows != p->value.rows() || cols != p->value.cols()) return false;
    offsets[i] = pos;
    const std::size_t nbytes = static_cast<std::size_t>(rows * cols) * sizeof(float);
    if (pos + nbytes > bytes.size()) return false;
    pos += nbytes;
  }
  // Then apply.
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto* p = params[i];
    std::memcpy(p->value.data(), bytes.data() + offsets[i], p->value.size() * sizeof(float));
  }
  return true;
}

}  // namespace mirage::nn
