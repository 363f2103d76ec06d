#include "binary/state_io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

namespace vcfr::binary {

void StateIo::raw(void* data, size_t size, const char* what) {
  if (out_ != nullptr) {
    out_->write(static_cast<const char*>(data),
                static_cast<std::streamsize>(size));
    return;
  }
  in_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (in_->gcount() != static_cast<std::streamsize>(size)) {
    throw FormatError(FormatFault::kTruncated,
                      std::string("truncated mid-") + what);
  }
}

void StateIo::u8(uint8_t& v) { raw(&v, 1, "field"); }

void StateIo::u32(uint32_t& v) {
  uint8_t buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
  raw(buf, 4, "field");
  if (!loading()) return;
  v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf[i]) << (8 * i);
}

void StateIo::u64(uint64_t& v) {
  uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
  raw(buf, 8, "field");
  if (!loading()) return;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf[i]) << (8 * i);
}

void StateIo::i64(int64_t& v) {
  auto bits = static_cast<uint64_t>(v);
  u64(bits);
  if (loading()) v = static_cast<int64_t>(bits);
}

void StateIo::b(bool& v) {
  uint8_t byte = v ? 1 : 0;
  u8(byte);
  if (loading()) v = byte != 0;
}

template <typename Buf>
void StateIo::blob(Buf& buf, uint32_t max) {
  const uint32_t n = count(buf.size(), max);
  if (!loading()) {
    raw(buf.data(), n, "blob");
    return;
  }
  constexpr uint32_t kChunk = 1u << 16;
  buf.clear();
  while (buf.size() < n) {
    const size_t at = buf.size();
    buf.resize(at + std::min<size_t>(kChunk, n - at));
    raw(buf.data() + at, buf.size() - at, "blob");
  }
}

template void StateIo::blob(std::string&, uint32_t);
template void StateIo::blob(std::vector<uint8_t>&, uint32_t);

void StateIo::bytes(void* data, size_t size) { raw(data, size, "buffer"); }

uint32_t StateIo::count(size_t n, uint32_t max) {
  auto v = static_cast<uint32_t>(n);
  u32(v);
  require(v <= max, "count beyond its format bound");
  return v;
}

void StateIo::fixed(size_t live, uint32_t max, const std::string& what) {
  require(count(live, max) == live, what);
}

void StateIo::require(bool ok, const std::string& what) {
  if (!ok) throw FormatError(FormatFault::kImplausible, what);
}

}  // namespace vcfr::binary
