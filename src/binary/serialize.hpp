// VXE on-disk image format: serialization for Image objects so the CLI
// tool (tools/vcfr_cli.cpp) can pass programs between pipeline stages,
// and checkpoints can carry each process's live image.
//
// The format is the magic "VXE1" followed by Image::state's field list
// (serialize.cpp, little-endian), written through the StateIo field layer
// that checkpoints use too (binary/state_io.hpp): the field order, the
// bounds and the errors are stated once, there.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "binary/image.hpp"

namespace vcfr::binary {

/// Why a VXE image failed to parse. Every rejection of untrusted bytes is
/// one of these — the parser never lets an implementation exception
/// (bad_alloc from an attacker-controlled count, length_error, ...)
/// escape as the error.
enum class FormatFault : uint8_t {
  kIo = 0,          // cannot open / write failure
  kBadMagic = 1,    // not a VXE image
  kBadLayout = 2,   // unknown layout tag
  kTruncated = 3,   // ran out of bytes mid-field
  kImplausible = 4, // length/count field beyond the format's hard bounds
};

[[nodiscard]] std::string_view format_fault_name(FormatFault fault);

/// Structured parse/serialize error. Derives from std::runtime_error so
/// existing catch sites keep working; new callers switch on fault().
class FormatError : public std::runtime_error {
 public:
  FormatError(FormatFault fault, const std::string& message)
      : std::runtime_error(message), fault_(fault) {}
  [[nodiscard]] FormatFault fault() const { return fault_; }

 private:
  FormatFault fault_;
};

/// Serializes `image` to a stream. Throws FormatError (kIo) on I/O error.
void save(const Image& image, std::ostream& out);

/// Deserializes an image. Throws FormatError on bad magic, truncation, or
/// malformed/implausible fields — never anything else, for any input
/// bytes (see tests/test_serialize.cpp mutation fuzz).
[[nodiscard]] Image load_file(std::istream& in);

/// Convenience file wrappers.
void save(const Image& image, const std::string& path);
[[nodiscard]] Image load_file(const std::string& path);

}  // namespace vcfr::binary
