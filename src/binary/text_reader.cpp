#include "binary/text_reader.hpp"

namespace vcfr::binary {

bool TextReader::next_line(std::string_view& line) {
  ++line_;
  if (pos_ == text_.size()) return false;
  const size_t end = text_.find('\n', pos_);
  if (end == std::string_view::npos) {
    fail(FormatFault::kTruncated, "last line lacks its newline");
  }
  line = text_.substr(pos_, end - pos_);
  pos_ = end + 1;
  return true;
}

void TextReader::fail(FormatFault fault, const std::string& what) const {
  throw FormatError(fault, name_ + ":" + std::to_string(line_) + ": " + what);
}

}  // namespace vcfr::binary
