#include "telemetry/journal.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>

#include "binary/text_reader.hpp"
#include "telemetry/json_writer.hpp"

namespace vcfr::telemetry {

namespace {

// Indexed by JournalKind; read_jsonl maps names back through the same
// table.
constexpr const char* kKindNames[] = {
    "spawn",   "fault",         "watchdog",    "budget",
    "restart", "rerand_epoch",  "tenant_down", "checkpoint",
    "restore", "rerand_forced", "leak",
};
static_assert(std::size(kKindNames) ==
              static_cast<size_t>(JournalKind::kLeak) + 1);

/// Cursor over one JSONL line; every mismatch fails through the reader,
/// so the error carries the file and line.
class LineCursor {
 public:
  LineCursor(std::string_view line, const binary::TextReader& in)
      : rest_(line), in_(in) {}

  /// Consumes `lit` if the line continues with it.
  bool accept(std::string_view lit) {
    if (rest_.substr(0, lit.size()) != lit) return false;
    rest_.remove_prefix(lit.size());
    return true;
  }

  void expect(std::string_view lit) {
    if (!accept(lit)) fail("expected '" + std::string(lit) + "'");
  }

  template <typename T>
  T number(const char* field) {
    size_t n = 0;
    while (n < rest_.size() && rest_[n] >= '0' && rest_[n] <= '9') ++n;
    const T v = in_.number<T>(rest_.substr(0, n), field);
    rest_.remove_prefix(n);
    return v;
  }

  /// The body of a string literal whose opening quote is consumed; undoes
  /// exactly the escapes json_escape emits.
  std::string string() {
    std::string out;
    for (;;) {
      if (rest_.empty()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (rest_.empty()) fail("unterminated string");
      switch (take()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Only the \u00xx forms json_escape writes for control bytes.
          const std::string_view hex = rest_.substr(0, 4);
          unsigned v = 0x20;
          std::from_chars(hex.data(), hex.data() + hex.size(), v, 16);
          const std::string ch(1, static_cast<char>(v));
          if (v >= 0x20 || json_escape(ch) != "\\u" + std::string(hex)) {
            fail("escape not written by json_escape");
          }
          out += ch;
          rest_.remove_prefix(4);
          break;
        }
        default:
          fail("escape not written by json_escape");
      }
    }
  }

  void finish() {
    expect("}");
    if (!rest_.empty()) fail("trailing bytes after the entry");
  }

  [[noreturn]] void fail(const std::string& what) const {
    in_.fail(binary::FormatFault::kImplausible, what);
  }

 private:
  char take() {
    const char c = rest_[0];
    rest_.remove_prefix(1);
    return c;
  }

  std::string_view rest_;
  const binary::TextReader& in_;
};

}  // namespace

const char* journal_kind_name(JournalKind kind) {
  const auto i = static_cast<size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i] : "?";
}

void Journal::log(JournalEntry entry) {
  ++counts_[journal_kind_name(entry.kind)];
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
    next_ = ring_.size() % capacity_;
    ++count_;
    return;
  }
  ++dropped_;
  ring_[next_] = std::move(entry);
  next_ = (next_ + 1) % capacity_;
}

std::vector<JournalEntry> Journal::entries() const {
  std::vector<JournalEntry> out;
  out.reserve(count_);
  // Oldest entry sits at `next_` once the ring has wrapped.
  const size_t start = count_ == capacity_ ? next_ : 0;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::map<std::string, uint64_t> Journal::counts() const { return counts_; }

std::string Journal::to_jsonl() const {
  std::string out;
  for (const JournalEntry& e : entries()) {
    JsonWriter w;
    w.begin_object();
    w.key("cycle").value(e.cycle);
    w.key("kind").value(journal_kind_name(e.kind));
    w.key("pid").value(e.pid);
    if (e.req >= 0) w.key("req").value(e.req);
    w.key("arg").value(e.arg);
    if (!e.detail.empty()) w.key("detail").value(e.detail);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

std::vector<JournalEntry> read_jsonl(std::string_view text,
                                     const std::string& name) {
  binary::TextReader in(text, name);
  std::vector<JournalEntry> entries;
  std::string_view line;
  while (in.next_line(line)) {
    LineCursor c(line, in);
    JournalEntry e;
    c.expect("{\"cycle\": ");
    e.cycle = c.number<uint64_t>("cycle");
    c.expect(", \"kind\": \"");
    const std::string kind = c.string();
    const auto* it = std::find(std::begin(kKindNames), std::end(kKindNames),
                               std::string_view(kind));
    if (it == std::end(kKindNames)) c.fail("unknown kind '" + kind + "'");
    e.kind = static_cast<JournalKind>(it - std::begin(kKindNames));
    c.expect(", \"pid\": ");
    e.pid = c.number<uint32_t>("pid");
    if (c.accept(", \"req\": ")) e.req = c.number<int64_t>("req");
    c.expect(", \"arg\": ");
    e.arg = c.number<uint64_t>("arg");
    // to_jsonl omits an empty detail, so a present one is never empty.
    if (c.accept(", \"detail\": \"")) {
      e.detail = c.string();
      if (e.detail.empty()) c.fail("empty detail");
    }
    c.finish();
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace vcfr::telemetry
