#include "isa/assembler.hpp"

#include <array>
#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/encoding.hpp"

namespace vcfr::isa {
namespace {

using binary::Image;

struct AsmError : std::runtime_error {
  AsmError(size_t line, const std::string& msg)
      : std::runtime_error("asm:" + std::to_string(line) + ": " + msg) {}
};

// Labels and mnemonics below are views into the source, which outlives
// the Assembler.

/// An instruction whose immediate/target may still be symbolic.
struct PendingInstr {
  Instr instr;
  std::string_view target_label;  // for jmp/jcc/call targets
  std::string_view imm_label;     // for `mov rX, @label`
  size_t line = 0;
  uint32_t addr = 0;
};

/// A pending data item.
struct DataItem {
  enum class Kind { kWord, kByte, kSpace, kPtr } kind = Kind::kWord;
  uint32_t value = 0;           // word/byte value or space size
  std::string_view label;       // for kPtr
  size_t line = 0;
  uint32_t addr = 0;
};

/// The comma-separated operands of one statement. Every operand is
/// counted, so an arity error reports the true count, but only the first
/// kCapacity (the most any mnemonic takes) are kept.
struct Operands {
  static constexpr size_t kCapacity = 2;
  std::array<std::string_view, kCapacity> items{};
  size_t count = 0;

  [[nodiscard]] size_t size() const { return count; }
  std::string_view operator[](size_t i) const { return items[i]; }
};

class Assembler {
 public:
  explicit Assembler(std::string_view source) : source_(source) {}

  Image run() {
    parse();
    resolve();
    return std::move(image_);
  }

 private:
  // ---- lexing helpers -----------------------------------------------------

  /// The C locale's isspace: ' ', \t, \n, \v, \f, \r.
  static bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

  static std::string_view trim(std::string_view s) {
    while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
    while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
    return s;
  }

  /// Splits "a, b" operands on commas, trimming whitespace.
  static Operands split_operands(std::string_view s) {
    Operands out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
      if (i == s.size() || s[i] == ',') {
        auto piece = trim(s.substr(start, i - start));
        if (!piece.empty()) {
          if (out.count < Operands::kCapacity) out.items[out.count] = piece;
          ++out.count;
        }
        start = i + 1;
      }
    }
    return out;
  }

  /// A decimal or 0x literal with an optional sign, or nullopt when `s`
  /// is not one or does not fit in int64_t.
  static std::optional<int64_t> parse_int(std::string_view s) {
    bool neg = false;
    if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
      neg = s[0] == '-';
      s.remove_prefix(1);
    }
    if (s.empty()) return std::nullopt;
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
      base = 16;
      s.remove_prefix(2);
    }
    uint64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), value, base);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    const uint64_t limit = neg ? uint64_t{1} << 63 : INT64_MAX;
    if (value > limit) return std::nullopt;
    return static_cast<int64_t>(neg ? 0 - value : value);
  }

  uint8_t expect_reg(std::string_view tok, size_t line) const {
    auto reg = parse_reg(tok);
    if (!reg) throw AsmError(line, "expected register, got '" + std::string(tok) + "'");
    return *reg;
  }

  int64_t expect_int(std::string_view tok, size_t line) const {
    auto v = parse_int(tok);
    if (!v) throw AsmError(line, "expected integer, got '" + std::string(tok) + "'");
    return *v;
  }

  /// Checks that `v` fits in `bits` bits, signed or unsigned:
  /// [-2^(bits-1), 2^bits - 1].
  static uint32_t fit(int64_t v, int bits, std::string_view tok, size_t line) {
    if (v < -(int64_t{1} << (bits - 1)) || v > (int64_t{1} << bits) - 1) {
      throw AsmError(line, "value '" + std::string(tok) + "' out of " +
                               std::to_string(bits) + "-bit range");
    }
    return static_cast<uint32_t>(v);
  }

  uint32_t expect_bits(std::string_view tok, int bits, size_t line) const {
    return fit(expect_int(tok, line), bits, tok, line);
  }

  /// Returns `cursor` and advances it past a `size`-byte item, rejecting
  /// an item that would end past binary::kMaxSectionEnd.
  static uint32_t advance(uint32_t& cursor, uint64_t size, const char* section,
                          size_t line) {
    if (cursor + size > binary::kMaxSectionEnd) {
      throw AsmError(line, std::string(section) +
                               " section runs past the 32-bit address space");
    }
    const uint32_t at = cursor;
    cursor = static_cast<uint32_t>(cursor + size);
    return at;
  }

  // ---- pass 1: parse ------------------------------------------------------

  void parse() {
    size_t line_no = 0;
    size_t pos = 0;
    while (pos <= source_.size()) {
      size_t eol = source_.find('\n', pos);
      if (eol == std::string_view::npos) eol = source_.size();
      std::string_view line = source_.substr(pos, eol - pos);
      pos = eol + 1;
      ++line_no;

      if (auto cut = line.find_first_of(";#"); cut != std::string_view::npos) {
        line = line.substr(0, cut);
      }
      line = trim(line);
      if (line.empty()) continue;

      if (line.back() == ':') {
        define_label(trim(line.substr(0, line.size() - 1)), line_no);
        continue;
      }
      if (line.front() == '.') {
        parse_directive(line, line_no);
        continue;
      }
      parse_instr(line, line_no);
    }
    if (pending_func_.has_value()) {
      throw AsmError(line_no, ".func not followed by a label");
    }
  }

  void define_label(std::string_view name, size_t line) {
    if (name.empty()) throw AsmError(line, "empty label");
    const uint32_t addr = in_data_ ? data_cursor_ : code_cursor_;
    if (!labels_.emplace(name, addr).second) {
      throw AsmError(line, "duplicate label '" + std::string(name) + "'");
    }
    if (pending_func_.has_value()) {
      image_.functions.push_back({std::string(*pending_func_), addr});
      pending_func_.reset();
    }
  }

  void parse_directive(std::string_view line, size_t line_no) {
    const size_t sp = line.find_first_of(" \t");
    std::string_view dir = line.substr(0, sp);
    std::string_view rest =
        sp == std::string_view::npos ? std::string_view{} : trim(line.substr(sp));

    if (dir == ".name") {
      image_.name = std::string(rest);
    } else if (dir == ".code") {
      // Each section is laid out back to back from its one base: a base
      // set after the section has contents would leave them outside it.
      if (code_cursor_ != image_.code_base) {
        throw AsmError(line_no, ".code base after code was emitted");
      }
      image_.code_base = expect_bits(rest, 32, line_no);
      code_cursor_ = image_.code_base;
      in_data_ = false;
    } else if (dir == ".data") {
      if (!rest.empty()) {
        if (data_cursor_ != image_.data_base) {
          throw AsmError(line_no, ".data base after data was emitted");
        }
        image_.data_base = expect_bits(rest, 32, line_no);
        data_cursor_ = image_.data_base;
      }
      in_data_ = true;
    } else if (dir == ".text") {
      in_data_ = false;
    } else if (dir == ".entry") {
      entry_label_ = rest;
      entry_line_ = line_no;
    } else if (dir == ".func") {
      if (rest.empty()) throw AsmError(line_no, ".func requires a name");
      pending_func_ = rest;
    } else if (dir == ".word") {
      const uint32_t value = expect_bits(rest, 32, line_no);
      data_items_.push_back({DataItem::Kind::kWord, value, {}, line_no,
                             advance(data_cursor_, 4, "data", line_no)});
    } else if (dir == ".byte") {
      const uint32_t value = expect_bits(rest, 8, line_no);
      data_items_.push_back({DataItem::Kind::kByte, value, {}, line_no,
                             advance(data_cursor_, 1, "data", line_no)});
    } else if (dir == ".space") {
      const auto n = expect_int(rest, line_no);
      if (n < 0) throw AsmError(line_no, ".space size must be non-negative");
      data_items_.push_back(
          {DataItem::Kind::kSpace, static_cast<uint32_t>(n), {}, line_no,
           advance(data_cursor_, static_cast<uint64_t>(n), "data", line_no)});
    } else if (dir == ".ptr") {
      if (rest.empty()) throw AsmError(line_no, ".ptr requires a label");
      data_items_.push_back({DataItem::Kind::kPtr, 0, rest, line_no,
                             advance(data_cursor_, 4, "data", line_no)});
    } else {
      throw AsmError(line_no, "unknown directive '" + std::string(dir) + "'");
    }
  }

  /// Parses "[rN]", "[rN+d]", "[rN-d]".
  std::pair<uint8_t, int32_t> parse_mem(std::string_view tok, size_t line) const {
    if (tok.size() < 3 || tok.front() != '[' || tok.back() != ']') {
      throw AsmError(line, "expected memory operand, got '" + std::string(tok) + "'");
    }
    std::string_view inner = trim(tok.substr(1, tok.size() - 2));
    size_t sign = inner.find_first_of("+-");
    if (sign == std::string_view::npos) {
      return {expect_reg(inner, line), 0};
    }
    const uint8_t base = expect_reg(trim(inner.substr(0, sign)), line);
    const int64_t disp = expect_int(inner.substr(sign), line);
    if (disp < -32768 || disp > 32767) {
      throw AsmError(line, "displacement out of 16-bit range");
    }
    return {base, static_cast<int32_t>(disp)};
  }

  void emit(PendingInstr p) {
    if (in_data_) {
      throw AsmError(p.line, "instruction in data section");
    }
    p.instr.length = instr_length(static_cast<uint8_t>(p.instr.op));
    p.addr = advance(code_cursor_, p.instr.length, "code", p.line);
    instrs_.push_back(p);
  }

  void parse_instr(std::string_view line, size_t line_no) {
    const size_t sp = line.find_first_of(" \t");
    const std::string_view mn = line.substr(0, sp);
    const auto ops = split_operands(
        sp == std::string_view::npos ? std::string_view{} : line.substr(sp));

    PendingInstr p;
    p.line = line_no;
    Instr& in = p.instr;

    auto need = [&](size_t n) {
      if (ops.size() != n) {
        throw AsmError(line_no, std::string(mn) + " expects " +
                                    std::to_string(n) + " operand(s), got " +
                                    std::to_string(ops.size()));
      }
    };
    auto reg_or_imm = [&](Op rr, Op ri) {
      need(2);
      in.rd = expect_reg(ops[0], line_no);
      if (parse_reg(ops[1])) {
        in.op = rr;
        in.rs = *parse_reg(ops[1]);
      } else {
        in.op = ri;
        if (!ops[1].empty() && ops[1][0] == '@') {
          p.imm_label = ops[1].substr(1);
          if (p.imm_label.empty()) {
            throw AsmError(line_no, "expected label after '@'");
          }
        } else {
          in.imm = expect_bits(ops[1], 32, line_no);
        }
      }
    };
    auto mem_op = [&](Op op) {
      need(2);
      in.op = op;
      in.rd = expect_reg(ops[0], line_no);
      auto [base, disp] = parse_mem(ops[1], line_no);
      in.rs = base;
      in.disp = disp;
    };
    auto one_reg = [&](Op op) {
      need(1);
      in.op = op;
      in.rd = expect_reg(ops[0], line_no);
    };
    auto direct = [&](Op op) {
      need(1);
      in.op = op;
      if (auto v = parse_int(ops[0])) {
        in.imm = fit(*v, 32, ops[0], line_no);
      } else {
        p.target_label = ops[0];
      }
    };

    if (mn == "nop") { need(0); in.op = Op::kNop; }
    else if (mn == "halt") { need(0); in.op = Op::kHalt; }
    else if (mn == "ret") { need(0); in.op = Op::kRet; }
    else if (mn == "sys") {
      need(1);
      in.op = Op::kSys;
      in.imm = expect_bits(ops[0], 32, line_no);
    }
    else if (mn == "out") { one_reg(Op::kOut); }
    else if (mn == "push") {
      need(1);
      if (parse_reg(ops[0])) {
        in.op = Op::kPushR;
        in.rd = *parse_reg(ops[0]);
      } else {
        in.op = Op::kPushI;
        in.imm = expect_bits(ops[0], 32, line_no);
      }
    }
    else if (mn == "pop") { one_reg(Op::kPopR); }
    else if (mn == "jmpr") { one_reg(Op::kJmpR); }
    else if (mn == "callr") { one_reg(Op::kCallR); }
    else if (mn == "mov") { reg_or_imm(Op::kMovRR, Op::kMovRI); }
    else if (mn == "add") { reg_or_imm(Op::kAddRR, Op::kAddRI); }
    else if (mn == "sub") { reg_or_imm(Op::kSubRR, Op::kSubRI); }
    else if (mn == "and") { reg_or_imm(Op::kAndRR, Op::kAndRI); }
    else if (mn == "or") { reg_or_imm(Op::kOrRR, Op::kOrRI); }
    else if (mn == "xor") { reg_or_imm(Op::kXorRR, Op::kXorRI); }
    else if (mn == "shl") { reg_or_imm(Op::kShlRR, Op::kShlRI); }
    else if (mn == "shr") { reg_or_imm(Op::kShrRR, Op::kShrRI); }
    else if (mn == "mul") { reg_or_imm(Op::kMulRR, Op::kMulRI); }
    else if (mn == "cmp") { reg_or_imm(Op::kCmpRR, Op::kCmpRI); }
    else if (mn == "div") {
      need(2);
      in.op = Op::kDivRR;
      in.rd = expect_reg(ops[0], line_no);
      in.rs = expect_reg(ops[1], line_no);
    }
    else if (mn == "test") {
      need(2);
      in.op = Op::kTestRR;
      in.rd = expect_reg(ops[0], line_no);
      in.rs = expect_reg(ops[1], line_no);
    }
    else if (mn == "ld") { mem_op(Op::kLd); }
    else if (mn == "st") { mem_op(Op::kSt); }
    else if (mn == "ldb") { mem_op(Op::kLdb); }
    else if (mn == "stb") { mem_op(Op::kStb); }
    else if (mn == "jmp") { direct(Op::kJmp); }
    else if (mn == "call") { direct(Op::kCall); }
    else if (mn.size() > 1 && mn[0] == 'j' && parse_cond(mn.substr(1))) {
      direct(Op::kJcc);
      in.cond = *parse_cond(mn.substr(1));
    }
    else {
      throw AsmError(line_no, "unknown mnemonic '" + std::string(mn) + "'");
    }
    emit(p);
  }

  // ---- pass 2: resolve and encode ----------------------------------------

  uint32_t lookup(std::string_view label, size_t line) const {
    auto it = labels_.find(label);
    if (it == labels_.end()) {
      throw AsmError(line, "undefined label '" + std::string(label) + "'");
    }
    return it->second;
  }

  void resolve() {
    image_.code.reserve(code_cursor_ - image_.code_base);
    for (auto& p : instrs_) {
      if (!p.target_label.empty()) p.instr.imm = lookup(p.target_label, p.line);
      if (!p.imm_label.empty()) p.instr.imm = lookup(p.imm_label, p.line);
      encode(p.instr, image_.code);
    }
    image_.data.resize(data_cursor_ - image_.data_base, 0);
    for (const auto& d : data_items_) {
      const uint32_t off = d.addr - image_.data_base;
      switch (d.kind) {
        case DataItem::Kind::kWord:
          image_.write_data32(d.addr, d.value);
          break;
        case DataItem::Kind::kByte:
          image_.data[off] = static_cast<uint8_t>(d.value);
          break;
        case DataItem::Kind::kSpace:
          break;  // already zero-filled
        case DataItem::Kind::kPtr: {
          const uint32_t target = lookup(d.label, d.line);
          image_.write_data32(d.addr, target);
          if (target >= image_.code_base && target < code_cursor_) {
            image_.relocs.push_back({d.addr});
          }
          break;
        }
      }
    }
    if (!entry_label_.empty()) {
      image_.entry = lookup(entry_label_, entry_line_);
    } else {
      image_.entry = image_.code_base;
    }
  }

  std::string_view source_;
  Image image_ = [] {
    Image img;
    img.code_base = binary::kDefaultCodeBase;
    img.data_base = binary::kDefaultDataBase;
    return img;
  }();
  bool in_data_ = false;
  uint32_t code_cursor_ = binary::kDefaultCodeBase;
  uint32_t data_cursor_ = binary::kDefaultDataBase;
  std::unordered_map<std::string_view, uint32_t> labels_;
  std::vector<PendingInstr> instrs_;
  std::vector<DataItem> data_items_;
  std::optional<std::string_view> pending_func_;
  std::string_view entry_label_;
  size_t entry_line_ = 0;
};

}  // namespace

binary::Image assemble(std::string_view source) {
  return Assembler(source).run();
}

}  // namespace vcfr::isa
