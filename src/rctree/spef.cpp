#include "rctree/spef.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "rctree/graph_builder.hpp"
#include "rctree/mapped_file.hpp"
#include "rctree/spef_pipeline.hpp"
#include "robust/fault.hpp"

namespace rct {
namespace {

using detail::kNoDenseNode;

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

/// Case-insensitive (ASCII) equality against an UPPERCASE keyword literal.
bool ieq(std::string_view s, std::string_view upper) {
  if (s.size() != upper.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
    if (c != upper[i]) return false;
  }
  return true;
}

/// Token separators: the bytes istringstream's operator>> skipped in the
/// original parser ('\n' cannot occur: lines are split on it first).
constexpr std::array<bool, 256> kSeparator = [] {
  std::array<bool, 256> table{};
  for (const unsigned char c : {' ', '\t', '\r', '\v', '\f', '\n'}) table[c] = true;
  return table;
}();

constexpr bool is_separator(char c) { return kSeparator[static_cast<unsigned char>(c)]; }

/// The hash NameTable files names under, fed a name's bytes as 8-byte
/// little-endian words (the last one zero-padded) and then its length.
class NameHash {
 public:
  void add(std::uint64_t word) {
    h_ = (h_ ^ word) * 0xff51afd7ed558ccdull;
    h_ ^= h_ >> 32;
  }
  [[nodiscard]] std::uint32_t finish(std::size_t size) {
    add(size);
    return static_cast<std::uint32_t>((h_ * 0xc4ceb9fe1a85ec53ull) >> 32);
  }

 private:
  std::uint64_t h_ = 0x9e3779b97f4a7c15ull;
};

/// Feeds [p, end), which starts on one of the name's word boundaries, to
/// `hash` a byte at a time (a variable-length memcpy is a call).
void add_bytes(NameHash& hash, const char* p, const char* end) {
  std::uint64_t word = 0;
  unsigned shift = 0;
  for (; p < end; ++p) {
    word |= std::uint64_t{static_cast<unsigned char>(*p)} << shift;
    shift += 8;
    if (shift == 64) {
      hash.add(word);
      word = 0;
      shift = 0;
    }
  }
  if (shift != 0) hash.add(word);
}

std::uint32_t hash_name(std::string_view s) {
  NameHash hash;
  const char* p = s.data();
  const char* const end = p + s.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; end - p >= 8; p += 8) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      hash.add(word);
    }
  }
  add_bytes(hash, p, end);
  return hash.finish(s.size());
}

/// The lines of a chunk, each cut at its `//` comment (which ends a line
/// even in the middle of a token).  The search for '/' runs ahead over the
/// whole chunk: one memchr serves every line up to the next slash, so a
/// chunk without one is searched once.
class Lines {
 public:
  explicit Lines(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()), slash_(find('/', p_)) {}

  /// The next line up to its comment cut; false past the last line.
  bool next(std::string_view& line) {
    if (p_ >= end_) return false;
    const char* const line_end = find('\n', p_);
    while (slash_ < line_end && !(slash_ + 1 < line_end && slash_[1] == '/'))
      slash_ = find('/', slash_ + 1);
    const char* const cut = std::min(slash_, line_end);
    if (slash_ < line_end) slash_ = find('/', line_end);
    line = {p_, static_cast<std::size_t>(cut - p_)};
    p_ = line_end + (line_end < end_ ? 1 : 0);
    return true;
  }

 private:
  /// The first `c` in [p, end_), or end_.
  [[nodiscard]] const char* find(char c, const char* p) const {
    if (p >= end_) return end_;
    const void* hit = std::memchr(p, c, static_cast<std::size_t>(end_ - p));
    return hit == nullptr ? end_ : static_cast<const char*>(hit);
  }

  const char* p_;
  const char* const end_;
  const char* slash_;  ///< the first '/' at or after the current line, or end_
};

/// A node-name token and its hash_name().
struct Name {
  std::string_view text;
  std::uint32_t hash = 0;
};

/// A number token.  `parsed` is true, and `value` holds it, when from_chars
/// read the token exactly to its end; otherwise Shard::number() gives it
/// strtod's slow path.
struct Number {
  std::string_view text;
  double value = 0.0;
  bool parsed = false;
};

/// The one tokenizer of the section parser: every line, keyword or data,
/// is read through it once, left to right, as Lines cut it.  Tokens are
/// yielded as views into the buffer and counted (the grammar distinguishes
/// 3 vs 4 vs more tokens).  A name is hashed as it is scanned and a number
/// parsed by from_chars where its token starts, so no byte is read twice.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  /// The next token, or an empty view at the end of the line.
  std::string_view next() {
    const char* const start = skip_separators();
    while (p_ < end_ && !is_separator(*p_)) ++p_;
    return token(start);
  }

  /// next() for a node name, with its hash_name().  While 8 bytes remain,
  /// it reads a word at a time: one test flags the bytes below '!' (every
  /// separator among them), and the word, masked at the first separator,
  /// goes straight into the hash.
  Name next_name() {
    const char* const start = skip_separators();
    NameHash hash;
    if constexpr (std::endian::native == std::endian::little) {
      while (end_ - p_ >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p_, 8);
        // Exact for the lowest flagged byte, the only one read.
        const std::uint64_t low = (word - 0x2121212121212121ull) & ~word & 0x8080808080808080ull;
        if (low == 0) {
          hash.add(word);
          p_ += 8;
          continue;
        }
        const int k = std::countr_zero(low) / 8;
        if (!is_separator(p_[k])) break;  // another control byte: finish bytewise
        if (k != 0) hash.add(word & ((std::uint64_t{1} << (8 * k)) - 1));
        p_ += k;
        return {token(start), hash.finish(static_cast<std::size_t>(p_ - start))};
      }
    }
    const char* const rest = p_;
    while (p_ < end_ && !is_separator(*p_)) ++p_;
    add_bytes(hash, rest, p_);
    return {token(start), hash.finish(static_cast<std::size_t>(p_ - start))};
  }

  /// next() for a number, parsed by from_chars where the token starts.
  Number next_number() {
    const char* const start = skip_separators();
    Number n;
    const auto [stop, ec] = std::from_chars(start, end_, n.value);
    p_ = stop;  // from_chars reads no separator, so it stops inside the token
    while (p_ < end_ && !is_separator(*p_)) ++p_;
    n.parsed = ec == std::errc() && p_ == stop;
    n.text = token(start);
    return n;
  }

  /// Reads the rest of the line; the number of tokens on it.
  std::size_t count() {
    while (!next().empty()) {
    }
    return n_;
  }

 private:
  const char* skip_separators() {
    while (p_ < end_ && is_separator(*p_)) ++p_;
    return p_;
  }

  std::string_view token(const char* start) {
    if (p_ == start) return {};
    ++n_;
    return {start, static_cast<std::size_t>(p_ - start)};
  }

  const char* p_;
  const char* const end_;
  std::size_t n_ = 0;
};

obs::Counter& diagnostics_counter() {
  static obs::Counter& c = obs::registry().counter("parse.diagnostics");
  return c;
}

/// Node-name interning for the SPEF section parser: names (views into the
/// parse buffer) map to dense ids 0..size()-1 in first-seen order.  A
/// power-of-two, linear-probing table kept at most half full and grown by
/// rehash.  Slots and the name list live in the Arena, so a table dies with
/// its section and cannot carry names into the next one.
class NameTable {
 public:
  explicit NameTable(Arena& arena)
      : arena_(&arena), names_(ArenaAllocator<std::string_view>{arena}) {}

  /// Dense id of `name`, whose hash_name() is `h`, minting the next id on
  /// first sight (`minted` reports which).
  std::uint32_t intern(std::string_view name, std::uint32_t h, bool& minted) {
    if (2 * (names_.size() + 1) > capacity()) grow();
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id == kNoDenseNode) {
        slot = {h, static_cast<std::uint32_t>(names_.size())};
        names_.push_back(name);
        minted = true;
        return slot.id;
      }
      if (slot.hash == h && names_[slot.id] == name) {
        minted = false;
        return slot.id;
      }
    }
  }

  /// Dense id of `name`, or kNoDenseNode.
  [[nodiscard]] std::uint32_t find(std::string_view name) const {
    if (slots_ == nullptr) return kNoDenseNode;
    const std::uint32_t h = hash_name(name);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNoDenseNode) return kNoDenseNode;
      if (slot.hash == h && names_[slot.id] == name) return slot.id;
    }
  }

  [[nodiscard]] std::span<const std::string_view> names() const {
    return {names_.data(), names_.size()};
  }

  /// Forgets every name, keeping the slots for the next net.
  void clear() {
    names_.clear();
    std::fill_n(slots_, capacity(), Slot{0, kNoDenseNode});
  }

 private:
  struct Slot {
    std::uint32_t hash;
    std::uint32_t id;  ///< kNoDenseNode marks an empty slot
  };

  [[nodiscard]] std::size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1; }
  /// Doubles the slot array (64 at first) and reinserts by stored hash.
  void grow() {
    const std::size_t old_capacity = capacity();
    const std::size_t new_capacity = old_capacity == 0 ? 64 : 2 * old_capacity;
    Slot* const old_slots = slots_;
    slots_ = static_cast<Slot*>(arena_->allocate(new_capacity * sizeof(Slot), alignof(Slot)));
    mask_ = new_capacity - 1;
    std::fill_n(slots_, new_capacity, Slot{0, kNoDenseNode});
    for (std::size_t k = 0; k < old_capacity; ++k) {
      if (old_slots[k].id == kNoDenseNode) continue;
      std::size_t i = old_slots[k].hash & mask_;
      while (slots_[i].id != kNoDenseNode) i = (i + 1) & mask_;
      slots_[i] = old_slots[k];
    }
  }

  Arena* arena_;
  Slot* slots_ = nullptr;
  std::size_t mask_ = 0;
  std::vector<std::string_view, ArenaAllocator<std::string_view>> names_;
};

enum class NetSection { kNone, kConn, kCap, kRes };

/// Thrown inside a shard to signal "defect in the current *D_NET"; in
/// lenient mode it is converted to a Diagnostic and the net is skipped.
struct NetDefect {
  robust::Code code;
  std::size_t line;
  std::string message;
};

/// Parses one chunk of the file — a file-scope run or a *D_NET section —
/// with the exact line dispatch of the old single-pass parser.  Each line
/// is read once, through Lines and LineScanner; the data lines intern their
/// names with the hash the scanner computed and keep the value it parsed.
/// All net scratch (edges, cap map, load list) is arena-backed and the
/// tokens are views into the input buffer; nothing is copied until a net
/// survives.
class Shard {
 public:
  Shard(const SpefParseOptions& options, spef::Units units, Arena& arena)
      : options_(options),
        units_(units),
        arena_(arena),
        nodes_(arena),
        cap_val_(ArenaAllocator<double>{arena}),
        has_cap_(ArenaAllocator<unsigned char>{arena}),
        res_(ArenaAllocator<detail::DenseResistor>{arena}),
        load_names_(ArenaAllocator<std::pair<std::string_view, std::size_t>>{arena}) {}

  /// Processes the lines of `slice` (whose first line is 1-based
  /// `first_line`), then finishes any open net at `finish_line`.
  spef::ShardResult run(std::string_view slice, std::size_t first_line,
                        std::size_t finish_line) {
    try {
      std::size_t line_no = first_line == 0 ? 0 : first_line - 1;
      Lines lines(slice);
      for (std::string_view line; lines.next(line);) process_line(line, ++line_no);
      finish_net(finish_line);
    } catch (...) {
      // Strict mode: the error the serial parser would have thrown at this
      // point.  merge_spef() rethrows the earliest chunk's error.
      result_.error = std::current_exception();
    }
    return std::move(result_);
  }

  [[nodiscard]] spef::Units units() const { return units_; }

 private:
  [[noreturn]] void fail(std::size_t line_no, robust::Code code, const std::string& msg) {
    if (options_.lenient) throw NetDefect{code, line_no, msg};
    throw SpefError(code, msg, {options_.path, line_no}, "spef");
  }

  void diagnose(std::size_t line_no, robust::Code code, std::string msg,
                std::string_view net = {}) {
    diagnostics_counter().add();
    result_.diagnostics.push_back(
        {code, std::move(msg), {options_.path, line_no}, std::string(net)});
  }

  /// File-scope defect: strict throws, lenient records and carries on.
  void defect(std::size_t line_no, robust::Code code, const std::string& msg) {
    if (!options_.lenient) throw SpefError(code, msg, {options_.path, line_no}, "spef");
    diagnose(line_no, code, msg);
  }

  double unit_scale(std::size_t line_no, std::string_view unit) {
    static const std::map<std::string, double> kUnits = {
        {"S", 1.0},    {"MS", 1e-3},  {"US", 1e-6},  {"NS", 1e-9},  {"PS", 1e-12},
        {"F", 1.0},    {"UF", 1e-6},  {"NF", 1e-9},  {"PF", 1e-12}, {"FF", 1e-15},
        {"OHM", 1.0},  {"KOHM", 1e3}, {"MOHM", 1e6},
    };
    const auto it = kUnits.find(to_upper(unit));
    if (it == kUnits.end())
      fail(line_no, robust::Code::kBadUnit, "unknown unit '" + std::string(unit) + "'");
    return it->second;
  }

  /// The value of a number token: the scanner's from_chars parse, or the
  /// slow path keeping strtod's exact acceptance (the old parser's): '+'
  /// prefixes, hex floats, out-of-range -> HUGE_VAL / 0.
  double number(std::size_t line_no, const Number& n) {
    if (n.parsed) return n.value;
    const std::string_view text = n.text;
    char buf[128];
    std::string big;
    const char* cstr;
    if (text.size() < sizeof(buf)) {
      std::memcpy(buf, text.data(), text.size());
      buf[text.size()] = '\0';
      cstr = buf;
    } else {
      big.assign(text);
      cstr = big.c_str();
    }
    char* end = nullptr;
    const double s = std::strtod(cstr, &end);
    if (end == cstr || *end != '\0')
      fail(line_no, robust::Code::kBadNumber, "bad number '" + std::string(text) + "'");
    return s;
  }

  /// Validated resistance: finite and strictly positive, or a typed defect.
  double parse_resistance(std::size_t line_no, const Number& n) {
    const double v = number(line_no, n) * units_.res;
    if (std::isnan(v) || std::isinf(v))
      fail(line_no, robust::Code::kNanValue,
           "resistance '" + std::string(n.text) + "' is not finite");
    if (v <= 0.0)
      fail(line_no, robust::Code::kNonPhysicalValue,
           "non-physical resistance " + std::string(n.text) + " (must be > 0)");
    return v;
  }

  /// Validated capacitance: finite; a finite negative value is repaired to
  /// 0F in lenient mode (diagnostic), rejected in strict mode.
  double parse_capacitance(std::size_t line_no, std::string_view node, const Number& n) {
    const double v = number(line_no, n) * units_.cap;
    if (std::isnan(v) || std::isinf(v))
      fail(line_no, robust::Code::kNanValue,
           "capacitance '" + std::string(n.text) + "' is not finite");
    if (v < 0.0) {
      if (!options_.lenient)
        fail(line_no, robust::Code::kNonPhysicalValue,
             "non-physical capacitance " + std::string(n.text) + " at node '" +
                 std::string(node) + "' (must be >= 0)");
      diagnose(line_no, robust::Code::kNonPhysicalValue,
               "repaired negative capacitance " + std::string(n.text) + " at node '" +
                   std::string(node) + "' to 0F",
               net_name_);
      return 0.0;
    }
    return v;
  }

  /// Dense node id for `name` (a view into the parse buffer), minted on
  /// first encounter.
  std::uint32_t intern(const Name& name) {
    bool minted = false;
    const std::uint32_t id = nodes_.intern(name.text, name.hash, minted);
    if (minted) {
      cap_val_.push_back(0.0);
      has_cap_.push_back(0);
    }
    return id;
  }

  /// One line, its comment already cut off.
  void process_line(std::string_view text, std::size_t line_no) {
    LineScanner line(text);
    const std::string_view t0 = line.next();
    if (t0.empty()) return;
    const bool star = t0[0] == '*';  // every keyword starts with '*', so
                                     // data lines skip the whole ladder
    // The keyword checks are mutually exclusive literal matches, so their
    // order is free; net-structure keywords come first (they dominate) and
    // 2-char tokens (*P / *I — the hottest keyword lines) skip the ladder
    // entirely, falling straight through to the section dispatch.
    if (star && t0.size() > 2) {
      if (ieq(t0, "*D_NET")) {
        finish_net(line_no);
        const std::string_view name = line.next();
        if (name.empty()) {
          defect(line_no, robust::Code::kSyntax, "*D_NET requires a net name");
          return;
        }
        net_name_ = name;
        in_net_ = true;
        section_ = NetSection::kNone;
        return;
      }
      if (ieq(t0, "*CONN")) {
        section_ = NetSection::kConn;
        return;
      }
      if (ieq(t0, "*CAP")) {
        section_ = NetSection::kCap;
        return;
      }
      if (ieq(t0, "*RES")) {
        section_ = NetSection::kRes;
        return;
      }
      if (ieq(t0, "*END")) {
        finish_net(line_no);
        section_ = NetSection::kNone;
        return;
      }
      if (ieq(t0, "*SPEF") || ieq(t0, "*DATE") || ieq(t0, "*VENDOR") ||
          ieq(t0, "*PROGRAM") || ieq(t0, "*VERSION") || ieq(t0, "*DESIGN_FLOW") ||
          ieq(t0, "*DIVIDER") || ieq(t0, "*DELIMITER") || ieq(t0, "*BUS_DELIMITER") ||
          ieq(t0, "*L_UNIT")) {
        return;  // opaque header metadata
      }
      if (ieq(t0, "*DESIGN")) {
        if (const std::string_view name = line.next(); !name.empty()) {
          std::string d(name);
          d.erase(std::remove(d.begin(), d.end(), '"'), d.end());
          result_.design = std::move(d);
          result_.has_design = true;
        }
        return;
      }
      if (ieq(t0, "*T_UNIT") || ieq(t0, "*C_UNIT") || ieq(t0, "*R_UNIT")) {
        const Number value = line.next_number();
        const std::string_view unit = line.next();
        if (line.count() != 3) {
          defect(line_no, robust::Code::kSyntax, to_upper(t0) + " requires: value unit");
          return;
        }
        try {
          const double scale = number(line_no, value) * unit_scale(line_no, unit);
          if (ieq(t0, "*T_UNIT")) units_.time = scale;
          if (ieq(t0, "*C_UNIT")) units_.cap = scale;
          if (ieq(t0, "*R_UNIT")) units_.res = scale;
        } catch (const NetDefect& d) {
          diagnose(d.line, d.code, d.message);  // keep the default unit
        }
        return;
      }
    }
    if (skipping_net_) return;  // lenient: discard the rest of a bad net

    try {
      if (star && ieq(t0, "*INDUC"))
        fail(line_no, robust::Code::kUnsupported,
             "*INDUC sections are not supported (RC trees only)");

      if (!in_net_) {
        defect(line_no, robust::Code::kSyntax,
               "unexpected statement '" + std::string(t0) + "' outside *D_NET");
        return;
      }
      switch (section_) {
        case NetSection::kConn: {
          if (star && ieq(t0, "*P")) {
            const std::string_view port = line.next();
            if (port.empty()) fail(line_no, robust::Code::kSyntax, "*P requires a port name");
            if (!driver_.empty())
              fail(line_no, robust::Code::kSyntax, "multiple *P driving ports on one net");
            driver_ = port;
          } else if (star && ieq(t0, "*I")) {
            const std::string_view pin = line.next();
            if (pin.empty()) fail(line_no, robust::Code::kSyntax, "*I requires a pin name");
            load_names_.emplace_back(pin, line_no);
          } else {
            fail(line_no, robust::Code::kUnsupported,
                 "unsupported *CONN entry '" + std::string(t0) + "'");
          }
          break;
        }
        case NetSection::kCap: {
          const Name node = line.next_name();
          const Number value = line.next_number();
          switch (line.count()) {
            case 3: {
              // Value first: a bad number must not create the node entry
              // (matching the legacy map's RHS-before-subscript evaluation).
              const double v = parse_capacitance(line_no, node.text, value);
              const std::uint32_t id = intern(node);
              cap_val_[id] += v;
              has_cap_[id] = 1;
              break;
            }
            case 4:
              fail(line_no, robust::Code::kUnsupported,
                   "coupling capacitors are not supported (RC trees only)");
            default:
              fail(line_no, robust::Code::kSyntax, "*CAP entry requires: index node value");
          }
          break;
        }
        case NetSection::kRes: {
          const Name a = line.next_name();
          const Name b = line.next_name();
          const Number value = line.next_number();
          if (line.count() != 4)
            fail(line_no, robust::Code::kSyntax, "*RES entry requires: index nodeA nodeB value");
          if (a.text == b.text)
            fail(line_no, robust::Code::kDuplicateNode,
                 "resistor shorts node '" + std::string(a.text) + "' to itself");
          const double v = parse_resistance(line_no, value);
          res_.push_back({intern(a), intern(b), v, line_no});
          break;
        }
        case NetSection::kNone:
          fail(line_no, robust::Code::kSyntax, "statement before any *CONN/*CAP/*RES section");
      }
    } catch (const NetDefect& d) {
      // Lenient recovery: the whole current net is suspect; skip it.
      diagnose(d.line, d.code, d.message, net_name_);
      if (in_net_) skipping_net_ = true;
    }
  }

  void finish_net(std::size_t line_no) {
    if (!in_net_) return;
    if (skipping_net_) {
      ++result_.nets_rejected;
      reset_net();
      return;
    }
    try {
      robust::fault::maybe_throw("parse.spef.net", robust::Code::kSyntax);
      if (driver_.empty())
        fail(line_no, robust::Code::kNoDriver,
             "net '" + std::string(net_name_) + "' has no *P driving port");
      SpefNet net;
      net.name = std::string(net_name_);
      net.driver = std::string(driver_);
      std::span<const NodeId> tree_id;  // dense id -> tree node, kSource if not in the tree
      try {
        const detail::DenseElements elements{nodes_.names(),
                                             {res_.data(), res_.size()},
                                             {cap_val_.data(), cap_val_.size()},
                                             {has_cap_.data(), has_cap_.size()}};
        auto built =
            detail::build_tree_from_dense(elements, nodes_.find(driver_), driver_, arena_);
        net.tree = std::move(built.tree);
        tree_id = built.tree_id;
      } catch (const detail::GraphBuildError& e) {
        fail(e.tag ? e.tag : line_no, e.code,
             "net '" + std::string(net_name_) + "': " + e.what());
      }
      // The driver is the ideal source, not a tree node: a load naming it
      // is as dangling as one naming no node at all.
      net.loads.reserve(load_names_.size());
      for (const auto& [load, load_line] : load_names_) {
        const std::uint32_t dense = nodes_.find(load);
        const NodeId id = dense == kNoDenseNode ? kSource : tree_id[dense];
        if (id == kSource) {
          const std::string msg = "net '" + std::string(net_name_) + "': load pin '" +
                                  std::string(load) + "' not in parasitics";
          if (!options_.lenient) fail(load_line, robust::Code::kDanglingLoad, msg);
          diagnose(load_line, robust::Code::kDanglingLoad, "dropped dangling load: " + msg,
                   net_name_);
          continue;
        }
        net.loads.push_back(id);
      }
      result_.nets.push_back(std::move(net));
    } catch (const NetDefect& d) {
      // Lenient only (fail() throws SpefError in strict mode).
      diagnose(d.line, d.code, d.message, net_name_);
      ++result_.nets_rejected;
    } catch (const robust::Error& e) {
      // Injected parse faults and other typed failures inside the net.
      if (!options_.lenient) throw;
      diagnose(line_no, e.code(), e.message(), net_name_);
      ++result_.nets_rejected;
    }
    reset_net();
  }

  void reset_net() {
    nodes_.clear();
    cap_val_.clear();
    has_cap_.clear();
    res_.clear();
    load_names_.clear();
    driver_ = {};
    in_net_ = false;
    skipping_net_ = false;
    // net_name_ intentionally survives (legacy quirk: later file-scope
    // defects in the same chunk attribute to the last net).
  }

  const SpefParseOptions& options_;
  spef::Units units_;
  Arena& arena_;
  spef::ShardResult result_;

  // Per-net element graph with node names interned to dense ids as lines
  // are parsed, so tree construction needs no hashing at all.
  NameTable nodes_;
  std::vector<double, ArenaAllocator<double>> cap_val_;
  std::vector<unsigned char, ArenaAllocator<unsigned char>> has_cap_;
  std::vector<detail::DenseResistor, ArenaAllocator<detail::DenseResistor>> res_;
  std::vector<std::pair<std::string_view, std::size_t>,
              ArenaAllocator<std::pair<std::string_view, std::size_t>>>
      load_names_;  ///< name, line
  std::string_view net_name_;
  std::string_view driver_;
  NetSection section_ = NetSection::kNone;
  bool in_net_ = false;
  /// Lenient recovery: the current *D_NET had a defect; ignore its
  /// remaining lines until *D_NET/*END.
  bool skipping_net_ = false;
};

}  // namespace

namespace spef {

ParsePlan prepare_spef(std::string_view text, const SpefParseOptions& options,
                       std::size_t stripes, const ForEach& for_each) {
  obs::registry().counter("parse.bytes").add(text.size());
  ParsePlan plan;
  plan.layout = index_spef(text, stripes, for_each);
  plan.section_units.reserve(plan.layout.sections.size());
  plan.run_results.resize(plan.layout.runs.size());
  Arena arena;
  Units units;
  for (const Chunk& c : plan.layout.chunks) {
    if (c.is_section) {
      plan.section_units.push_back(units);
      continue;
    }
    const FileScopeRun& run = plan.layout.runs[c.index];
    const std::string_view slice = text.substr(run.offset, run.length);
    // Most runs are the blank separator lines between *END and the next
    // *D_NET; whitespace-only runs cannot produce any output.
    if (slice.find_first_not_of(" \t\r\v\f\n") == std::string_view::npos) continue;
    Shard shard(options, units, arena);
    plan.run_results[c.index] = shard.run(slice, run.first_line, /*finish_line=*/0);
    units = shard.units();
    arena.reset();
  }
  plan.final_units = units;
  return plan;
}

ShardResult parse_spef_section(std::string_view text, const ParsePlan& plan, std::size_t index,
                               const SpefParseOptions& options, Arena& arena) {
  const Section& s = plan.layout.sections[index];
  Shard shard(options, plan.section_units[index], arena);
  return shard.run(text.substr(s.offset, s.length), s.first_line, s.end_line);
}

FileScope merge_file_scope(ParsePlan& plan, std::vector<ShardResult>& sections,
                           std::size_t nets, const SpefParseOptions& options) {
  FileScope scope;
  scope.units = plan.final_units;
  std::size_t diag_count = 0;
  for (const ShardResult& r : sections) diag_count += r.diagnostics.size();
  scope.diagnostics.reserve(diag_count);
  for (const Chunk& c : plan.layout.chunks) {
    ShardResult& r = c.is_section ? sections[c.index] : plan.run_results[c.index];
    if (r.error) std::rethrow_exception(r.error);
    if (r.has_design) scope.design = std::move(r.design);
    for (auto& d : r.diagnostics) scope.diagnostics.push_back(std::move(d));
    scope.nets_rejected += r.nets_rejected;
  }
  if (nets == 0) {
    if (!options.lenient)
      throw SpefError(robust::Code::kEmptyInput, "no *D_NET sections found",
                      {options.path, 0}, "spef");
    if (scope.diagnostics.empty()) {
      diagnostics_counter().add();
      scope.diagnostics.push_back(
          {robust::Code::kEmptyInput, "no *D_NET sections found", {options.path, 0}, {}});
    }
  }
  return scope;
}

SpefFile merge_spef(ParsePlan&& plan, std::vector<ShardResult>&& sections,
                    const SpefParseOptions& options) {
  // Only sections carry nets: a *D_NET line always opens one.
  std::size_t nets = 0;
  for (const ShardResult& r : sections) nets += r.nets.size();
  FileScope scope = merge_file_scope(plan, sections, nets, options);
  SpefFile file;
  file.design = std::move(scope.design);
  file.time_unit = scope.units.time;
  file.cap_unit = scope.units.cap;
  file.res_unit = scope.units.res;
  file.diagnostics = std::move(scope.diagnostics);
  file.nets_rejected = scope.nets_rejected;
  file.nets.reserve(nets);
  for (ShardResult& r : sections)
    for (SpefNet& n : r.nets) file.nets.push_back(std::move(n));
  return file;
}

}  // namespace spef

SpefFile parse_spef(std::string_view text, const SpefParseOptions& options) {
  spef::ParsePlan plan = spef::prepare_spef(text, options);
  Arena arena;
  std::vector<spef::ShardResult> results;
  results.reserve(plan.layout.sections.size());
  for (std::size_t i = 0; i < plan.layout.sections.size(); ++i) {
    results.push_back(spef::parse_spef_section(text, plan, i, options, arena));
    arena.reset();
    if (results.back().error) {
      // Strict mode: nothing after the first error can be observed — the
      // merge below rethrows at or before this chunk.
      results.resize(plan.layout.sections.size());
      break;
    }
  }
  return spef::merge_spef(std::move(plan), std::move(results), options);
}

SpefFile parse_spef(std::string_view text) { return parse_spef(text, SpefParseOptions{}); }

MappedFile map_spef_file(const std::string& path, SpefParseOptions& options) {
  MappedFile file;
  if (!file.open(path))
    throw SpefError(robust::Code::kFileOpen, "cannot open '" + path + "'", {path, 0}, "spef");
  if (options.path.empty()) options.path = path;
  return file;
}

SpefFile parse_spef_file(const std::string& path, const SpefParseOptions& options) {
  SpefParseOptions with_path = options;
  const MappedFile file = map_spef_file(path, with_path);
  return parse_spef(file.view(), with_path);
}

SpefFile parse_spef_file(const std::string& path) {
  return parse_spef_file(path, SpefParseOptions{});
}

namespace {

/// Shortest representation that round-trips exactly (std::to_chars).
std::string_view format_shortest(char (&buf)[32], double v) {
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return {buf, static_cast<std::size_t>(p - buf)};
}

}  // namespace

std::string write_spef(const SpefFile& file) {
  std::ostringstream os;
  char buf[32];
  os << "*SPEF \"IEEE 1481-1998\"\n";
  os << "*DESIGN \"" << (file.design.empty() ? "rct" : file.design) << "\"\n";
  os << "*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n\n";
  for (const SpefNet& net : file.nets) {
    const RCTree& t = net.tree;
    os << "*D_NET " << net.name << ' ' << format_shortest(buf, t.total_capacitance() / 1e-12)
       << '\n';
    os << "*CONN\n*P " << net.driver << " I\n";
    for (NodeId l : net.loads) os << "*I " << t.name(l) << " O\n";
    os << "*CAP\n";
    std::size_t idx = 1;
    for (NodeId i = 0; i < t.size(); ++i) {
      if (t.capacitance(i) == 0.0) continue;
      os << idx++ << ' ' << t.name(i) << ' ' << format_shortest(buf, t.capacitance(i) / 1e-12)
         << '\n';
    }
    os << "*RES\n";
    idx = 1;
    for (NodeId i = 0; i < t.size(); ++i) {
      const std::string up = (t.parent(i) == kSource) ? net.driver : t.name(t.parent(i));
      os << idx++ << ' ' << up << ' ' << t.name(i) << ' '
         << format_shortest(buf, t.resistance(i)) << '\n';
    }
    os << "*END\n\n";
  }
  return os.str();
}

SpefFile spef_from_tree(const RCTree& tree, std::string net_name, std::string design) {
  SpefFile f;
  f.design = std::move(design);
  SpefNet net;
  net.name = std::move(net_name);
  net.tree = tree;
  net.driver = "drv";
  for (NodeId l : tree.leaves()) net.loads.push_back(l);
  f.nets.push_back(std::move(net));
  return f;
}

}  // namespace rct
