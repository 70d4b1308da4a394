#include "rctree/spef.hpp"

#include <algorithm>
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

/// Token separators istringstream's operator>> skips ('\n' cannot occur:
/// lines are split on it first).
constexpr bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' || c == '\n';
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

/// Zero-copy tokenization: views into the line, comment-stripped.  Only the
/// first four token values are ever inspected; `n` still counts them all
/// (the grammar distinguishes 3 vs 4 vs more tokens).
struct Toks {
  std::string_view t[4];
  std::size_t n = 0;
};

Toks split_line(std::string_view line) {
  // One pass: a `//` comment ends the line, even in the middle of a token.
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto at_comment = [&p, end] { return p[0] == '/' && p + 1 < end && p[1] == '/'; };
  Toks toks;
  for (;;) {
    while (p < end && is_ws(*p)) ++p;
    if (p == end || at_comment()) break;
    const char* const start = p;
    while (p < end && !is_ws(*p) && !at_comment()) ++p;
    if (toks.n < 4) toks.t[toks.n] = {start, static_cast<std::size_t>(p - start)};
    ++toks.n;
  }
  return toks;
}

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

  /// Dense id of `name`, minting the next id on first sight (`minted`
  /// reports which).
  std::uint32_t intern(std::string_view name, bool& minted) {
    if (2 * (names_.size() + 1) > capacity()) grow();
    const std::uint32_t h = hash_of(name);
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
    const std::uint32_t h = hash_of(name);
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

  static std::uint32_t hash_of(std::string_view s) {
    const auto mix = [](std::uint64_t h, std::uint64_t word) {
      h = (h ^ word) * 0xff51afd7ed558ccdull;
      return h ^ (h >> 32);
    };
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ s.size();
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t word;
      std::memcpy(&word, s.data() + i, 8);
      h = mix(h, word);
    }
    if (i < s.size()) {  // byte loop: a variable-length memcpy is a call
      std::uint64_t word = 0;
      for (std::size_t k = i; k < s.size(); ++k)
        word |= std::uint64_t{static_cast<unsigned char>(s[k])} << (8 * (k - i));
      h = mix(h, word);
    }
    h *= 0xc4ceb9fe1a85ec53ull;
    return static_cast<std::uint32_t>(h >> 32);
  }

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
/// with the exact line dispatch of the old single-pass parser.  All net
/// scratch (edges, cap map, load list) is arena-backed and the token values
/// are views into the input buffer; nothing is copied until a net survives.
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
      std::size_t pos = 0;
      std::size_t line_no = first_line == 0 ? 0 : first_line - 1;
      while (pos < slice.size()) {
        const std::size_t nl = slice.find('\n', pos);
        const std::string_view line =
            slice.substr(pos, nl == std::string_view::npos ? slice.size() - pos : nl - pos);
        pos = (nl == std::string_view::npos) ? slice.size() : nl + 1;
        ++line_no;
        process_line(line, line_no);
      }
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

  double parse_number(std::size_t line_no, std::string_view text) {
    double v{};
    const char* const first = text.data();
    const char* const last = first + text.size();
    if (const auto [p, ec] = std::from_chars(first, last, v);
        ec == std::errc() && p == last)
      return v;
    // Slow path keeping strtod's exact acceptance (the old parser's): '+'
    // prefixes, hex floats, out-of-range -> HUGE_VAL / 0.
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
  double parse_resistance(std::size_t line_no, std::string_view text) {
    const double v = parse_number(line_no, text) * units_.res;
    if (std::isnan(v) || std::isinf(v))
      fail(line_no, robust::Code::kNanValue,
           "resistance '" + std::string(text) + "' is not finite");
    if (v <= 0.0)
      fail(line_no, robust::Code::kNonPhysicalValue,
           "non-physical resistance " + std::string(text) + " (must be > 0)");
    return v;
  }

  /// Validated capacitance: finite; a finite negative value is repaired to
  /// 0F in lenient mode (diagnostic), rejected in strict mode.
  double parse_capacitance(std::size_t line_no, std::string_view node, std::string_view text) {
    const double v = parse_number(line_no, text) * units_.cap;
    if (std::isnan(v) || std::isinf(v))
      fail(line_no, robust::Code::kNanValue,
           "capacitance '" + std::string(text) + "' is not finite");
    if (v < 0.0) {
      if (!options_.lenient)
        fail(line_no, robust::Code::kNonPhysicalValue,
             "non-physical capacitance " + std::string(text) + " at node '" +
                 std::string(node) + "' (must be >= 0)");
      diagnose(line_no, robust::Code::kNonPhysicalValue,
               "repaired negative capacitance " + std::string(text) + " at node '" +
                   std::string(node) + "' to 0F",
               net_name_);
      return 0.0;
    }
    return v;
  }

  /// Dense node id for `name` (a view into the parse buffer), minted on
  /// first encounter.
  std::uint32_t intern(std::string_view name) {
    bool minted = false;
    const std::uint32_t id = nodes_.intern(name, minted);
    if (minted) {
      cap_val_.push_back(0.0);
      has_cap_.push_back(0);
    }
    return id;
  }

  void process_line(std::string_view raw_line, std::size_t line_no) {
    const Toks toks = split_line(raw_line);
    if (toks.n == 0) return;
    const std::string_view t0 = toks.t[0];
    const bool star = t0[0] == '*';  // every keyword starts with '*', so
                                     // data lines skip the whole ladder
    // The keyword checks are mutually exclusive literal matches, so their
    // order is free; net-structure keywords come first (they dominate) and
    // 2-char tokens (*P / *I — the hottest keyword lines) skip the ladder
    // entirely, falling straight through to the section dispatch.
    if (star && t0.size() > 2) {
      if (ieq(t0, "*D_NET")) {
        finish_net(line_no);
        if (toks.n < 2) {
          defect(line_no, robust::Code::kSyntax, "*D_NET requires a net name");
          return;
        }
        net_name_ = toks.t[1];
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
        if (toks.n >= 2) {
          std::string d(toks.t[1]);
          d.erase(std::remove(d.begin(), d.end(), '"'), d.end());
          result_.design = std::move(d);
          result_.has_design = true;
        }
        return;
      }
      if (ieq(t0, "*T_UNIT") || ieq(t0, "*C_UNIT") || ieq(t0, "*R_UNIT")) {
        if (toks.n != 3) {
          defect(line_no, robust::Code::kSyntax, to_upper(t0) + " requires: value unit");
          return;
        }
        try {
          const double scale =
              parse_number(line_no, toks.t[1]) * unit_scale(line_no, toks.t[2]);
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
            if (toks.n < 2) fail(line_no, robust::Code::kSyntax, "*P requires a port name");
            if (!driver_.empty())
              fail(line_no, robust::Code::kSyntax, "multiple *P driving ports on one net");
            driver_ = toks.t[1];
          } else if (star && ieq(t0, "*I")) {
            if (toks.n < 2) fail(line_no, robust::Code::kSyntax, "*I requires a pin name");
            load_names_.emplace_back(toks.t[1], line_no);
          } else {
            fail(line_no, robust::Code::kUnsupported,
                 "unsupported *CONN entry '" + std::string(t0) + "'");
          }
          break;
        }
        case NetSection::kCap: {
          if (toks.n == 3) {
            // Value first: a bad number must not create the node entry
            // (matching the legacy map's RHS-before-subscript evaluation).
            const double v = parse_capacitance(line_no, toks.t[1], toks.t[2]);
            const std::uint32_t id = intern(toks.t[1]);
            cap_val_[id] += v;
            has_cap_[id] = 1;
          } else if (toks.n == 4) {
            fail(line_no, robust::Code::kUnsupported,
                 "coupling capacitors are not supported (RC trees only)");
          } else {
            fail(line_no, robust::Code::kSyntax, "*CAP entry requires: index node value");
          }
          break;
        }
        case NetSection::kRes: {
          if (toks.n != 4)
            fail(line_no, robust::Code::kSyntax, "*RES entry requires: index nodeA nodeB value");
          if (toks.t[1] == toks.t[2])
            fail(line_no, robust::Code::kDuplicateNode,
                 "resistor shorts node '" + std::string(toks.t[1]) + "' to itself");
          {
            const double v = parse_resistance(line_no, toks.t[3]);
            res_.push_back({intern(toks.t[1]), intern(toks.t[2]), v, line_no});
          }
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
