#include "rctree/spef_index.hpp"

#include <algorithm>
#include <cstring>

namespace rct::spef {
namespace {

inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

inline char lower(char c) { return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + 32) : c; }

bool token_is(const char* token, std::uint8_t len, const char* keyword, std::uint8_t klen) {
  if (len != klen) return false;
  for (std::uint8_t i = 0; i < len; ++i)
    if (lower(token[i]) != keyword[i]) return false;
  return true;
}

/// Event-buffer presize for a scan of `bytes`: generous for real decks
/// (about three events per section of a few hundred bytes).
std::size_t expected_events(std::uint64_t bytes) {
  return static_cast<std::size_t>(bytes / 256) + 16;
}

/// The section/run state machine, fed the scanners' events in file order
/// with file-global line numbers.
class Replay {
 public:
  explicit Replay(std::size_t sections) {
    layout_.sections.reserve(sections);
    layout_.chunks.reserve(2 * sections + 1);
  }

  void apply(const LineEvent& e, std::size_t line) {
    if (e.kind == LineEvent::kDnet) {
      if (in_section_)
        close_section(e.start, line, /*has_end=*/false);
      else
        close_run(e.start);
      layout_.sections.push_back({e.start, 0, line, 0, false});
      layout_.chunks.push_back({true, static_cast<std::uint32_t>(layout_.sections.size() - 1)});
      in_section_ = true;
    } else if (e.kind == LineEvent::kEnd && in_section_) {
      // The extent includes the *END line with its newline (when present).
      close_section(e.end, line, /*has_end=*/true);
    } else if (!in_section_ && !in_run_) {
      layout_.runs.push_back({e.start, 0, line});
      layout_.chunks.push_back({false, static_cast<std::uint32_t>(layout_.runs.size() - 1)});
      in_run_ = true;
    }
  }

  Layout finish(std::uint64_t bytes, std::size_t lines) {
    if (in_section_)
      close_section(bytes, lines, /*has_end=*/false);
    else
      close_run(bytes);
    layout_.bytes = bytes;
    layout_.lines = lines;
    return std::move(layout_);
  }

 private:
  void close_run(std::uint64_t end_offset) {
    if (!in_run_) return;
    layout_.runs.back().length = end_offset - layout_.runs.back().offset;
    in_run_ = false;
  }

  void close_section(std::uint64_t end_offset, std::size_t finish_line, bool has_end) {
    Section& s = layout_.sections.back();
    s.length = end_offset - s.offset;
    s.end_line = finish_line;
    s.has_end = has_end;
    in_section_ = false;
  }

  Layout layout_;
  bool in_section_ = false;
  bool in_run_ = false;
};

std::size_t count_dnets(const std::vector<LineEvent>& events) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [](const LineEvent& e) { return e.kind == LineEvent::kDnet; }));
}

}  // namespace

Indexer::Indexer(std::uint64_t base, std::size_t expected_events)
    : base_(base), offset_(base), line_start_(base) {
  events_.reserve(expected_events);
}

void Indexer::line_complete(std::uint64_t line_end) {
  ++line_;
  LineEvent::Kind kind = LineEvent::kOther;
  if (token_is(token_, token_len_, "*d_net", 6))
    kind = LineEvent::kDnet;
  else if (token_is(token_, token_len_, "*end", 4))
    kind = LineEvent::kEnd;
  // Inside a section only *D_NET / *END matter, and after any other line
  // the state machine is either in a section or in a run: only the first
  // other line after an *END (or the scan's start) can open a run.
  if (kind != LineEvent::kOther || want_other_) {
    events_.push_back({line_start_, line_end, line_, kind});
    want_other_ = kind == LineEvent::kEnd;
  }
  token_len_ = 0;
  token_done_ = false;
  in_leading_ws_ = true;
}

void Indexer::feed(std::string_view chunk) {
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    // Once the first token is decided the rest of the line is opaque:
    // jump straight to the newline at memchr speed.
    if (token_done_) {
      const void* nl = std::memchr(chunk.data() + i, '\n', chunk.size() - i);
      if (nl == nullptr) {
        offset_ += chunk.size() - i;
        return;
      }
      const std::size_t skipped = static_cast<const char*>(nl) - (chunk.data() + i);
      offset_ += skipped;
      i += skipped;
    }
    const char c = chunk[i];
    if (c == '\n') {
      line_complete(offset_ + 1);
      line_start_ = offset_ + 1;
    } else if (!token_done_) {
      if (in_leading_ws_) {
        if (is_space(c)) {
          ++offset_;
          continue;
        }
        in_leading_ws_ = false;
      }
      if (is_space(c)) {
        token_done_ = true;
      } else if (c == '/' && token_len_ > 0 && token_[token_len_ - 1] == '/') {
        --token_len_;  // the token ends where a `//` comment begins
        token_done_ = true;
      } else if (token_len_ < sizeof(token_)) {
        token_[token_len_++] = c;
      } else {
        token_done_ = true;  // longer than any keyword; cannot match
      }
    }
    ++offset_;
  }
}

void Indexer::end_of_input() {
  if (offset_ > line_start_ || token_len_ > 0 || !in_leading_ws_) {
    line_complete(offset_);
    line_start_ = offset_;
    partial_line_ = true;
  }
}

Layout Indexer::finish() {
  end_of_input();
  return replay(this, 1);
}

Layout Indexer::replay(const Indexer* scans, std::size_t count) {
  std::size_t sections = 0;
  for (std::size_t k = 0; k < count; ++k) sections += count_dnets(scans[k].events_);
  Replay replay(sections);
  std::size_t line_base = 0;
  bool partial = false;
  for (std::size_t k = 0; k < count; ++k) {
    for (const LineEvent& e : scans[k].events_) replay.apply(e, line_base + e.line);
    line_base += scans[k].line_;
    partial = partial || scans[k].partial_line_;
  }
  // Legacy line accounting: a trailing newline yields a phantom final empty
  // line, so total lines == #newlines + 1 whenever the file is non-empty.
  return replay.finish(scans[count - 1].offset_, line_base + (partial ? 0 : 1));
}

std::size_t stripe_count(std::uint64_t bytes, std::size_t workers) {
  const std::uint64_t fit = bytes / kMinStripeBytes;
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(fit, 1, std::max<std::size_t>(workers, 1)));
}

Layout index_spef(std::string_view text, std::size_t stripes, const ForEach& for_each) {
  stripes = std::max<std::size_t>(stripes, 1);
  // Stripe k starts right after the first newline at or past k/stripes of
  // the buffer, so no line spans two stripes (a stripe may be empty).
  std::vector<std::uint64_t> cut(stripes + 1, text.size());
  cut[0] = 0;
  for (std::size_t k = 1; k < stripes; ++k) {
    const std::size_t target = std::max<std::size_t>(cut[k - 1], text.size() / stripes * k);
    const std::size_t nl = text.find('\n', target);
    cut[k] = nl == std::string_view::npos ? text.size() : nl + 1;
  }
  // Event buffers are sized here, on the calling thread.
  std::vector<Indexer> scans;
  scans.reserve(stripes);
  for (std::size_t k = 0; k < stripes; ++k)
    scans.push_back(Indexer(cut[k], expected_events(cut[k + 1] - cut[k])));
  const auto scan = [&](std::size_t k) {
    // Scan in a local: neighbouring scanners share cache lines in `scans`,
    // and every byte updates the scanner's offset.
    Indexer local = std::move(scans[k]);
    local.feed(text.substr(cut[k], cut[k + 1] - cut[k]));
    local.end_of_input();
    scans[k] = std::move(local);
  };
  if (stripes > 1 && for_each) {
    for_each(stripes, scan);
  } else {
    for (std::size_t k = 0; k < stripes; ++k) scan(k);
  }

  return Indexer::replay(scans.data(), scans.size());
}

}  // namespace rct::spef
