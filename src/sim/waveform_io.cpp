#include "sim/waveform_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "robust/error.hpp"

namespace rct::sim {
namespace {

std::vector<std::string> split_commas(std::string_view line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      out.emplace_back(line.substr(start));
      return out;
    }
    out.emplace_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw std::invalid_argument("waveform csv line " + std::to_string(line_no) + ": " + msg);
}

}  // namespace

std::string write_csv(const WaveformBundle& bundle) {
  if (bundle.waveforms.empty() || bundle.names.size() != bundle.waveforms.size())
    throw std::invalid_argument("write_csv: names/waveforms mismatch or empty");
  const auto& t = bundle.waveforms.front().times();
  for (const Waveform& w : bundle.waveforms)
    if (w.times() != t) throw std::invalid_argument("write_csv: time bases differ");

  std::ostringstream os;
  os << "time";
  for (const std::string& n : bundle.names) os << ',' << n;
  os << '\n';
  char buf[64];
  for (std::size_t k = 0; k < t.size(); ++k) {
    std::snprintf(buf, sizeof(buf), "%.12e", t[k]);
    os << buf;
    for (const Waveform& w : bundle.waveforms) {
      std::snprintf(buf, sizeof(buf), ",%.12e", w.value(k));
      os << buf;
    }
    os << '\n';
  }
  return os.str();
}

WaveformBundle read_csv(std::string_view text) {
  WaveformBundle out;
  std::vector<double> times;
  std::vector<std::vector<double>> cols;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    const auto cells = split_commas(line);
    if (line_no == 1) {
      if (cells.size() < 2 || cells[0] != "time") fail(line_no, "expected 'time,<name>...'");
      out.names.assign(cells.begin() + 1, cells.end());
      cols.resize(out.names.size());
      continue;
    }
    if (cells.size() != out.names.size() + 1) fail(line_no, "wrong column count");
    for (std::size_t c = 0; c < cells.size(); ++c) {
      char* end = nullptr;
      const double v = std::strtod(cells[c].c_str(), &end);
      if (end == cells[c].c_str() || *end != '\0') fail(line_no, "bad number '" + cells[c] + "'");
      if (c == 0)
        times.push_back(v);
      else
        cols[c - 1].push_back(v);
    }
  }
  if (times.size() < 2) throw std::invalid_argument("waveform csv: need >= 2 samples");
  for (auto& col : cols) out.waveforms.emplace_back(times, std::move(col));
  return out;
}

void save_csv(const WaveformBundle& bundle, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw robust::Error(robust::Code::kFileOpen, "save_csv: cannot open '" + path + "'");
  f << write_csv(bundle);
  if (!f)
    throw robust::Error(robust::Code::kFileOpen, "save_csv: write failed for '" + path + "'");
}

WaveformBundle load_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw robust::Error(robust::Code::kFileOpen, "load_csv: cannot open '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return read_csv(ss.str());
}

}  // namespace rct::sim
