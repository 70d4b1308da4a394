#pragma once
// Waveform CSV I/O: dump simulated waveforms for external plotting and read
// measured/golden waveforms back for comparison.
//
// Format: a header line "time,<name1>[,<name2>...]" followed by one row per
// sample; scientific notation, comma separated.  All waveforms in one file
// share the time base.

#include <string>
#include <string_view>
#include <vector>

#include "sim/waveform.hpp"

namespace rct::sim {

/// A named waveform bundle sharing one time base.
struct WaveformBundle {
  std::vector<std::string> names;
  std::vector<Waveform> waveforms;  ///< all share times()
};

/// Serializes to CSV.  All waveforms must share the time base exactly.
/// Throws std::invalid_argument on mismatch or empty input.
[[nodiscard]] std::string write_csv(const WaveformBundle& bundle);

/// Parses CSV produced by write_csv (or any conforming file).  Throws
/// std::invalid_argument with a line number on malformed input.
[[nodiscard]] WaveformBundle read_csv(std::string_view text);

/// Convenience: writes to a file; throws robust::Error (kFileOpen) on I/O failure.
void save_csv(const WaveformBundle& bundle, const std::string& path);

/// Convenience: reads from a file.
[[nodiscard]] WaveformBundle load_csv(const std::string& path);

}  // namespace rct::sim
