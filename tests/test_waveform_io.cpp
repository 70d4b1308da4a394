#include "sim/waveform_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "helpers.hpp"
#include "robust/error.hpp"
#include "sim/exact.hpp"

namespace rct::sim {
namespace {

WaveformBundle demo_bundle() {
  const RCTree t = testing::two_rc();
  const ExactAnalysis e(t);
  const auto grid = e.suggested_grid(64);
  WaveformBundle b;
  b.names = {"n1", "n2"};
  b.waveforms = {e.step_waveform(0, grid), e.step_waveform(1, grid)};
  return b;
}

TEST(WaveformCsv, RoundTripExact) {
  const WaveformBundle b = demo_bundle();
  const WaveformBundle back = read_csv(write_csv(b));
  ASSERT_EQ(back.names, b.names);
  ASSERT_EQ(back.waveforms.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    ASSERT_EQ(back.waveforms[w].size(), b.waveforms[w].size());
    for (std::size_t k = 0; k < b.waveforms[w].size(); ++k) {
      EXPECT_NEAR(back.waveforms[w].time(k), b.waveforms[w].time(k),
                  1e-12 * (b.waveforms[w].time(k) + 1e-300));
      EXPECT_NEAR(back.waveforms[w].value(k), b.waveforms[w].value(k), 1e-12);
    }
  }
}

TEST(WaveformCsv, WriteValidation) {
  WaveformBundle empty;
  EXPECT_THROW((void)write_csv(empty), std::invalid_argument);
  WaveformBundle mismatch = demo_bundle();
  mismatch.names.pop_back();
  EXPECT_THROW((void)write_csv(mismatch), std::invalid_argument);
  WaveformBundle diff_base = demo_bundle();
  diff_base.waveforms[1] = Waveform({0.0, 1.0}, {0.0, 1.0});
  EXPECT_THROW((void)write_csv(diff_base), std::invalid_argument);
}

TEST(WaveformCsv, ReadValidation) {
  EXPECT_THROW((void)read_csv("bogus,v\n1,2\n2,3\n"), std::invalid_argument);
  EXPECT_THROW((void)read_csv("time,v\n1\n"), std::invalid_argument);          // col count
  EXPECT_THROW((void)read_csv("time,v\n1,zz\n2,3\n"), std::invalid_argument);  // bad number
  EXPECT_THROW((void)read_csv("time,v\n1,2\n"), std::invalid_argument);        // 1 sample
}

TEST(WaveformCsv, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/rct_waveform_io_test.csv";
  save_csv(demo_bundle(), path);
  const WaveformBundle back = load_csv(path);
  EXPECT_EQ(back.names.size(), 2u);
  EXPECT_EQ(back.waveforms[0].size(), demo_bundle().waveforms[0].size());
  std::remove(path.c_str());
}

TEST(WaveformCsv, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_csv("/nonexistent/wave.csv"), std::runtime_error);
}

TEST(WaveformCsv, FileErrorsAreTyped) {
  for (const auto& io : {+[] { (void)load_csv("/nonexistent/wave.csv"); },
                         +[] { save_csv(demo_bundle(), "/nonexistent/dir/wave.csv"); }}) {
    try {
      io();
      ADD_FAILURE() << "no throw";
    } catch (const robust::Error& e) {
      EXPECT_EQ(e.code(), robust::Code::kFileOpen);
    }
  }
}

}  // namespace
}  // namespace rct::sim
