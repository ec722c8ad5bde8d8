// Unit tests for waveforms, edge measurements, and PWL sources.
#include "waveform/waveform.h"

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "util/error.h"
#include "waveform/pwl.h"

namespace rlceff::wave {
namespace {

using rlceff::testing::expect_rel_near;

TEST(Waveform, InterpolationAndClamping) {
  Waveform w({0.0, 1.0, 2.0}, {0.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(0.0, w.value_at(-1.0));
  EXPECT_DOUBLE_EQ(1.0, w.value_at(0.5));
  EXPECT_DOUBLE_EQ(2.0, w.value_at(1.5));
  EXPECT_DOUBLE_EQ(2.0, w.value_at(5.0));
}

TEST(Waveform, RejectsNonIncreasingTimes) {
  EXPECT_THROW(Waveform({0.0, 0.0}, {0.0, 1.0}), Error);
  Waveform w;
  w.append(1.0, 0.0);
  EXPECT_THROW(w.append(1.0, 1.0), Error);
}

TEST(Waveform, FirstCrossingInterpolates) {
  Waveform w({0.0, 10.0}, {0.0, 1.0});
  const auto t = w.first_crossing(0.25, true);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(2.5, *t);
  EXPECT_FALSE(w.first_crossing(0.25, false).has_value());
}

TEST(Waveform, FirstCrossingOnNonMonotonicPicksEarliest) {
  // Rings above and below 0.5 several times.
  Waveform w({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 0.8, 0.4, 0.9, 0.7});
  const auto t = w.first_crossing(0.5, true);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(0.625, *t, 1e-12);
}

TEST(Waveform, MeasureRisingEdgeOnRamp) {
  // Pure ramp 0 -> 1.8 over 100: t10 = 10, t50 = 50, t90 = 90.
  Waveform w({0.0, 100.0}, {0.0, 1.8});
  const EdgeTiming e = measure_rising_edge(w, 0.0, 1.8);
  EXPECT_NEAR(10.0, e.t10, 1e-12);
  EXPECT_NEAR(50.0, e.t50, 1e-12);
  EXPECT_NEAR(90.0, e.t90, 1e-12);
  EXPECT_NEAR(80.0, e.transition_10_90(), 1e-12);
  EXPECT_NEAR(100.0, e.ramp_transition(), 1e-12);
}

TEST(Waveform, MeasureIncompleteEdgeThrows) {
  Waveform w({0.0, 100.0}, {0.0, 0.5});
  EXPECT_THROW(measure_rising_edge(w, 0.0, 1.8), Error);
}

TEST(Waveform, ShiftPreservesShape) {
  Waveform w({0.0, 1.0}, {0.0, 1.0});
  const Waveform s = w.shifted(5.0);
  EXPECT_DOUBLE_EQ(5.0, s.time(0));
  EXPECT_DOUBLE_EQ(0.5, s.value_at(5.5));
}

TEST(Pwl, RampConstruction) {
  const Pwl r = ramp(10.0, 100.0, 0.0, 1.8);
  EXPECT_DOUBLE_EQ(0.0, r.value_at(5.0));
  EXPECT_DOUBLE_EQ(0.9, r.value_at(60.0));
  EXPECT_DOUBLE_EQ(1.8, r.value_at(200.0));
}

TEST(Pwl, TwoRampMatchesEq2) {
  // Eq 2 with f = 0.6, Tr1 = 50, Tr2 = 200, Vdd = 1.8.
  const double f = 0.6;
  const double tr1 = 50.0;
  const double tr2 = 200.0;
  const double vdd = 1.8;
  const Pwl w = two_ramp(0.0, f, tr1, tr2, vdd);

  // First piece: V = Vdd * t / Tr1 on (0, f Tr1).
  EXPECT_NEAR(vdd * 20.0 / tr1, w.value_at(20.0), 1e-12);
  // Breakpoint at f * Vdd.
  EXPECT_NEAR(f * vdd, w.value_at(f * tr1), 1e-12);
  // Second piece: V = Vdd t / Tr2 + (1 - Tr1/Tr2) f Vdd.
  const double t = 100.0;
  EXPECT_NEAR(vdd * t / tr2 + (1.0 - tr1 / tr2) * f * vdd, w.value_at(t), 1e-12);
  // Completes at f Tr1 + (1-f) Tr2.
  EXPECT_NEAR(vdd, w.value_at(f * tr1 + (1.0 - f) * tr2), 1e-12);
}

TEST(Pwl, TwoRampRejectsBadBreakpoint) {
  EXPECT_THROW(two_ramp(0.0, 0.0, 1.0, 1.0, 1.8), Error);
  EXPECT_THROW(two_ramp(0.0, 1.0, 1.0, 1.0, 1.8), Error);
}

TEST(Pwl, ThreePieceHoldsPlateau) {
  const Pwl w = three_piece(0.0, 0.5, 100.0, 40.0, 200.0, 1.8);
  EXPECT_NEAR(0.9, w.value_at(50.0), 1e-12);   // end of ramp 1
  EXPECT_NEAR(0.9, w.value_at(70.0), 1e-12);   // on the plateau
  EXPECT_NEAR(0.9, w.value_at(90.0), 1e-12);   // plateau end
  EXPECT_NEAR(1.8, w.value_at(190.0), 1e-12);  // 90 + 0.5*200
}

TEST(Pwl, ThreePieceWithZeroPlateauIsTwoRamp) {
  const Pwl a = three_piece(0.0, 0.5, 100.0, 0.0, 200.0, 1.8);
  const Pwl b = two_ramp(0.0, 0.5, 100.0, 200.0, 1.8);
  for (double t = 0.0; t <= 220.0; t += 7.0) {
    EXPECT_NEAR(b.value_at(t), a.value_at(t), 1e-12) << "t=" << t;
  }
}

// Edge cases the property generator's decks hit: empty descriptions,
// single-point (DC) sources, duplicate timestamps from collapsed plateaus,
// and outright non-monotone input.
TEST(Pwl, EmptyConstructionAndAccessorsThrow) {
  EXPECT_THROW(Pwl(std::vector<std::pair<double, double>>{}), Error);
  const Pwl empty;  // default-constructed: allowed, but every accessor throws
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.value_at(0.0), Error);
  EXPECT_THROW(empty.start_time(), Error);
  EXPECT_THROW(empty.end_time(), Error);
  EXPECT_THROW(empty.final_value(), Error);
  EXPECT_THROW(empty.to_waveform(1.0), Error);
}

TEST(Pwl, SinglePointIsConstant) {
  // What a held-low coupled-deck input looks like: one breakpoint, flat
  // extension on both sides.
  const Pwl hold({{5.0, 1.8}});
  EXPECT_DOUBLE_EQ(1.8, hold.value_at(-100.0));
  EXPECT_DOUBLE_EQ(1.8, hold.value_at(5.0));
  EXPECT_DOUBLE_EQ(1.8, hold.value_at(1e9));
  EXPECT_DOUBLE_EQ(5.0, hold.start_time());
  EXPECT_DOUBLE_EQ(5.0, hold.end_time());
  EXPECT_DOUBLE_EQ(1.8, hold.final_value());
  const Waveform w = hold.to_waveform(10.0);
  EXPECT_DOUBLE_EQ(1.8, w.value_at(0.0));
  EXPECT_DOUBLE_EQ(1.8, w.value_at(10.0));
}

TEST(Pwl, DuplicateTimestampRejectionNamesTheIndex) {
  try {
    Pwl bad({{0.0, 0.0}, {1.0, 0.5}, {1.0, 1.0}});
    FAIL() << "duplicate timestamp accepted";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("time[2]"), std::string::npos) << message;
    EXPECT_NE(message.find("time[1]"), std::string::npos) << message;
  }
}

TEST(Pwl, NonMonotoneTimesRejected) {
  EXPECT_THROW(Pwl({{0.0, 0.0}, {2.0, 1.0}, {1.0, 0.5}}), Error);
  EXPECT_THROW(ramp(0.0, -1.0, 0.0, 1.8), Error);
  EXPECT_THROW(ramp(0.0, 0.0, 0.0, 1.8), Error);
}

TEST(Pwl, MeasuredSlewOfTwoRampCombinesBothSlopes) {
  // f = 0.6 > 0.5: t10 and t50 on ramp 1, t90 on ramp 2.
  const double f = 0.6;
  const double tr1 = 50.0;
  const double tr2 = 200.0;
  const Pwl w = two_ramp(0.0, f, tr1, tr2, 1.8);
  const EdgeTiming e = measure_rising_edge(w.to_waveform(400.0), 0.0, 1.8);
  EXPECT_NEAR(0.1 * tr1, e.t10, 1e-9);
  EXPECT_NEAR(0.5 * tr1, e.t50, 1e-9);
  // t90: breakpoint time + (0.9 - f) * tr2.
  EXPECT_NEAR(f * tr1 + (0.9 - f) * tr2, e.t90, 1e-9);
}

}  // namespace
}  // namespace rlceff::wave
