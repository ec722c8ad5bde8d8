// Tests for table lookup, driver characterization, and library round trips.
//
// Characterization runs real transient simulations; the suite uses a reduced
// grid to stay fast while still checking the physics trends.
#include "charlib/characterize.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "charlib/library.h"
#include "sim/sweep.h"
#include "sim/transient.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/units.h"

namespace rlceff::charlib {
namespace {

using namespace rlceff::units;
using rlceff::testing::expect_rel_near;

TEST(Table2D, ExactOnGridPoints) {
  const Table2D t({1.0, 2.0}, {10.0, 20.0, 30.0}, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(1.0, t.lookup(1.0, 10.0));
  EXPECT_DOUBLE_EQ(3.0, t.lookup(1.0, 30.0));
  EXPECT_DOUBLE_EQ(6.0, t.lookup(2.0, 30.0));
  // The raw grid read the characterization example prints.
  EXPECT_EQ(4.0, t.at(1, 0));
  EXPECT_THROW(t.at(2, 0), Error);
}

TEST(Table2D, BilinearInterior) {
  const Table2D t({0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0, 2.0, 4.0});
  // Center: mean of corner slopes -> 0.25*(0+1+2+4).
  EXPECT_DOUBLE_EQ(1.75, t.lookup(0.5, 0.5));
  EXPECT_DOUBLE_EQ(0.5, t.lookup(0.0, 0.5));
  EXPECT_DOUBLE_EQ(1.0, t.lookup(0.5, 0.0));
}

TEST(Table2D, LinearExtrapolationOutsideGrid) {
  const Table2D t({0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0, 1.0, 2.0});
  // Columns are linear with slope 1 in each axis -> extrapolation continues.
  EXPECT_NEAR(3.0, t.lookup(2.0, 1.0), 1e-12);
  EXPECT_NEAR(-1.0, t.lookup(0.0, -1.0), 1e-12);
}

TEST(Table2D, SingleRowActsAs1D) {
  const Table2D t({1.0}, {0.0, 10.0}, {5.0, 15.0});
  EXPECT_DOUBLE_EQ(10.0, t.lookup(99.0, 5.0));
}

TEST(Table2D, ValidatesShape) {
  EXPECT_THROW(Table2D({1.0}, {1.0}, {1.0, 2.0}), Error);
  EXPECT_THROW(Table2D({2.0, 1.0}, {1.0}, {1.0, 2.0}), Error);
}

class CharacterizedDriverFixture : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    technology_ = new tech::Technology(tech::Technology::cmos180());
    CharacterizationGrid grid;
    grid.input_slews = {50 * ps, 100 * ps, 200 * ps};
    grid.loads = {50 * ff, 200 * ff, 700 * ff, 1.5 * pf, 3 * pf};
    driver_ = new CharacterizedDriver(
        characterize_driver(*technology_, tech::Inverter{75.0}, grid));
  }
  static void TearDownTestSuite() {
    delete driver_;
    delete technology_;
    driver_ = nullptr;
    technology_ = nullptr;
  }

  static tech::Technology* technology_;
  static CharacterizedDriver* driver_;
};

tech::Technology* CharacterizedDriverFixture::technology_ = nullptr;
CharacterizedDriver* CharacterizedDriverFixture::driver_ = nullptr;

TEST_F(CharacterizedDriverFixture, DelayIncreasesWithLoad) {
  const double d1 = driver_->delay(100 * ps, 100 * ff);
  const double d2 = driver_->delay(100 * ps, 1 * pf);
  const double d3 = driver_->delay(100 * ps, 2.5 * pf);
  EXPECT_GT(d2, d1);
  EXPECT_GT(d3, d2);
}

TEST_F(CharacterizedDriverFixture, TransitionIncreasesWithLoad) {
  const double t1 = driver_->output_transition(100 * ps, 100 * ff);
  const double t2 = driver_->output_transition(100 * ps, 1 * pf);
  EXPECT_GT(t2, 2.0 * t1);
}

TEST_F(CharacterizedDriverFixture, DelayIncreasesWithInputSlew) {
  const double fast = driver_->delay(50 * ps, 700 * ff);
  const double slow = driver_->delay(200 * ps, 700 * ff);
  EXPECT_GT(slow, fast);
}

TEST_F(CharacterizedDriverFixture, ResistanceRoughlyLoadIndependentAtLargeLoads) {
  // The Thevenin fit should extract a similar Rs across heavy loads (the
  // exponential-tail region is resistance dominated).
  const double r1 = driver_->driver_resistance(100 * ps, 700 * ff);
  const double r2 = driver_->driver_resistance(100 * ps, 2 * pf);
  expect_rel_near(r1, r2, 0.30);
}

TEST_F(CharacterizedDriverFixture, SeventyFiveXResistanceNearZ0Regime) {
  // The calibration target: a 75X driver must sit below the 56-80 ohm Z0
  // band (fast-driver regime) but not absurdly low.
  const double rs = driver_->driver_resistance(100 * ps, 1.1 * pf);
  EXPECT_GT(rs, 25.0);
  EXPECT_LT(rs, 60.0);
}

TEST_F(CharacterizedDriverFixture, LibraryRoundTripPreservesTables) {
  CellLibrary lib;
  lib.add(*driver_);
  std::stringstream buffer;
  lib.save(buffer);
  CellLibrary loaded;
  loaded.load(buffer);
  ASSERT_EQ(1u, loaded.size());
  const CharacterizedDriver* d = loaded.find(75.0);
  ASSERT_NE(nullptr, d);
  EXPECT_DOUBLE_EQ(driver_->vdd(), d->vdd());
  for (double slew : {60 * ps, 150 * ps}) {
    for (double load : {100 * ff, 900 * ff, 2 * pf}) {
      EXPECT_DOUBLE_EQ(driver_->delay(slew, load), d->delay(slew, load));
      EXPECT_DOUBLE_EQ(driver_->output_transition(slew, load),
                       d->output_transition(slew, load));
      EXPECT_DOUBLE_EQ(driver_->driver_resistance(slew, load),
                       d->driver_resistance(slew, load));
    }
  }
}

TEST_F(CharacterizedDriverFixture, LoadRejectsCorruptStream) {
  std::stringstream buffer("not_a_library 1");
  CellLibrary lib;
  EXPECT_THROW(lib.load(buffer), Error);

  // A value count no memory can hold fails on the missing values (an
  // Error, not std::bad_alloc) and leaves the library as it was — also when
  // a readable cell precedes the corrupt one.
  lib.add(*driver_);
  const CharacterizedDriver* before = lib.find(75.0);
  const std::string corrupt_cell = "cell 25 1.8\nslew_axis 999999999999999999 1\n";
  std::stringstream huge("rlceff_cell_library 1\ncells 1\n" + corrupt_cell);
  EXPECT_THROW(lib.load(huge), Error);
  CellLibrary other;
  other.add(*driver_);
  std::stringstream saved;
  other.save(saved);
  std::string text = saved.str();  // one readable cell, renamed 50X
  text.replace(text.find("cells 1"), 7, "cells 2");
  text.replace(text.find("cell 75 "), 8, "cell 50 ");
  std::stringstream readable_then_huge(text + corrupt_cell);
  EXPECT_THROW(lib.load(readable_then_huge), Error);
  EXPECT_EQ(1u, lib.size());
  EXPECT_EQ(before, lib.find(75.0));
  EXPECT_EQ(nullptr, lib.find(25.0));
  EXPECT_EQ(nullptr, lib.find(50.0));
}

TEST_F(CharacterizedDriverFixture, LoadMergesAndSkipsExistingSizes) {
  CellLibrary lib;
  lib.add(*driver_);
  std::stringstream buffer;
  lib.save(buffer);

  // Merging a stream into a library that already has the size is a no-op;
  // the original driver object stays in place.
  const CharacterizedDriver* before = lib.find(75.0);
  lib.load(buffer);
  EXPECT_EQ(1u, lib.size());
  EXPECT_EQ(before, lib.find(75.0));
}

TEST_F(CharacterizedDriverFixture, DuplicateSizeRejected) {
  CellLibrary lib;
  lib.add(*driver_);
  EXPECT_THROW(lib.add(*driver_), Error);
}

TEST(CellLibrary, EnsureDriverCaches) {
  const tech::Technology t = tech::Technology::cmos180();
  CellLibrary lib;
  CharacterizationGrid grid;
  grid.input_slews = {100 * ps};
  grid.loads = {100 * ff, 500 * ff};
  const CharacterizedDriver& a = lib.ensure_driver(t, 50.0, grid);
  const CharacterizedDriver& b = lib.ensure_driver(t, 50.0, grid);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(1u, lib.size());
}

// Regression for the pre-api::Engine hazard: ensure_driver was unguarded and
// returned vector references that the next push_back invalidated, so two
// sweep workers requesting uncharacterized cells raced and could read freed
// memory.  Hammer one shared library from a parallel sweep (the exact shape
// the Engine's run_batch uses) and check that every worker saw the same
// stable driver object per size; the sanitizer CI job turns any surviving
// race or dangling reference into a hard failure.
TEST(CellLibrary, EnsureDriverIsThreadSafeUnderParallelSweep) {
  const tech::Technology t = tech::Technology::cmos180();
  CellLibrary lib;
  CharacterizationGrid grid;
  grid.input_slews = {100 * ps};
  grid.loads = {100 * ff, 500 * ff};
  grid.n_threads = 1;  // no nested pools; the outer sweep supplies parallelism

  const std::vector<double> sizes = {25.0, 50.0, 75.0, 100.0};
  constexpr std::size_t n_tasks = 32;
  std::vector<const CharacterizedDriver*> seen(n_tasks, nullptr);
  sim::run_indexed_sweep(
      n_tasks,
      [&](std::size_t i) {
        const CharacterizedDriver& d =
            lib.ensure_driver(t, sizes[i % sizes.size()], grid);
        // Touch the tables through the reference: a dangling reference here
        // is what the old vector-backed library produced.
        ASSERT_GT(d.delay(100 * ps, 300 * ff), 0.0);
        seen[i] = &d;
      },
      8);

  ASSERT_EQ(sizes.size(), lib.size());
  for (std::size_t i = 0; i < n_tasks; ++i) {
    EXPECT_EQ(lib.find(sizes[i % sizes.size()]), seen[i])
        << "task " << i << " saw a non-canonical driver reference";
  }
}

TEST(Characterize, StrongerDriverIsFasterAndStiffer) {
  const tech::Technology t = tech::Technology::cmos180();
  CharacterizationGrid grid;
  grid.input_slews = {100 * ps};
  grid.loads = {200 * ff, 1 * pf};
  const CharacterizedDriver weak = characterize_driver(t, tech::Inverter{25.0}, grid);
  const CharacterizedDriver strong = characterize_driver(t, tech::Inverter{100.0}, grid);
  EXPECT_GT(weak.delay(100 * ps, 1 * pf), strong.delay(100 * ps, 1 * pf));
  EXPECT_GT(weak.driver_resistance(100 * ps, 1 * pf),
            strong.driver_resistance(100 * ps, 1 * pf));
  // Rs scales roughly inversely with drive strength.
  const double ratio = weak.driver_resistance(100 * ps, 1 * pf) /
                       strong.driver_resistance(100 * ps, 1 * pf);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);
}

// Each Newton step of a characterization deck starts from the first-order
// predictor, so many steps converge in their first iteration: over a cell's
// standard grid the decks stay under the 1.5 Newton iterations per step CI
// bars (1.965 when every step started at the last solution).  Per deck it
// reads from 1.0, into the largest loads, to 1.9, for the fastest edges
// into a few hundred fF.
TEST(Characterize, CellTakesUnderOneAndAHalfNewtonIterationsPerStep) {
  const tech::Technology t = tech::Technology::cmos180();
  const tech::Inverter cell{100.0};
  const CharacterizationGrid grid = CharacterizationGrid::standard();
  double steps = 0.0;
  double iterations = 0.0;
  for (const double slew : grid.input_slews) {
    for (const double c_load : grid.loads) {
      const sim::TransientResult run = tech::run_driver_cap_load(
          t, cell, slew, c_load, characterization_deck(t, cell, slew, c_load));
      EXPECT_GT(run.gate_evaluations(), 0u);
      steps += static_cast<double>(run.at(run.probes()[0]).size() - 1);
      iterations += static_cast<double>(run.newton_iterations());
    }
  }
  EXPECT_LT(iterations / steps, 1.5);
}

}  // namespace
}  // namespace rlceff::charlib
