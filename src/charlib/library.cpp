#include "charlib/library.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace rlceff::charlib {

namespace {

void write_values(std::ostream& out, std::span<const double> values) {
  out << values.size();
  for (double v : values) out << ' ' << v;
  out << '\n';
}

// Reads the values one at a time, so a corrupt count fails on the missing
// values instead of sizing a vector from it.
std::vector<double> read_values(std::istream& in, const char* what) {
  std::size_t n = 0;
  ensure(static_cast<bool>(in >> n), std::string("CellLibrary: bad count for ") + what);
  std::vector<double> v;
  for (std::size_t k = 0; k < n; ++k) {
    double x = 0.0;
    ensure(static_cast<bool>(in >> x), std::string("CellLibrary: bad value in ") + what);
    v.push_back(x);
  }
  return v;
}

void expect_token(std::istream& in, const std::string& want) {
  std::string got;
  ensure(static_cast<bool>(in >> got) && got == want,
         "CellLibrary: expected token '" + want + "', got '" + got + "'");
}

}  // namespace

std::size_t CellLibrary::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return drivers_.size();
}

void CellLibrary::add(CharacterizedDriver driver) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ensure(find_locked(driver.cell().size) == nullptr,
         "CellLibrary: duplicate driver size");
  drivers_.push_back(std::move(driver));
}

const CharacterizedDriver* CellLibrary::find_locked(double cell_size) const {
  for (const CharacterizedDriver& d : drivers_) {
    if (std::abs(d.cell().size - cell_size) < 1e-9) return &d;
  }
  return nullptr;
}

const CharacterizedDriver* CellLibrary::find(double cell_size) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_locked(cell_size);
}

const CharacterizedDriver& CellLibrary::ensure_driver(const tech::Technology& technology,
                                                      double cell_size,
                                                      const CharacterizationGrid& grid) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const CharacterizedDriver* d = find_locked(cell_size)) return *d;
  }
  // Characterize outside the lock so different sizes run in parallel.  Two
  // threads racing on the same size both characterize; the loser's copy is
  // discarded below, so the returned reference is unique and stable.
  CharacterizedDriver fresh =
      characterize_driver(technology, tech::Inverter{cell_size}, grid);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const CharacterizedDriver* d = find_locked(cell_size)) return *d;
  drivers_.push_back(std::move(fresh));
  return drivers_.back();
}

void CellLibrary::save(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << std::setprecision(17);
  out << "rlceff_cell_library 1\n";
  out << "cells " << drivers_.size() << '\n';
  for (const CharacterizedDriver& d : drivers_) {
    out << "cell " << d.cell().size << ' ' << d.vdd() << '\n';
    out << "slew_axis ";
    write_values(out, d.delay_table().row_axis());
    out << "load_axis ";
    write_values(out, d.delay_table().col_axis());
    out << "delay ";
    write_values(out, d.delay_table().values());
    out << "transition ";
    write_values(out, d.transition_table().values());
    out << "resistance ";
    write_values(out, d.resistance_table().values());
  }
}

void CellLibrary::save_file(const std::string& path) const {
  std::ofstream out(path);
  ensure(out.good(), "CellLibrary: cannot open file for writing: " + path);
  save(out);
  ensure(out.good(), "CellLibrary: write failed: " + path);
}

void CellLibrary::load(std::istream& in) {
  expect_token(in, "rlceff_cell_library");
  int version = 0;
  ensure(static_cast<bool>(in >> version) && version == 1,
         "CellLibrary: unsupported version");
  expect_token(in, "cells");
  std::size_t count = 0;
  ensure(static_cast<bool>(in >> count), "CellLibrary: bad cell count");

  // Every cell is read before any is merged, so a stream that turns out
  // corrupt leaves the library as it was.
  std::vector<CharacterizedDriver> read;
  for (std::size_t k = 0; k < count; ++k) {
    expect_token(in, "cell");
    double size = 0.0;
    double vdd = 0.0;
    ensure(static_cast<bool>(in >> size >> vdd), "CellLibrary: bad cell header");
    expect_token(in, "slew_axis");
    std::vector<double> slews = read_values(in, "slew_axis");
    expect_token(in, "load_axis");
    std::vector<double> loads = read_values(in, "load_axis");
    expect_token(in, "delay");
    std::vector<double> delay = read_values(in, "delay");
    expect_token(in, "transition");
    std::vector<double> transition = read_values(in, "transition");
    expect_token(in, "resistance");
    std::vector<double> resistance = read_values(in, "resistance");

    read.emplace_back(tech::Inverter{size}, vdd,
                      Table2D(slews, loads, std::move(delay)),
                      Table2D(slews, loads, std::move(transition)),
                      Table2D(slews, loads, std::move(resistance)));
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (CharacterizedDriver& driver : read) {
    if (find_locked(driver.cell().size) == nullptr) drivers_.push_back(std::move(driver));
  }
}

void CellLibrary::load_file(const std::string& path) {
  std::ifstream in(path);
  ensure(in.good(), "CellLibrary: cannot open file: " + path);
  load(in);
}

}  // namespace rlceff::charlib
