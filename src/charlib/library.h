// Cell library: a collection of characterized drivers with caching and a
// plain-text serialization (a miniature .lib).
//
// Characterizing a driver costs a few dozen transient runs, so experiment
// harnesses keep one CellLibrary and call ensure_driver(), which
// characterizes on first use and reuses the tables afterwards.
//
// The library is safe to share across sweep workers: all access is guarded
// by an internal mutex, and drivers live in stable storage (a deque that is
// never erased from), so references handed out by ensure_driver()/find()
// stay valid for the library's whole lifetime no matter how many cells are
// added afterwards.  ensure_driver() characterizes outside the lock, so
// concurrent requests for *different* sizes proceed in parallel; a race on
// the *same* size may characterize it twice, but only the first result is
// kept and every caller gets the same reference.
#ifndef RLCEFF_CHARLIB_LIBRARY_H
#define RLCEFF_CHARLIB_LIBRARY_H

#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "charlib/characterize.h"

namespace rlceff::charlib {

class CellLibrary {
public:
  CellLibrary() = default;
  // Deliberately pinned in place: moving or copying the library would
  // invalidate the driver references ensure_driver() handed out.
  CellLibrary(const CellLibrary&) = delete;
  CellLibrary& operator=(const CellLibrary&) = delete;

  std::size_t size() const;

  void add(CharacterizedDriver driver);

  // Finds a characterized driver by drive strength (exact within 1e-9).
  const CharacterizedDriver* find(double cell_size) const;

  // Returns the driver, characterizing and caching it when missing.
  const CharacterizedDriver& ensure_driver(
      const tech::Technology& technology, double cell_size,
      const CharacterizationGrid& grid = CharacterizationGrid::standard());

  // Plain-text serialization.  load() merges the stream's cells into this
  // library; sizes that are already characterized are skipped, so merging a
  // stale cache into a warm library is a no-op for the overlap.  A corrupt
  // stream throws Error and merges nothing.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  void load(std::istream& in);
  void load_file(const std::string& path);

private:
  const CharacterizedDriver* find_locked(double cell_size) const;

  mutable std::mutex mutex_;
  std::deque<CharacterizedDriver> drivers_;
};

}  // namespace rlceff::charlib

#endif  // RLCEFF_CHARLIB_LIBRARY_H
