// Checked reads of registry cells. MetricsRegistry::counter() creates a
// cell on lookup, so reading a misspelt name through it would quietly
// give 0; cell_value() reads a snapshot row instead and fails the test
// when no cell of that name exists.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace mdsm {

/// The counter row `name` of `snapshot`; a test failure (and 0) when the
/// snapshot holds no such row.
inline std::uint64_t cell_value(const obs::MetricsSnapshot& snapshot,
                                std::string_view name) {
  const obs::MetricsSnapshot::CounterRow* row = snapshot.counter(name);
  EXPECT_NE(row, nullptr) << "no counter cell '" << name << "'";
  return row != nullptr ? row->value : 0;
}

/// The counter cell `name` of `metrics`, read the same checked way.
inline std::uint64_t cell_value(const obs::MetricsRegistry& metrics,
                                std::string_view name) {
  return cell_value(metrics.snapshot(), name);
}

}  // namespace mdsm
