// Time-stamped sample series: the benches copy the SwarmProbe's focus
// series into one to print and plot the paper's time-axis figures
// (Figs. 2-6).
#pragma once

#include <cstddef>
#include <vector>

namespace swarmlab::stats {

/// One (time, value) observation.
struct Sample {
  double time = 0.0;
  double value = 0.0;
};

/// Append-only series of (time, value) samples with downsampling helpers
/// so bench binaries can print a bounded number of rows.
class TimeSeries {
 public:
  void add(double time, double value) { samples_.push_back({time, value}); }

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Last value at or before `time`; `fallback` if none.
  [[nodiscard]] double value_at(double time, double fallback = 0.0) const;

  /// At most `n` samples, evenly strided across the series (always
  /// includes the final sample when non-empty).
  [[nodiscard]] std::vector<Sample> downsample(std::size_t n) const;

  /// Minimum / maximum observed value. Precondition: !empty().
  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace swarmlab::stats
