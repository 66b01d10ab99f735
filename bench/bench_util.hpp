// Shared formatting helpers for the reproduction benches: every bench prints
// the rows/series of its paper table or figure with the paper's value, the
// model's measurement, and the deviation.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/sweep.hpp"

namespace scn::bench {

// Flag parsing (--jobs/--quick/--platform and per-binary flags) lives in
// bench/options.hpp (scn::bench::Options); this header keeps only the
// table/figure formatting helpers.

/// Per-sweep wall-clock report: printed after each figure/table so speedup
/// between `--jobs 1` and `--jobs N` runs can be read off directly. Keep it
/// on stderr so stdout stays byte-identical across jobs counts.
inline void report_wallclock(const char* what, int jobs, double elapsed_ms) {
  std::fprintf(stderr, "# %s: jobs=%d wall=%.0f ms\n", what, jobs, elapsed_ms);
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void subheading(const std::string& title) { std::printf("-- %s --\n", title.c_str()); }

/// One "paper vs measured" row; `unit` e.g. "ns" or "GB/s".
inline void row(const std::string& label, double paper, double measured, const char* unit) {
  const double dev = paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-34s paper %8.1f %-5s measured %8.1f %-5s  (%+5.1f%%)\n", label.c_str(), paper,
              unit, measured, unit, dev);
}

/// A measured-only row (no paper value to compare against).
inline void row(const std::string& label, double measured, const char* unit) {
  std::printf("  %-34s measured %8.1f %s\n", label.c_str(), measured, unit);
}

inline void note(const std::string& text) { std::printf("  # %s\n", text.c_str()); }

/// Tiny ASCII sparkline for time series (Fig. 5).
inline std::string sparkline(const std::vector<double>& values, double max_value) {
  static const char* levels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  for (double v : values) {
    int idx = max_value > 0.0 ? static_cast<int>(v / max_value * 7.0 + 0.5) : 0;
    if (idx < 0) idx = 0;
    if (idx > 7) idx = 7;
    out += levels[idx];
  }
  return out;
}

}  // namespace scn::bench
