// bench/bench_util.hpp — shared output helpers for the experiment benches.
//
// Each experiment bench prints a self-describing table to stdout so that
// scripts/run_benches.sh regenerates every figure of the paper in text
// form. Formatting is deliberately plain (tab-separated)
// for downstream plotting.
#pragma once

#include <cstdio>
#include <string>

namespace benchutil {

inline void header(const std::string& experiment, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", experiment.c_str(), what.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& s) { std::printf("# %s\n", s.c_str()); }

/// Engineering-notation rate, e.g. 7.5e+10.
inline std::string rate(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", r);
  return buf;
}

}  // namespace benchutil
