// The four workloads (README.md has the why of each). Every one sets up
// its inputs from the seed, warms up untimed, measures, checks its
// outputs, and returns the raw numbers main.cpp hands to run.py.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_loop_tick(const Options& o);
Result run_fleet_serve(const Options& o);
Result run_ae_train(const Options& o);
Result run_fed_round(const Options& o);

/// Runs and times `setup`, each time on the quietest CPU, and keeps the
/// last result: set-up cost is reported as the median of the repeats. A
/// cheap set-up repeats beyond `min_reps` until half a second is spent
/// (at most 256 times), so that its median is steady too.
template <typename F>
auto repeated_setup(Result& r, int min_reps, F setup) {
  QuietCpu quiet;
  const double start = now_s();
  quiet.settle();
  double t0 = now_s();
  auto out = setup();
  r.setup_s.push_back(now_s() - t0);
  for (int i = 1; i < 256 && (i < min_reps || now_s() - start < 0.5); ++i) {
    quiet.settle();
    t0 = now_s();
    out = setup();
    r.setup_s.push_back(now_s() - t0);
  }
  return out;
}

/// Records one failed op under `reason`.
void count_failure(Result& r, const char* reason);

}  // namespace perfbench
