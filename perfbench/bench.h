// Run step of the end-to-end serving benchmark (bench.cc).
#ifndef DEEPST_PERFBENCH_BENCH_H_
#define DEEPST_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string world_dir;    // prepared world (city, dataset, model)
  std::string stream_path;  // prepared request stream for (workload, seed)
  std::string wal_path;     // mini_live: the live server's WAL
  std::string digest_path;  // route digest shared by runs of one binary+stream
  std::string out_dir;      // run record, spans, per-layer table
  std::string git_sha;
  // Self-test only: corrupts what the output checks see
  // (perturb_route | drop_response | break_invariant).
  std::string inject;
};

// Prints the result JSON line on stdout; returns 0 when every output check
// passed, 1 when one failed, 2 on a set-up error.
int Run(const RunOptions& options);

}  // namespace perfbench

#endif  // DEEPST_PERFBENCH_BENCH_H_
