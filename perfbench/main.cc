// perfbench_e2e: the prepare and run steps of the end-to-end serving
// benchmark. run.py drives it; see README.md.
//
//   perfbench_e2e prepare-world --world mini|full --out DIR [--threads N]
//   perfbench_e2e prepare-stream --workload W --seed N --seconds S
//                                --world-dir DIR --out FILE
//   perfbench_e2e run --workload W --seed N --seconds S --trace 0|1
//                     --world-dir DIR --stream FILE --wal FILE
//                     --digest FILE --out-dir DIR [--git-sha SHA]
//                     [--inject KIND]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "common.h"

namespace {

int Fail(const deepst::util::Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_e2e prepare-world|prepare-stream|run "
                         "--flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
      return 2;
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  auto get = [&](const std::string& k) {
    auto it = flags.find(k);
    return it == flags.end() ? std::string() : it->second;
  };

  if (command == "prepare-world") {
    auto world = perfbench::WorldByName(get("world"));
    if (!world.ok()) return Fail(world.status());
    const int threads = get("threads").empty() ? 4 : std::atoi(get("threads").c_str());
    auto s = perfbench::PrepareWorld(world.value(), get("out"), threads);
    return s.ok() ? 0 : Fail(s);
  }
  if (command == "prepare-stream") {
    auto wl = perfbench::WorkloadByName(get("workload"));
    if (!wl.ok()) return Fail(wl.status());
    auto s = perfbench::PrepareStream(
        wl.value(), std::strtoull(get("seed").c_str(), nullptr, 10),
        std::strtod(get("seconds").c_str(), nullptr), get("world-dir"),
        get("out"));
    return s.ok() ? 0 : Fail(s);
  }
  if (command == "run") {
    perfbench::RunOptions o;
    o.workload = get("workload");
    o.seed = std::strtoull(get("seed").c_str(), nullptr, 10);
    o.seconds = std::strtod(get("seconds").c_str(), nullptr);
    o.trace = get("trace") == "1";
    o.world_dir = get("world-dir");
    o.stream_path = get("stream");
    o.wal_path = get("wal");
    o.digest_path = get("digest");
    o.out_dir = get("out-dir");
    o.git_sha = get("git-sha");
    o.inject = get("inject");
    if (o.seconds <= 0.0) {
      std::fprintf(stderr, "--seconds must be > 0\n");
      return 2;
    }
    return perfbench::Run(o);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
