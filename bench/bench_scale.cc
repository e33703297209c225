// Scale gate (docs/formats.md): cold-load wall time and per-process RSS to a
// query-ready city (network + spatial index) at ~10k and ~100k directed
// segments, comparing a v3 file that embeds its spatial-index CSR (adopted
// zero-copy from the mapping) against the same city saved without one (the
// index is built at load). Writes bench_out/BENCH_scale.json;
// tools/check_perf.sh gates the embedded index being >= 1.5x faster at the
// 100k scale.
//
// Each cold load runs in a fresh child process (this binary re-exec'd with
// --load-child), so VmRSS reflects exactly one loaded city and no allocator
// or page-cache state leaks between measurements of the two files.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "roadnet/grid_city.h"
#include "roadnet/io.h"
#include "roadnet/spatial_index.h"
#include "util/stopwatch.h"

namespace {

using deepst::bench::OutDir;

constexpr double kCellSizeM = 250.0;

long ReadVmRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atol(line.c_str() + 6);
    }
  }
  return -1;
}

// Child mode: load `path` to query-ready, print "<seconds> <rss_kb> <segs>".
int RunLoadChild(const char* path) {
  deepst::util::Stopwatch watch;
  auto city = deepst::roadnet::LoadCity(path, kCellSizeM);
  if (!city.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 city.status().ToString().c_str());
    return 1;
  }
  // Query once so a lazily-built index could not fake readiness.
  const deepst::geo::BoundingBox& b = city.value().net->bounds();
  auto near = city.value().index->Nearest(
      {(b.min.x + b.max.x) / 2.0, (b.min.y + b.max.y) / 2.0});
  (void)near;
  std::printf("%.6f %ld %d\n", watch.ElapsedSeconds(), ReadVmRssKb(),
              city.value().net->num_segments());
  return 0;
}

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "readlink(/proc/self/exe) failed\n");
    std::exit(1);
  }
  buf[n] = '\0';
  return buf;
}

struct LoadSample {
  double load_s = 0.0;
  long rss_kb = 0;
  int segments = 0;
};

// Best-of-`runs` cold load of `path` in child processes. One extra warm-up
// child runs first and is discarded: it pays any one-time page-cache and
// binary-load costs so the measured floor reflects the file, not the
// machine's state. Best-of (not mean) because scheduler noise on a busy
// box only ever adds time.
LoadSample MeasureColdLoad(const std::string& exe, const std::string& path,
                           int runs) {
  LoadSample best;
  best.load_s = 1e30;
  for (int i = -1; i < runs; ++i) {
    const std::string cmd = exe + " --load-child " + path;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      std::fprintf(stderr, "popen failed for: %s\n", cmd.c_str());
      std::exit(1);
    }
    char buf[256] = {0};
    const char* got = std::fgets(buf, sizeof(buf), pipe);
    const int rc = pclose(pipe);
    LoadSample s;
    if (got == nullptr || rc != 0 ||
        std::sscanf(buf, "%lf %ld %d", &s.load_s, &s.rss_kb, &s.segments) !=
            3) {
      std::fprintf(stderr, "child load failed (rc=%d): %s\n", rc, cmd.c_str());
      std::exit(1);
    }
    if (i >= 0 && s.load_s < best.load_s) best = s;
  }
  return best;
}

struct ScaleRow {
  int segments = 0;
  std::string index;  // "embedded" or "built"
  double load_s = 0.0;
  long rss_kb = 0;
  double speedup_vs_built = 1.0;
};

bool FastMode() {
  const char* v = std::getenv("DEEPST_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--load-child") == 0) {
    return RunLoadChild(argv[2]);
  }

  const std::string exe = SelfExe();
  const std::string out_dir = OutDir();
  const int runs = FastMode() ? 1 : 5;

  // Two chengdu-full scales: the 100k preset and a lattice shrunk to ~10k
  // directed segments. DEEPST_FAST shrinks both so the smoke path stays fast.
  std::vector<std::pair<std::string, deepst::roadnet::ChengduFullConfig>>
      scales;
  {
    deepst::roadnet::ChengduFullConfig small =
        deepst::roadnet::ChengduFullCityConfig();
    small.base.rows = FastMode() ? 24 : 53;
    small.base.cols = small.base.rows;
    scales.emplace_back("10k", small);
    deepst::roadnet::ChengduFullConfig full =
        deepst::roadnet::ChengduFullCityConfig();
    if (FastMode()) {
      full.base.rows = 48;
      full.base.cols = 48;
    }
    scales.emplace_back("100k", full);
  }

  std::vector<ScaleRow> rows;
  for (const auto& [tag, config] : scales) {
    std::fprintf(stderr, "[scale %s] building city...\n", tag.c_str());
    auto net = deepst::roadnet::BuildChengduFull(config);
    deepst::roadnet::SpatialIndex index(*net, kCellSizeM);
    const std::string built_path = out_dir + "/scale_" + tag + "_built.bin";
    const std::string embedded_path =
        out_dir + "/scale_" + tag + "_embedded.bin";
    auto sb = deepst::roadnet::SaveRoadNetworkV3(*net, built_path);
    auto se = deepst::roadnet::SaveRoadNetworkV3(*net, embedded_path, &index);
    if (!sb.ok() || !se.ok()) {
      std::fprintf(stderr, "save failed: %s / %s\n", sb.ToString().c_str(),
                   se.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[scale %s] %d segments; measuring cold loads\n",
                 tag.c_str(), net->num_segments());
    net.reset();

    const LoadSample built = MeasureColdLoad(exe, built_path, runs);
    const LoadSample embedded = MeasureColdLoad(exe, embedded_path, runs);
    rows.push_back({built.segments, "built", built.load_s, built.rss_kb, 1.0});
    rows.push_back(
        {embedded.segments, "embedded", embedded.load_s, embedded.rss_kb,
         embedded.load_s > 0.0 ? built.load_s / embedded.load_s : 0.0});
    std::fprintf(stderr,
                 "[scale %s] built %.3fs %ldKB | embedded %.3fs %ldKB | "
                 "%.2fx\n",
                 tag.c_str(), built.load_s, built.rss_kb, embedded.load_s,
                 embedded.rss_kb, rows.back().speedup_vs_built);
    std::remove(built_path.c_str());
    std::remove(embedded_path.c_str());
  }

  const std::string json_path = out_dir + "/BENCH_scale.json";
  std::ofstream json(json_path);
  json << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    json << "  {\"segments\": " << r.segments << ", \"index\": \""
         << r.index << "\", \"load_s\": " << r.load_s
         << ", \"rss_kb\": " << r.rss_kb
         << ", \"speedup_vs_built\": " << r.speedup_vs_built << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "]\n";
  if (!json.good()) {
    std::fprintf(stderr, "failed writing %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}
