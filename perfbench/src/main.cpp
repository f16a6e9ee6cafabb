// s2a_perfbench — the benchmark's measuring binary. run.py builds and
// drives it; it is not meant to be run by hand, though it can be:
//
//   s2a_perfbench --workload loop_tick --seed 1 --seconds 10 --trace 0
//                 --out raw.json
//
// It runs one workload and writes the raw measurements (op latencies,
// set-up times, counters, check outcomes, provenance) as one JSON
// object to --out; with --trace 1 it also writes the span log next to
// it. run.py turns the raw file into the printed metrics.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "nn/gemm.hpp"
#include "util/cpu_features.hpp"
#include "workloads.hpp"

namespace perfbench {

void count_failure(Result& r, const char* reason) {
  ++r.failed;
  for (auto& [name, n] : r.fail_reasons)
    if (name == reason) {
      ++n;
      return;
    }
  r.fail_reasons.emplace_back(reason, 1);
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + num(v[i]);
  return out + "]";
}

template <typename T, typename F>
std::string object(const std::vector<std::pair<std::string, T>>& kv, F fmt) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i)
    out += (i ? ", " : "") + str(kv[i].first) + ": " + fmt(kv[i].second);
  return out + "}";
}

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string to_json(const Options& o, const Result& r, int pool_threads) {
  const int nproc = online_cpus();
  std::vector<std::pair<std::string, std::string>> prov = {
      {"nproc", std::to_string(nproc)},
      {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
      {"pool_threads", std::to_string(pool_threads)},
      {"parallel_resolved", pool_threads <= nproc ? "true" : "false"},
      {"simd", str(s2a::util::simd_isa_name(s2a::util::active_simd_isa()))},
      {"gemm_kernel", str(s2a::nn::gemm_kernel_name())},
      {"cpu_features", str(s2a::util::cpu_feature_string())},
      {"build_type", str(PERFBENCH_BUILD_TYPE)},
      {"seed", std::to_string(o.seed)},
  };
  auto raw = [](const std::string& s) { return s; };
  std::ostringstream os;
  os << "{\"workload\": " << str(o.workload) << ", \"seed\": " << o.seed
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"provenance\": " << object(prov, raw)
     << ", \"info\": " << object(r.info, str)
     << ", \"setup_s\": " << list(r.setup_s) << ", \"op_ms\": " << list(r.op_ms)
     << ", \"op_end_s\": " << list(r.op_end_s) << ", \"wall_s\": " << num(r.wall_s) << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"fail_reasons\": "
     << object(r.fail_reasons, [](long n) { return std::to_string(n); })
     << ", \"peak_rss_mb\": " << num(r.peak_rss_mb)
     << ", \"energy_mj_per_op\": " << num(r.energy_mj_per_op)
     << ", \"quality\": " << num(r.quality)
     << ", \"named_quality\": " << object(r.named_quality, num)
     << ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    os << (i ? ", " : "") << "{\"name\": " << str(r.checks[i].name)
       << ", \"ok\": " << (r.checks[i].ok ? "true" : "false")
       << ", \"detail\": " << str(r.checks[i].detail) << "}";
  os << "], \"traced_op_ms\": " << list(r.traced_op_ms)
     << ", \"layers\": " << object(r.layers, num) << ", \"self_layers\": [";
  for (std::size_t i = 0; i < r.self_layers.size(); ++i)
    os << (i ? ", " : "") << str(r.self_layers[i]);
  os << "]}\n";
  return os.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: s2a_perfbench --workload loop_tick|fleet_serve|ae_train|"
               "fed_round --seed N --seconds S --trace 0|1 --out FILE\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--out") out = v;
    else return usage();
  }
  if (out.empty() || !(o.seconds > 0.0)) return usage();
  // The library's own observability stays off: the benchmark times from
  // the outside.
  unsetenv("S2A_OBS");
  unsetenv("S2A_TRACE");
  o.out_dir = std::filesystem::path(out).parent_path().string();
  if (o.out_dir.empty()) o.out_dir = ".";

  Result r;
  if (o.workload == "loop_tick") r = run_loop_tick(o);
  else if (o.workload == "fleet_serve") r = run_fleet_serve(o);
  else if (o.workload == "ae_train") r = run_ae_train(o);
  else if (o.workload == "fed_round") r = run_fed_round(o);
  else return usage();

  int pool_threads = 1;
  for (const auto& [k, v] : r.info)
    if (k == "pool_threads") pool_threads = std::atoi(v.c_str());
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::perror(out.c_str());
    return 1;
  }
  const std::string json = to_json(o, r, pool_threads);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return 0;
}
