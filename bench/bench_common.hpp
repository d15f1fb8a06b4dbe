#pragma once
// Shared helpers for the paper-reproduction bench binaries.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "cluster/fleet_stats.hpp"
#include "core/gemm/provider.hpp"
#include "serving/engine.hpp"
#include "simgpu/gemm_sim.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#ifndef LIQUID_BUILD_TYPE
#define LIQUID_BUILD_TYPE "unknown"
#endif

namespace liquid::bench {

/// Host facts a wall-clock number depends on, so two artifacts can be
/// compared: they are reported next to the measurements, never gated.
struct Provenance {
  unsigned hardware_threads = std::thread::hardware_concurrency();
#if defined(_OPENMP)
  int omp_max_threads = omp_get_max_threads();
#else
  int omp_max_threads = 1;
#endif
  std::string provider = GemmProviderName(ActiveGemmProvider());
  std::string build_type = LIQUID_BUILD_TYPE;

  [[nodiscard]] std::string Line() const {
    return "hardware_threads=" + std::to_string(hardware_threads) +
           " omp_max_threads=" + std::to_string(omp_max_threads) +
           " provider=" + provider + " build_type=" + build_type;
  }
  /// Emits `"provenance": {...}` into an open JSON object.
  void Write(JsonWriter& w) const {
    w.Key("provenance").BeginObject();
    w.Key("hardware_threads").Number(std::uint64_t{hardware_threads});
    w.Key("omp_max_threads").Number(std::int64_t{omp_max_threads});
    w.Key("gemm_provider").String(provider);
    w.Key("build_type").String(build_type);
    w.EndObject();
  }
};

/// This process's peak resident set so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Writes a finished JSON artifact to `path` with a trailing newline after
/// checking its syntax, and says so on stdout as "wrote <what>: <path>".
/// On failure it prints why to stderr and returns false.
inline bool WriteJsonArtifact(const std::string& path, std::string json,
                              const char* what) {
  json.push_back('\n');
  if (!JsonSyntaxValid(json)) {
    std::fprintf(stderr, "FAILED: emitted invalid JSON\n");
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
    if (f != nullptr) std::fclose(f);
    std::fprintf(stderr, "FAILED to write %s\n", path.c_str());
    return false;
  }
  std::fclose(f);
  std::printf("wrote %s: %s\n", what, path.c_str());
  return true;
}

/// A cluster bench's --json-out artifact (nothing when `path` is empty): the
/// fleet report's members, then this process's peak RSS and the provenance
/// block, which compare_baselines.py reports but never gates.  Benches call
/// it after their last run, so the RSS covers every run.
inline bool WriteFleetArtifact(const std::string& path,
                               const cluster::FleetStats& stats) {
  if (path.empty()) return true;
  JsonWriter w;
  w.BeginObject();
  cluster::WriteFleetStatsMembers(w, stats);
  w.Key("peak_rss_mb").Number(PeakRssMb());
  Provenance().Write(w);
  w.EndObject();
  return WriteJsonArtifact(path, w.TakeString(), "fleet stats");
}

/// `stats`, once it passes cluster::CheckFleetInvariants.  A broken law is
/// a simulator bug: each is printed to stderr and the bench exits 1, which
/// is what checks the laws in Release builds, where ClusterSimulator::Run's
/// own assert is compiled out.
inline cluster::FleetStats Checked(cluster::FleetStats stats) {
  const std::vector<std::string> broken = cluster::CheckFleetInvariants(stats);
  for (const std::string& law : broken) {
    std::fprintf(stderr, "FAILED: fleet invariant broken: %s\n", law.c_str());
  }
  if (!broken.empty()) std::exit(1);
  return stats;
}

inline const simgpu::HardwareSpec& H800() {
  static const simgpu::HardwareSpec hw = simgpu::HardwareSpec::H800();
  return hw;
}

/// The paper's batch sweep: 2^2 .. 2^8.
inline std::vector<std::size_t> BatchSweep() {
  return {4, 8, 16, 32, 64, 128, 256};
}

/// Kernel list of Figures 5/12 (TRT precisions + QServe + LiquidGEMM).
inline std::vector<simgpu::KernelKind> Figure12Kernels() {
  return {simgpu::KernelKind::kTrtFp16,  simgpu::KernelKind::kTrtW8A8,
          simgpu::KernelKind::kTrtFp8,   simgpu::KernelKind::kTrtW4A16,
          simgpu::KernelKind::kQServeW4A8, simgpu::KernelKind::kLiquidW4A8};
}

/// Latency of one transformer layer's GEMM chain (fused QKV + O + FFN) for a
/// model at a batch size, under a given kernel.
inline double LayerGemmSeconds(const serving::LlmConfig& model,
                               simgpu::KernelKind kind, std::size_t batch) {
  const auto cfg = simgpu::KernelConfig::For(kind);
  return simgpu::SimulateGemmSequence(H800(), cfg, model.LayerGemms(batch));
}

inline std::string Us(double seconds) {
  return Format("%.1f", seconds * 1e6);
}

}  // namespace liquid::bench
