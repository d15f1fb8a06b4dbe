#pragma once
// GPU hardware models (paper Figure 1a).
//
// The simulator is parameterized by the same five metrics the paper's cost
// model uses: tensor-core throughput per dtype, CUDA-core INT32 throughput,
// memory bandwidth, SM count, and occupancy.  Values are the published
// dense-math numbers for A100 SXM and H100/H800 SXM that Figure 1a lists.

#include <string>

namespace liquid::simgpu {

struct HardwareSpec {
  std::string name;

  // Device-level throughputs (operations per second; 1 MAC = 2 ops).
  double tc_fp16_ops = 0;   ///< FP16 tensor core
  double tc_int8_ops = 0;   ///< INT8 tensor core
  double tc_fp8_ops = 0;    ///< FP8 tensor core (0 if unsupported)
  double tc_int4_ops = 0;   ///< INT4 tensor core (0 if unsupported)
  double cuda_int32_ops = 0;///< CUDA-core INT32 ALU

  double mem_bw_bytes = 0;  ///< HBM bandwidth, bytes/s
  double nvlink_bw_bytes = 0;  ///< per-GPU interconnect bandwidth, bytes/s

  int num_sms = 0;
  int max_blocks_per_sm = 1;      ///< concurrent thread blocks (the paper's L)
  double smem_bytes_per_sm = 0;
  double smem_bw_bytes_per_sm = 0; ///< shared-memory bandwidth per SM
  double clock_hz = 0;

  /// Per-iteration software warp-group synchronization cost (named barriers +
  /// fence), charged by the ExCP pipeline.
  double wg_sync_seconds = 80e-9;
  /// Kernel launch latency, charged per non-persistent grouped-GEMM launch.
  double kernel_launch_seconds = 3e-6;

  bool operator==(const HardwareSpec&) const = default;

  static HardwareSpec A100();
  static HardwareSpec H100();
  /// H800: H100 silicon with reduced NVLink; on-die metrics match H100 and
  /// the paper benchmarks on this part.
  static HardwareSpec H800();
};

}  // namespace liquid::simgpu
