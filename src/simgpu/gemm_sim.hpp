#pragma once
// Grid-level GEMM simulation (paper Section 3.2, "GPU-Level Execution").
//
// Combines the block pipeline simulation with the device-level wave model of
// Eq. 6: the output grid of ceil(M/Mt) x ceil(N/Nt) tiles is executed by
// S x L concurrent blocks; device throughputs are shared evenly among active
// blocks.  Grouped GEMMs (MoE experts, Section 7.3 ablation) either relaunch
// per group (baselines) or stream through one persistent kernel (LiquidGEMM).

#include <cstddef>
#include <vector>

#include "core/types.hpp"
#include "simgpu/block_pipeline.hpp"
#include "simgpu/hardware.hpp"
#include "simgpu/kernel_config.hpp"

namespace liquid::simgpu {

struct GemmSimOptions {
  int grouped = 1;           ///< number of equal-shape GEMMs in the group
  bool record_trace = false;
};

struct GemmSimResult {
  double seconds = 0;        ///< end-to-end kernel time
  double t_load = 0;         ///< aggregate stage times, Eq. 6 decomposition
  double t_dequant = 0;
  double t_mma = 0;
  int waves = 0;
  int active_blocks = 0;
  int k_iters = 0;
  double mma_utilization = 0;   ///< TC busy fraction inside one block
  double bubble_fraction = 0;   ///< 1 - mma_busy/total for one block
  BlockPipelineResult block;    ///< representative block (trace if requested)
};

/// Simulates Y = X·Wᵀ with the given kernel on the given hardware.
GemmSimResult SimulateGemm(const HardwareSpec& hw, const KernelConfig& cfg,
                           const GemmShape& shape,
                           const GemmSimOptions& options = {});

/// The canonical row count that SimulateGemm prices identically to `m` rows
/// on kernel `cfg`, for any shape, hardware and grouping.  SimulateGemm sees
/// the row count only through three quantities, so rows that agree on all
/// three get bitwise-equal results:
///  * on the GEMV path (gemv_specialized, m <= gemv_max_m) it never reads m:
///    the class is 1;
///  * below the batch tile, the effective tile is RoundUp8(m) and the grid
///    has one m-tile, so only RoundUp8(m) matters: the class is RoundUp8(m);
///  * from the tile on, the tile is fixed at cfg.tile_m and only the number
///    of m-tiles matters: the class is ceil(m / tile_m) * tile_m.
/// m = 0 is priced as 1 row, like SimulateGemm does.  The rule shares
/// RoundUp8 and CeilDiv with the walk, so the two cannot drift apart; on
/// LiquidGEMM the rows 1..4096 fall into 47 classes.  Cost memos key by the
/// class so that every distinct row count in a class shares one walk.
std::size_t EquivalentRows(const KernelConfig& cfg, std::size_t m);

/// Latency of a sequence of GEMMs executed back to back (one transformer
/// layer's QKV/O/FFN chain); each entry may itself be grouped (MoE experts).
struct GemmCall {
  GemmShape shape;
  int grouped = 1;
};
double SimulateGemmSequence(const HardwareSpec& hw, const KernelConfig& cfg,
                            const std::vector<GemmCall>& calls);

}  // namespace liquid::simgpu
