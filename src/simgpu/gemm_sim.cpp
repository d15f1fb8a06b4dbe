#include "simgpu/gemm_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace liquid::simgpu {
namespace {

std::size_t CeilDiv(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Rounds the batch up to the WGMMA n-granularity of 8.
std::size_t RoundUp8(std::size_t m) { return std::max<std::size_t>(8, (m + 7) / 8 * 8); }

/// SimulateGemm's GEMV fast path takes `m` (already clamped to >= 1).
bool TakesGemvPath(const KernelConfig& cfg, std::size_t m) {
  return cfg.gemv_specialized && m <= static_cast<std::size_t>(cfg.gemv_max_m);
}

}  // namespace

std::size_t EquivalentRows(const KernelConfig& cfg, std::size_t m) {
  m = std::max<std::size_t>(1, m);
  if (TakesGemvPath(cfg, m)) return 1;
  const std::size_t tile_m = static_cast<std::size_t>(cfg.tile_m);
  if (RoundUp8(m) < tile_m) return RoundUp8(m);
  return CeilDiv(m, tile_m) * tile_m;
}

GemmSimResult SimulateGemm(const HardwareSpec& hw, const KernelConfig& cfg,
                           const GemmShape& shape,
                           const GemmSimOptions& options) {
  assert(shape.n > 0 && shape.k > 0);
  GemmSimResult out;

  const std::size_t m = std::max<std::size_t>(1, shape.m);

  // GEMV fast path: a weight-streaming kernel that reads every weight byte
  // once at near-peak bandwidth with no tensor-core tiling; dequant (if any)
  // trivially hides behind the stream at these intensities.
  if (TakesGemvPath(cfg, m)) {
    const double bytes = static_cast<double>(shape.n) *
                         static_cast<double>(shape.k) * cfg.weight_bits / 8.0;
    const double per_gemm = bytes / (hw.mem_bw_bytes * cfg.gemv_mem_efficiency);
    const int groups = std::max(1, options.grouped);
    const double launches =
        cfg.grouped_launch ? 1.0 : static_cast<double>(groups);
    out.seconds =
        launches * (hw.kernel_launch_seconds + cfg.setup_overhead_seconds) +
        static_cast<double>(groups) * per_gemm;
    out.t_load = static_cast<double>(groups) * per_gemm;
    out.k_iters = 1;
    out.waves = groups;
    out.active_blocks = hw.num_sms;
    out.mma_utilization = 0.0;  // CUDA-core GEMV, no tensor cores
    out.bubble_fraction = 0.0;
    return out;
  }
  // Effective batch tile: LiquidGEMM's transposed formulation tracks the
  // batch up to tile_m; fixed kernels clip at their design tile.
  const std::size_t tile_m =
      std::min<std::size_t>(static_cast<std::size_t>(cfg.tile_m), RoundUp8(m));
  const std::size_t tile_n = static_cast<std::size_t>(cfg.tile_n);
  const std::size_t tile_k =
      std::min<std::size_t>(static_cast<std::size_t>(cfg.tile_k), shape.k);

  const std::size_t m_tiles = CeilDiv(m, tile_m);
  const std::size_t n_tiles = CeilDiv(shape.n, tile_n);
  const std::size_t tiles_per_gemm = m_tiles * n_tiles;
  const int k_iters = static_cast<int>(CeilDiv(shape.k, tile_k));
  out.k_iters = k_iters;

  const std::size_t grid_slots = static_cast<std::size_t>(hw.num_sms) *
                                 static_cast<std::size_t>(hw.max_blocks_per_sm);
  const std::size_t total_tiles =
      tiles_per_gemm * static_cast<std::size_t>(std::max(1, options.grouped));
  // Concurrency: a persistent kernel streams tiles of *all* groups at once;
  // a relaunch/drain kernel only has one group's tiles in flight.
  const std::size_t active =
      cfg.persistent ? std::min(total_tiles, grid_slots)
                     : std::min(tiles_per_gemm, grid_slots);
  out.active_blocks = static_cast<int>(active);

  // Device throughput shared evenly among concurrently active blocks.
  const double bw_block =
      hw.mem_bw_bytes * cfg.mem_efficiency / static_cast<double>(active);
  const double cuda_block =
      hw.cuda_int32_ops * cfg.cuda_efficiency / static_cast<double>(active);
  const double tc_block =
      cfg.MmaOps(hw) * cfg.tc_efficiency / static_cast<double>(active);

  // Per-iteration stage durations (Eq. 3 and 4).  The weight tile dominates
  // loading; the activation slice is added once per tile below.
  const double tile_weight_bytes =
      static_cast<double>(tile_n) * static_cast<double>(tile_k) *
      cfg.weight_bits / 8.0;
  const double t_load = tile_weight_bytes / bw_block;
  const double dequant_instrs = cfg.EffectiveAlpha() *
                                static_cast<double>(tile_n) *
                                static_cast<double>(tile_k);
  const double t_dequant = dequant_instrs / cuda_block;
  const double mma_rows = std::min(tile_m, RoundUp8(m));
  const double t_mma = 2.0 * mma_rows * static_cast<double>(tile_n) *
                       static_cast<double>(tile_k) / tc_block;

  BlockPipelineInput in;
  in.pipeline = cfg.pipeline;
  in.k_iters = k_iters;
  in.t_load = t_load;
  in.t_dequant = t_dequant;
  in.t_mma = t_mma;
  // ExCP round trip: the dequantized INT8 tile (tile_n x tile_k bytes) is
  // written back to SMEM and re-read by the MMA WG through the per-SM SMEM
  // bandwidth shared by resident blocks.
  const double smem_bw_block =
      hw.smem_bw_bytes_per_sm / std::max(1, hw.max_blocks_per_sm);
  in.t_smem_roundtrip =
      cfg.pipeline == PipelineKind::kExCP
          ? 2.0 * static_cast<double>(tile_n) * static_cast<double>(tile_k) /
                smem_bw_block
          : 0.0;
  in.t_sync = cfg.pipeline == PipelineKind::kExCP ? hw.wg_sync_seconds : 0.0;
  in.compute_wgs = cfg.compute_wgs;
  in.fine_tasks = cfg.fine_tasks_per_iter;
  in.stage_depth = cfg.stage_depth;
  in.record_trace = options.record_trace;

  BlockPipelineResult block = SimulateBlockPipeline(in);

  // Per-tile extras outside the main loop: activation slice load (fill) and
  // the epilogue writeback of the FP16 output tile.
  const double act_bytes = mma_rows * static_cast<double>(tile_k) *
                           static_cast<double>(k_iters) * cfg.act_bits / 8.0;
  const double epilogue_bytes =
      mma_rows * static_cast<double>(tile_n) * cfg.out_bits / 8.0;
  // Activations are streamed alongside weights but reused across the n_tiles
  // sharing the same m rows; charge the first touch only.
  const double t_act = act_bytes / bw_block / static_cast<double>(n_tiles);
  const double t_epilogue = epilogue_bytes / bw_block;
  const double block_time = block.total + t_act + t_epilogue;

  const int groups = std::max(1, options.grouped);
  const std::size_t waves_per_gemm = CeilDiv(tiles_per_gemm, grid_slots);

  double total = 0.0;
  if (cfg.persistent && groups > 1) {
    // Persistent kernel: tiles of all groups stream through one launch; the
    // pipeline fills once and never drains between groups.  Per-wave cost is
    // therefore the *steady-state* block time; the one-time fill is estimated
    // from a two-iteration prefix of the same pipeline.
    BlockPipelineInput fill_in = in;
    fill_in.k_iters = std::min(2, k_iters);
    fill_in.record_trace = false;
    const double fill =
        std::max(0.0, SimulateBlockPipeline(fill_in).total -
                          static_cast<double>(fill_in.k_iters) *
                              (block.total / static_cast<double>(k_iters)));
    const double steady = std::max(0.0, block_time - fill);
    // A persistent tile scheduler hands tiles to blocks as they finish —
    // there is no wave barrier, so the wave count is fractional.
    const double waves_f = static_cast<double>(total_tiles) /
                           static_cast<double>(grid_slots);
    total = hw.kernel_launch_seconds + cfg.setup_overhead_seconds + fill +
            waves_f * steady;
    out.waves = static_cast<int>(CeilDiv(total_tiles, grid_slots));
  } else {
    // Grouped-GEMM kernels (e.g. TRT's MoE path) launch once for the whole
    // group but drain the pipeline between member GEMMs: each group pays its
    // own waves of the full per-tile time (fill included in block_time).
    // Kernels without grouped support relaunch per member GEMM.
    const double launches = cfg.grouped_launch ? 1.0 : static_cast<double>(groups);
    total = launches * (hw.kernel_launch_seconds + cfg.setup_overhead_seconds) +
            static_cast<double>(groups) *
                static_cast<double>(waves_per_gemm) * block_time;
    out.waves = static_cast<int>(waves_per_gemm) * groups;
  }

  out.seconds = total;
  out.t_load = block.load_busy * static_cast<double>(out.waves);
  out.t_dequant = block.dequant_busy * static_cast<double>(out.waves);
  out.t_mma = block.mma_busy * static_cast<double>(out.waves);
  out.mma_utilization =
      block.total > 0 ? block.mma_busy / block.total : 0.0;
  out.bubble_fraction = block.BubbleFraction();
  out.block = std::move(block);
  return out;
}

double SimulateGemmSequence(const HardwareSpec& hw, const KernelConfig& cfg,
                            const std::vector<GemmCall>& calls) {
  double total = 0.0;
  for (const GemmCall& call : calls) {
    GemmSimOptions options;
    options.grouped = call.grouped;
    total += SimulateGemm(hw, cfg, call.shape, options).seconds;
  }
  return total;
}

}  // namespace liquid::simgpu
