#include "core/dequant/dequant.hpp"

#include <cassert>

namespace liquid {

void StoreDequanted8(const Dequanted8& d, std::int8_t* out) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::int8_t>(ByteLane(d.lo, i));
    out[i + 4] = static_cast<std::int8_t>(ByteLane(d.hi, i));
  }
}

void LqqDequantRow(const LqqWeights& w, std::size_t row,
                   std::span<std::int8_t> out, IsaCounter* c) {
  assert(out.size() >= w.k());
  const std::size_t regs_per_group = w.group_size() / 8;
  const std::size_t regs_per_row = w.RegistersPerRow();
  for (std::size_t r = 0; r < regs_per_row; ++r) {
    const LqqGroupParams& p = w.Params(row, r / regs_per_group);
    const Dequanted8 d = LqqDequant8(w.Register(row, r), p.scale, p.offset, c);
    StoreDequanted8(d, out.data() + r * 8);
  }
}

void QserveDequantRow(const QserveWeights& w, std::size_t row,
                      std::span<std::int8_t> out, IsaCounter* c) {
  assert(out.size() >= w.k);
  const std::size_t regs_per_group = w.group_size / 8;
  const std::size_t regs_per_row = w.RegistersPerRow();
  for (std::size_t r = 0; r < regs_per_row; ++r) {
    const QserveGroupParams& p = w.Params(row, r / regs_per_group);
    const Dequanted8 d =
        QserveDequant8(w.Register(row, r), p.scale, p.zero_scaled, c);
    StoreDequanted8(d, out.data() + r * 8);
  }
}

double MeasureAlphaLqq() {
  IsaCounter c;
  (void)LqqDequant8(0x12345678u, 16, 100, &c);
  return static_cast<double>(c.Total()) / 8.0;
}

double MeasureAlphaQserve() {
  IsaCounter c;
  (void)QserveDequant8(0x12345678u, 16, 100, &c);
  return static_cast<double>(c.Total()) / 8.0;
}

}  // namespace liquid
