#include "ran/cell.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace slices::ran {

namespace {

/// Rows per wander block: 32 CQI bytes.
constexpr std::size_t kWanderBlock = 32;

// The fill and apply loops below carry no loop-carried dependence, but
// GCC only proves that (and vectorizes both) when the column pointers
// are restrict-qualified *parameters* and the loops are marked ivdep —
// hence the out-of-line kernel instead of a member-function body.
#if defined(__GNUC__)
#define SLICES_WANDER_IVDEP _Pragma("GCC ivdep")
#else
#define SLICES_WANDER_IVDEP
#endif

/// Block-batched CQI walk over the SoA byte columns. Entropy budget:
/// one xoshiro word per *four* rows — row j of a block reads the 16-bit
/// lane `(word[j/4] >> ((j%4)*16)) & 0xFFFF`, the lane's low bit is the
/// step sign and its upper 15 bits gate the step against p·2^15. Words
/// are drawn for live rows and holes alike, so RNG consumption is a
/// pure function of the row count. Holes (CQI byte 0) are masked and
/// stay 0. Per-PLMN CQI-sum deltas accumulate into `delta` (indexed by
/// the rows' PLMN slot).
__attribute__((noinline)) void wander_kernel(std::uint8_t* __restrict cqi,
                                             const std::uint8_t* __restrict plmn,
                                             std::size_t rows, Rng& rng, std::uint32_t thresh,
                                             std::int64_t* __restrict delta) {
  alignas(32) std::array<std::int8_t, kWanderBlock> step;
  alignas(32) std::array<std::int8_t, kWanderBlock> applied;
  for (std::size_t base = 0; base < rows; base += kWanderBlock) {
    const std::size_t n = std::min(kWanderBlock, rows - base);
    // The RNG stream is inherently serial; unpack the block's words
    // into per-row ±1/0 steps so the apply pass below is pure column
    // arithmetic (auto-vectorized).
    const std::size_t n_words = (n + 3) / 4;
    for (std::size_t k = 0; k < n_words; ++k) {
      // Unpacking rides along inside the (serial, unvectorizable) RNG
      // loop on purpose: GCC 12's cost model otherwise SSE-widens the
      // 16-bit lane extraction into a spill-heavy dword unpack that is
      // ~3x slower than this scalar form.
      const std::uint64_t w = rng.next_u64();
      std::int8_t* s = step.data() + 4 * k;
      for (std::size_t l = 0; l < 4; ++l) {
        const auto c = static_cast<std::uint32_t>(w >> (l * 16)) & 0xFFFFU;
        s[l] = static_cast<std::int8_t>(((c >> 1) < thresh ? 1 : 0) * ((c & 1U) != 0 ? 1 : -1));
      }
    }
    SLICES_WANDER_IVDEP
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = base + j;
      const int old = static_cast<int>(cqi[row]);
      int next = old + step[j];
      next = next < 1 ? 1 : (next > 15 ? 15 : next);
      // Holes (CQI 0) mask their step to 0. An AND with the mask, not a
      // select: GCC 12 vectorizes the select ~10% slower.
      const int d = (next - old) & -static_cast<int>(old != 0);
      applied[j] = static_cast<std::int8_t>(d);
      cqi[row] = static_cast<std::uint8_t>(old + d);
    }
    for (std::size_t j = 0; j < n; ++j) {
      delta[plmn[base + j]] += applied[j];
    }
  }
}

}  // namespace

Cell::Cell(CellId id, std::string name, Bandwidth bandwidth, SharingPolicy policy)
    : id_(id), name_(std::move(name)), total_(prbs_for(bandwidth)), policy_(policy) {}

std::size_t Cell::plmn_index(PlmnId plmn) const noexcept {
  for (std::size_t i = 0; i < broadcast_.size(); ++i) {
    if (broadcast_[i] == plmn) return i;
  }
  return broadcast_.size();
}

Result<void> Cell::broadcast_plmn(PlmnId plmn) {
  if (broadcasts(plmn))
    return make_error(Errc::conflict, "cell " + name_ + " already broadcasts this PLMN");
  if (broadcast_.size() >= kMaxBroadcastPlmns)
    return make_error(Errc::insufficient_capacity,
                      "cell " + name_ + " SIB1 PLMN list is full");
  // The lowest slot no broadcast PLMN holds.
  unsigned used = 0;
  for (std::size_t i = 0; i < broadcast_.size(); ++i) used |= 1U << slot_of_[i];
  std::uint8_t slot = 0;
  while ((used & (1U << slot)) != 0) ++slot;
  slot_of_[broadcast_.size()] = slot;
  position_of_[slot] = static_cast<std::uint8_t>(broadcast_.size());
  broadcast_.push_back(plmn);
  plmns_.push_back(PlmnState{});
  return {};
}

Result<void> Cell::withdraw_plmn(PlmnId plmn) {
  const std::size_t i = plmn_index(plmn);
  if (i == broadcast_.size())
    return make_error(Errc::not_found, "PLMN not broadcast on cell " + name_);
  if (plmns_[i].reserved.value > 0)
    return make_error(Errc::conflict, "PLMN still holds a PRB reservation");
  if (plmns_[i].count > 0)
    return make_error(Errc::conflict, "UEs still attached under this PLMN");
  broadcast_.erase(broadcast_.begin() + static_cast<std::ptrdiff_t>(i));
  plmns_.erase(plmns_.begin() + static_cast<std::ptrdiff_t>(i));
  // Every position above the withdrawn one shifts down by one; the UE
  // rows hold slots, which stay, so only the two tables change.
  for (std::size_t p = i; p < broadcast_.size(); ++p) {
    slot_of_[p] = slot_of_[p + 1];
    position_of_[slot_of_[p]] = static_cast<std::uint8_t>(p);
  }
  return {};
}

bool Cell::broadcasts(PlmnId plmn) const noexcept {
  return plmn_index(plmn) != broadcast_.size();
}

Result<void> Cell::set_reservation(PlmnId plmn, PrbCount prbs) {
  const std::size_t i = plmn_index(plmn);
  if (i == broadcast_.size())
    return make_error(Errc::not_found, "PLMN not broadcast on cell " + name_);
  if (prbs.value < 0) return make_error(Errc::invalid_argument, "negative PRB reservation");
  const PrbCount others = reserved_ - plmns_[i].reserved;
  if (others.value + prbs.value > total_.value)
    return make_error(Errc::insufficient_capacity,
                      "cell " + name_ + " has only " +
                          std::to_string(total_.value - others.value) + " PRBs free");
  reserved_ = others + prbs;
  plmns_[i].reserved = prbs;
  return {};
}

void Cell::clear_reservation(PlmnId plmn) {
  const std::size_t i = plmn_index(plmn);
  if (i == broadcast_.size()) return;
  reserved_ -= plmns_[i].reserved;
  plmns_[i].reserved = PrbCount{0};
}

PrbCount Cell::reservation_of(PlmnId plmn) const noexcept {
  const std::size_t i = plmn_index(plmn);
  return i == broadcast_.size() ? PrbCount{0} : plmns_[i].reserved;
}

Result<std::uint32_t> Cell::attach(PlmnId plmn, Cqi cqi) {
  const std::size_t i = plmn_index(plmn);
  if (i == broadcast_.size())
    return make_error(Errc::not_found,
                      "PLMN not on the air on cell " + name_ + "; UE cannot attach");
  return attach_at(i, cqi);
}

void Cell::wander_cqis(Rng& rng, double step_probability) {
  // Batched branchless kernel over the SoA byte columns; see
  // wander_kernel above for the lane scheme and RNG-stream contract.
  // 15 bits of threshold resolution (p quantized to 1/32768ths) is far
  // below the sampling noise of any population this walk models.
  const double p = std::clamp(step_probability, 0.0, 1.0);
  const auto thresh = static_cast<std::uint32_t>(p * 32768.0);  // p * 2^15
  std::array<std::int64_t, kMaxBroadcastPlmns> delta{};
  const std::span<std::uint8_t> cqi = ues_.cqi_column();
  wander_kernel(cqi.data(), ues_.plmn_column().data(), cqi.size(), rng, thresh, delta.data());
  for (std::size_t i = 0; i < broadcast_.size(); ++i) plmns_[i].cqi_sum += delta[slot_of_[i]];
}

std::size_t Cell::attached_count(PlmnId plmn) const noexcept {
  const std::size_t i = plmn_index(plmn);
  return i == broadcast_.size() ? 0 : plmns_[i].count;
}

Cqi Cell::mean_cqi(PlmnId plmn, Cqi fallback) const noexcept {
  const std::size_t i = plmn_index(plmn);
  if (i == broadcast_.size()) return fallback;
  return mean_cqi_at(i, fallback);
}

Cqi Cell::mean_cqi_at(std::size_t index, Cqi fallback) const noexcept {
  if (plmns_[index].count == 0) return fallback;
  const int mean = static_cast<int>(plmns_[index].cqi_sum /
                                    static_cast<std::int64_t>(plmns_[index].count));
  return Cqi{mean < 1 ? 1 : (mean > 15 ? 15 : mean)};
}

std::size_t Cell::serve_epoch(std::span<const DataRate> demand_by_index, Cqi fallback_cqi,
                              std::span<PlmnGrant> grants) const noexcept {
  assert(demand_by_index.size() >= broadcast_.size());
  assert(grants.size() >= broadcast_.size());
  std::array<PlmnLoad, kMaxBroadcastPlmns> loads;
  std::array<int, kMaxBroadcastPlmns> want;
  for (std::size_t i = 0; i < broadcast_.size(); ++i) {
    loads[i] = PlmnLoad{broadcast_[i], plmns_[i].reserved, demand_by_index[i],
                        mean_cqi_at(i, fallback_cqi)};
  }
  schedule_epoch(total_, std::span<const PlmnLoad>(loads.data(), broadcast_.size()), policy_,
                 grants, want);
  return broadcast_.size();
}

}  // namespace slices::ran
