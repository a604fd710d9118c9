#include "ran/cell.hpp"

#include <array>
#include <cassert>

namespace slices::ran {

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
