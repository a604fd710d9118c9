#pragma once
// Per-subframe multi-PLMN scheduling of one MOCN cell.
//
// Each broadcast PLMN (= slice) holds a dedicated PRB reservation; PRBs
// not reserved by anyone form a common pool. The scheduler first serves
// each PLMN from its own reservation, then distributes the common pool
// (and, under `pooled` sharing, unused reserved PRBs) across PLMNs with
// residual demand — the intra-cell statistical multiplexing that MOCN
// RAN sharing provides.

#include <span>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "ran/phy.hpp"

namespace slices::ran {

/// How unused *reserved* PRBs are treated.
enum class SharingPolicy {
  strict,  ///< unused reserved PRBs stay idle (hard isolation)
  pooled,  ///< unused reserved PRBs join the common pool (work-conserving)
};

/// Offered load of one PLMN in the scheduling epoch.
struct PlmnLoad {
  PlmnId plmn;
  PrbCount reserved;    ///< dedicated reservation on this cell
  DataRate demand;      ///< offered traffic
  Cqi cqi;              ///< average channel quality of the PLMN's UEs
  /// PRBs granted per water-filling round when competing for the common
  /// pool (>= 1). A weight-2 slice receives twice the pool share of a
  /// weight-1 slice under contention; dedicated reservations are not
  /// affected.
  int pool_weight = 1;
};

/// Scheduling outcome for one PLMN.
struct PlmnGrant {
  PlmnId plmn;
  PrbCount granted;     ///< PRBs actually used
  DataRate served;      ///< min(demand, capacity of granted PRBs)
  DataRate unserved;    ///< demand left unserved (SLA-relevant)
};

/// Allocation-free scheduling core: writes one grant per load into
/// `grants` and uses `want` as residual-need scratch (both sized >=
/// loads.size(), caller-provided — the epoch kernel passes stack or
/// arena storage). Preconditions: sum of reservations <= total;
/// reservations and demands non-negative. Deterministic: pool
/// distribution iterates PLMNs in input order, one PRB at a time
/// (round-robin water-filling), so equal claims split fairly.
inline void schedule_epoch(PrbCount total, std::span<const PlmnLoad> loads,
                           SharingPolicy policy, std::span<PlmnGrant> grants,
                           std::span<int> want) noexcept {
  int reserved_sum = 0;
  for (const PlmnLoad& load : loads) reserved_sum += load.reserved.value;

  // Phase 1: serve from dedicated reservations.
  int pool = total.value - reserved_sum;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const PlmnLoad& load = loads[i];
    const PrbCount needed = prbs_needed(load.demand, load.cqi);
    const int from_reservation =
        needed.value < load.reserved.value ? needed.value : load.reserved.value;
    grants[i] = PlmnGrant{load.plmn, PrbCount{from_reservation}, DataRate::zero(),
                          DataRate::zero()};
    want[i] = needed.value - from_reservation;
    if (policy == SharingPolicy::pooled) {
      pool += load.reserved.value - from_reservation;
    }
  }

  // Phase 2: weighted round-robin water-filling of the pool over
  // residual needs — each PLMN draws up to `pool_weight` PRBs per round.
  bool progress = true;
  while (pool > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < loads.size() && pool > 0; ++i) {
      if (want[i] <= 0) continue;
      const int weight = loads[i].pool_weight > 0 ? loads[i].pool_weight : 1;
      int draw = weight < want[i] ? weight : want[i];
      draw = draw < pool ? draw : pool;
      grants[i].granted += PrbCount{draw};
      want[i] -= draw;
      pool -= draw;
      progress = true;
    }
  }

  // Finalize served/unserved rates.
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const DataRate capacity = throughput_of(grants[i].granted, loads[i].cqi);
    grants[i].served = min(loads[i].demand, capacity);
    grants[i].unserved = clamp_non_negative(loads[i].demand - grants[i].served);
  }
}

}  // namespace slices::ran
