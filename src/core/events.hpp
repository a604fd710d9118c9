#pragma once
// Orchestrator event log — the scrolling activity feed of the demo
// dashboard ("all operations are displayed in a control dashboard").
// A bounded ring of typed event records (admissions, rejections,
// activations, reconfigurations, violations, teardowns) queryable by
// the dashboard and exported over REST.
//
// A record keeps the values its text is built from; detail(), fields()
// and to_json() format them only when someone reads the log. The control
// loop records an event every admission, reconfiguration and SLA
// violation, so recording does no formatting and, once the ring is
// full, no allocation.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "json/value.hpp"

namespace slices::core {

enum class EventKind {
  request_submitted,
  slice_admitted,
  slice_rejected,
  slice_active,
  slice_reconfigured,
  sla_violation,
  slice_resized,
  slice_expired,
  slice_terminated,
  state_recovered,
  fault_injected,
  fault_cleared,
};

[[nodiscard]] constexpr std::string_view to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::request_submitted: return "request_submitted";
    case EventKind::slice_admitted: return "slice_admitted";
    case EventKind::slice_rejected: return "slice_rejected";
    case EventKind::slice_active: return "slice_active";
    case EventKind::slice_reconfigured: return "slice_reconfigured";
    case EventKind::sla_violation: return "sla_violation";
    case EventKind::slice_resized: return "slice_resized";
    case EventKind::slice_expired: return "slice_expired";
    case EventKind::slice_terminated: return "slice_terminated";
    case EventKind::state_recovered: return "state_recovered";
    case EventKind::fault_injected: return "fault_injected";
    case EventKind::fault_cleared: return "fault_cleared";
  }
  return "?";
}

// --- What each event carries ---------------------------------------------------

/// A rare event (resize, teardown, recovery, fault), formatted when it
/// is recorded.
struct EventText {
  std::string detail;
  json::Object fields;
};

/// request_submitted: a tenant asks for `mbps` over `hours`.
struct EventSubmitted {
  std::string tenant;
  double mbps = 0.0;
  double hours = 0.0;
};

/// slice_admitted: embedded; the slice serves after `install_s`.
struct EventAdmitted {
  double reserved_mbps = 0.0;
  double price_per_hour = 0.0;
  double expected_revenue = 0.0;
  double penalty_per_violation = 0.0;
  double install_s = 0.0;
};

/// slice_rejected: embedding failed at `stage` (a static name).
struct EventEmbedFailed {
  std::string reason;
  std::string_view stage;
};

/// slice_rejected: the admission policy declined the request, alone or
/// in a batch auction. `policy` is the policy's static name.
struct EventDeclined {
  std::string_view policy;
  bool batch = false;
};

/// slice_active: serving until `expires_at_hours`.
struct EventActive {
  double expires_at_hours = 0.0;
};

/// slice_reconfigured: overbooking moved the reservation.
struct EventReconfigured {
  double from_mbps = 0.0;
  double to_mbps = 0.0;
  double reclaimed_mbps = 0.0;
  double contracted_mbps = 0.0;
};

/// sla_violation: served below entitlement, or the delay bound broke.
struct EventViolation {
  double achieved_mbps = 0.0;
  double entitled_mbps = 0.0;
  bool delay_violated = false;
  double penalty = 0.0;
};

/// slice_expired: closed at its end time.
struct EventExpired {
  std::uint64_t violation_epochs = 0;
};

using EventValues = std::variant<EventText, EventSubmitted, EventAdmitted, EventEmbedFailed,
                                 EventDeclined, EventActive, EventReconfigured, EventViolation,
                                 EventExpired>;

/// One logged event.
struct Event {
  std::uint64_t sequence = 0;  ///< monotonically increasing
  SimTime time;
  EventKind kind = EventKind::request_submitted;
  SliceId slice;
  EventValues values;

  /// Human-oriented one-liner.
  [[nodiscard]] std::string detail() const {
    if (const auto* e = std::get_if<EventText>(&values)) return e->detail;
    if (const auto* e = std::get_if<EventSubmitted>(&values)) {
      return e->tenant + " requests " + std::to_string(e->mbps) + " Mb/s for " +
             std::to_string(e->hours) + " h";
    }
    if (const auto* e = std::get_if<EventAdmitted>(&values)) {
      return "installing; ready in " + std::to_string(e->install_s) + " s";
    }
    if (const auto* e = std::get_if<EventEmbedFailed>(&values)) return e->reason;
    if (const auto* e = std::get_if<EventDeclined>(&values)) {
      return e->batch ? "lost the " + std::string(e->policy) + " batch auction"
                      : "declined by " + std::string(e->policy) + " policy";
    }
    if (const auto* e = std::get_if<EventActive>(&values)) {
      return "serving; expires at " + std::to_string(e->expires_at_hours) + " h";
    }
    if (const auto* e = std::get_if<EventReconfigured>(&values)) {
      return "reservation " + std::to_string(e->from_mbps) + " -> " +
             std::to_string(e->to_mbps) + " Mb/s";
    }
    if (const auto* e = std::get_if<EventViolation>(&values)) {
      return e->delay_violated ? "delay bound breached"
                               : "served " + std::to_string(e->achieved_mbps) +
                                     " of entitled " + std::to_string(e->entitled_mbps) +
                                     " Mb/s";
    }
    return std::to_string(std::get<EventExpired>(values).violation_epochs) +
           " violation epochs over its life";
  }

  /// Structured attribution (audit trail); may be empty.
  [[nodiscard]] json::Object fields() const {
    if (const auto* e = std::get_if<EventText>(&values)) return e->fields;
    json::Object out;
    if (const auto* e = std::get_if<EventAdmitted>(&values)) {
      out.emplace("reserved_mbps", e->reserved_mbps);
      out.emplace("price_per_hour", e->price_per_hour);
      out.emplace("expected_revenue", e->expected_revenue);
      out.emplace("penalty_per_violation", e->penalty_per_violation);
      out.emplace("install_s", e->install_s);
    } else if (const auto* e = std::get_if<EventEmbedFailed>(&values)) {
      out.emplace("reason", e->reason);
      out.emplace("stage", std::string(e->stage));
    } else if (const auto* e = std::get_if<EventDeclined>(&values)) {
      out.emplace("reason", std::string(e->batch ? "lost_auction" : "declined"));
      out.emplace("stage", std::string("policy"));
      out.emplace("policy", std::string(e->policy));
    } else if (const auto* e = std::get_if<EventReconfigured>(&values)) {
      out.emplace("from_mbps", e->from_mbps);
      out.emplace("to_mbps", e->to_mbps);
      out.emplace("reclaimed_mbps", e->reclaimed_mbps);
      out.emplace("contracted_mbps", e->contracted_mbps);
    } else if (const auto* e = std::get_if<EventViolation>(&values)) {
      out.emplace("achieved_mbps", e->achieved_mbps);
      out.emplace("entitled_mbps", e->entitled_mbps);
      out.emplace("delay_violated", e->delay_violated);
      out.emplace("penalty", e->penalty);
    }
    return out;
  }

  [[nodiscard]] json::Value to_json() const {
    json::Object out;
    out.emplace("seq", static_cast<double>(sequence));
    out.emplace("t", time.as_seconds());
    out.emplace("kind", std::string(to_string(kind)));
    out.emplace("slice", static_cast<double>(slice.value()));
    out.emplace("detail", detail());
    if (json::Object f = fields(); !f.empty()) out.emplace("fields", std::move(f));
    return out;
  }
};

/// Bounded event ring: grows on first use up to `capacity` records (at
/// least one), then each record overwrites the oldest.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 1024) : capacity_(capacity > 0 ? capacity : 1) {}

  void record(SimTime time, EventKind kind, SliceId slice, EventValues values) {
    Event* slot = nullptr;
    if (ring_.size() < capacity_) {
      slot = &ring_.emplace_back();
    } else {
      slot = &ring_[oldest_];
      oldest_ = oldest_ + 1 == ring_.size() ? 0 : oldest_ + 1;
    }
    slot->sequence = next_sequence_++;
    slot->time = time;
    slot->kind = kind;
    slot->slice = slice;
    slot->values = std::move(values);
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return next_sequence_; }

  /// Walks held records oldest first, in place.
  class Iterator {
   public:
    [[nodiscard]] const Event& operator*() const noexcept {
      const std::size_t i = log_->oldest_ + offset_;
      return log_->ring_[i < log_->ring_.size() ? i : i - log_->ring_.size()];
    }
    Iterator& operator++() noexcept {
      ++offset_;
      return *this;
    }
    [[nodiscard]] bool operator==(const Iterator& other) const noexcept {
      return offset_ == other.offset_;
    }

   private:
    friend class EventLog;
    Iterator(const EventLog* log, std::size_t offset) : log_(log), offset_(offset) {}
    const EventLog* log_;
    std::size_t offset_;  ///< from the oldest held record
  };

  /// Held records, oldest first; valid until the next record().
  struct Range {
    Iterator first;
    Iterator last;
    [[nodiscard]] Iterator begin() const noexcept { return first; }
    [[nodiscard]] Iterator end() const noexcept { return last; }
  };

  /// Records with sequence > `sequence` (for incremental polling), found
  /// in O(1): held sequences are consecutive.
  [[nodiscard]] Range after(std::uint64_t sequence) const noexcept {
    const std::uint64_t oldest = next_sequence_ - ring_.size();
    const std::uint64_t skip = sequence < oldest ? 0 : sequence - oldest + 1;
    return from(skip < ring_.size() ? static_cast<std::size_t>(skip) : ring_.size());
  }

  /// Most recent `n` records, oldest first.
  [[nodiscard]] Range recent(std::size_t n) const noexcept {
    return from(n < ring_.size() ? ring_.size() - n : 0);
  }

 private:
  [[nodiscard]] Range from(std::size_t offset) const noexcept {
    return {Iterator(this, offset), Iterator(this, ring_.size())};
  }

  std::size_t capacity_;
  std::uint64_t next_sequence_ = 1;
  std::vector<Event> ring_;
  std::size_t oldest_ = 0;  ///< index of the oldest record once the ring is full
};

}  // namespace slices::core
