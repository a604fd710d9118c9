#pragma once
// Slice-template catalog.
//
// The demo dashboard offers preset slice types to request from; real
// brokers keep such templates (GSMA GST-style) in a catalog. A
// SliceCatalog holds named templates, each a vertical profile with a
// default duration, and instantiates SliceSpecs from them.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "core/slice.hpp"

namespace slices::core {

/// One catalog entry: a vertical and its default duration; the SLA
/// terms are the vertical profile's.
struct SliceTemplate {
  std::string name;
  traffic::Vertical vertical = traffic::Vertical::embb_video;
  Duration default_duration = Duration::hours(24.0);
};

/// A named set of slice templates.
class SliceCatalog {
 public:
  /// The built-in catalog: one template per vertical, profile defaults.
  [[nodiscard]] static SliceCatalog builtin();

  /// Add (or replace) a template.
  void put(SliceTemplate entry);

  [[nodiscard]] std::size_t size() const noexcept { return templates_.size(); }
  [[nodiscard]] const SliceTemplate* find(std::string_view name) const noexcept;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Build a SliceSpec from template `name`, with the template's
  /// default duration or an explicit one. Errors: not_found.
  [[nodiscard]] Result<SliceSpec> instantiate(std::string_view name) const;
  [[nodiscard]] Result<SliceSpec> instantiate(std::string_view name,
                                              Duration duration) const;

 private:
  std::map<std::string, SliceTemplate, std::less<>> templates_;
};

}  // namespace slices::core
