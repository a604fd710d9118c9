#include "core/catalog.hpp"

namespace slices::core {

SliceCatalog SliceCatalog::builtin() {
  SliceCatalog catalog;
  for (const traffic::Vertical v : traffic::all_verticals()) {
    SliceTemplate entry;
    entry.name = std::string(traffic::to_string(v));
    entry.vertical = v;
    catalog.put(std::move(entry));
  }
  return catalog;
}

void SliceCatalog::put(SliceTemplate entry) {
  templates_.insert_or_assign(entry.name, std::move(entry));
}

const SliceTemplate* SliceCatalog::find(std::string_view name) const noexcept {
  const auto it = templates_.find(name);
  return it == templates_.end() ? nullptr : &it->second;
}

std::vector<std::string> SliceCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(templates_.size());
  for (const auto& [name, entry] : templates_) out.push_back(name);
  return out;
}

Result<SliceSpec> SliceCatalog::instantiate(std::string_view name) const {
  const SliceTemplate* entry = find(name);
  if (entry == nullptr)
    return make_error(Errc::not_found, "no template '" + std::string(name) + "'");
  return instantiate(name, entry->default_duration);
}

Result<SliceSpec> SliceCatalog::instantiate(std::string_view name, Duration duration) const {
  const SliceTemplate* entry = find(name);
  if (entry == nullptr)
    return make_error(Errc::not_found, "no template '" + std::string(name) + "'");

  SliceSpec spec =
      SliceSpec::from_profile(traffic::profile_for(entry->vertical), duration);
  spec.tenant_name = entry->name;
  return spec;
}

}  // namespace slices::core
