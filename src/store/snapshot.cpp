#include "store/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "store/frame.hpp"
#include "store/journal.hpp"

namespace slices::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kPrefix = "snapshot-";
constexpr std::string_view kSuffix = ".snap";

/// Parse "snapshot-<seq>.snap" -> seq; nullopt for anything else.
std::optional<std::uint64_t> seq_of(const std::string& filename) {
  if (filename.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (filename.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      filename.substr(kPrefix.size(), filename.size() - kPrefix.size() - kSuffix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

/// Read + verify one snapshot file; nullopt when damaged.
std::optional<LoadedSnapshot> try_load(const fs::path& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec || size < kFrameHeaderBytes || size > kMaxRecordBytes + kFrameHeaderBytes)
    return std::nullopt;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  std::string raw(static_cast<std::size_t>(size), '\0');
  std::size_t filled = 0;
  while (filled < raw.size()) {
    const ssize_t n = ::read(fd, raw.data() + filled, raw.size() - filled);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    filled += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (filled != raw.size()) return std::nullopt;

  const std::string_view payload = std::string_view(raw).substr(kFrameHeaderBytes);
  if (!frame_matches(decode_frame_header(raw.data()), payload)) return std::nullopt;

  Result<json::Value> doc = json::parse(payload);
  if (!doc.ok()) return std::nullopt;
  const json::Value* seq = doc.value().find("seq");
  const json::Value* state = doc.value().find("state");
  if (seq == nullptr || !seq->is_number() || state == nullptr) return std::nullopt;

  LoadedSnapshot out;
  out.seq = static_cast<std::uint64_t>(seq->as_number());
  out.state = *state;
  out.bytes = static_cast<std::uint64_t>(size);
  out.path = path.string();
  return out;
}

}  // namespace

Result<std::string> write_snapshot(const std::string& directory, std::uint64_t seq,
                                   const json::Value& state, bool fsync) {
  json::Object doc;
  doc.emplace("seq", static_cast<double>(seq));
  doc.emplace("state", state);
  const std::string payload = json::serialize(json::Value(std::move(doc)));
  if (payload.size() > kMaxRecordBytes) {
    return make_error(Errc::invalid_argument, "snapshot state too large");
  }

  const fs::path dir(directory);
  const fs::path final_path = dir / (std::string(kPrefix) + std::to_string(seq) +
                                     std::string(kSuffix));
  const fs::path tmp_path = dir / (std::string(kPrefix) + std::to_string(seq) + ".tmp");

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return make_error(Errc::internal,
                      "cannot create snapshot temp file: " + std::string(std::strerror(errno)));
  }
  const std::string frame = encode_frame(payload);

  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + written, frame.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      return make_error(Errc::internal, "snapshot write: " + why);
    }
    written += static_cast<std::size_t>(n);
  }
  if (fsync && ::fsync(fd) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    return make_error(Errc::internal, "snapshot fsync: " + why);
  }
  ::close(fd);

  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return make_error(Errc::internal, "snapshot rename: " + ec.message());
  }
  return final_path.string();
}

Result<std::optional<LoadedSnapshot>> load_latest_snapshot(const std::string& directory,
                                                           std::vector<std::string>* rejected) {
  std::error_code ec;
  if (!fs::exists(directory, ec) || ec) return std::optional<LoadedSnapshot>{};

  // Collect candidates newest-first, try each until one verifies.
  std::vector<std::pair<std::uint64_t, fs::path>> candidates;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    if (const auto seq = seq_of(entry.path().filename().string())) {
      candidates.emplace_back(*seq, entry.path());
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [seq, path] : candidates) {
    if (std::optional<LoadedSnapshot> loaded = try_load(path)) {
      return std::optional<LoadedSnapshot>(std::move(loaded));
    }
    if (rejected != nullptr) rejected->push_back(path.string());
  }
  return std::optional<LoadedSnapshot>{};
}

Result<std::uint64_t> prune_snapshots(const std::string& directory) {
  Result<std::optional<LoadedSnapshot>> latest = load_latest_snapshot(directory);
  if (!latest.ok()) return latest.error();

  std::uint64_t reclaimed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const bool is_snapshot = seq_of(name).has_value();
    const bool is_stale_tmp = name.size() > 4 && name.starts_with(kPrefix) &&
                              name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (!is_snapshot && !is_stale_tmp) continue;
    if (latest.value().has_value() && entry.path().string() == latest.value()->path) continue;
    std::error_code del_ec;
    const std::uintmax_t size = fs::file_size(entry.path(), del_ec);
    if (fs::remove(entry.path(), del_ec) && !del_ec) {
      reclaimed += static_cast<std::uint64_t>(size);
    }
  }
  return reclaimed;
}

}  // namespace slices::store
