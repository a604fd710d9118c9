#include "store/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "store/frame.hpp"

namespace slices::store {

namespace {

Result<void> write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return make_error(Errc::internal, std::string("journal write: ") + std::strerror(errno));
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return {};
}

}  // namespace

Result<JournalScan> scan_journal(const std::string& path) {
  JournalScan scan;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return scan;  // fresh deployment: empty journal
    return make_error(Errc::internal, "cannot open journal '" + path + "': " + std::strerror(errno));
  }

  struct stat st {};
  if (::fstat(fd, &st) == 0) scan.file_bytes = static_cast<std::uint64_t>(st.st_size);

  std::string payload;
  unsigned char header[kFrameHeaderBytes];
  for (;;) {
    const ssize_t got = ::read(fd, header, sizeof header);
    if (got == 0) break;  // clean end
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return make_error(Errc::internal, "journal read: " + std::string(std::strerror(errno)));
    }
    if (got < static_cast<ssize_t>(sizeof header)) {
      scan.corruption = "truncated record header";
      break;
    }
    const FrameHeader frame = decode_frame_header(header);
    const std::uint32_t len = frame.length;
    if (len == 0 || len > kMaxRecordBytes) {
      scan.corruption = "implausible record length " + std::to_string(len);
      break;
    }
    payload.resize(len);
    std::size_t filled = 0;
    bool short_read = false;
    while (filled < len) {
      const ssize_t n = ::read(fd, payload.data() + filled, len - filled);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        short_read = true;
        break;
      }
      filled += static_cast<std::size_t>(n);
    }
    if (short_read) {
      scan.corruption = "truncated record payload";
      break;
    }
    if (!frame_matches(frame, payload)) {
      scan.corruption = "CRC mismatch";
      break;
    }
    Result<json::Value> doc = json::parse(payload);
    if (!doc.ok()) {
      scan.corruption = "payload is not valid JSON: " + doc.error().message;
      break;
    }
    scan.records.push_back(std::move(doc).value());
    scan.valid_bytes += sizeof header + len;
  }
  ::close(fd);
  scan.truncated_tail = scan.valid_bytes < scan.file_bytes;
  return scan;
}

Journal::~Journal() { close(); }

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<void> Journal::open(const std::string& path, std::uint64_t valid_bytes) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) {
    return make_error(Errc::internal, "cannot open journal '" + path + "': " + std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
    const std::string why = std::strerror(errno);
    close();
    return make_error(Errc::internal, "cannot truncate journal torn tail: " + why);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    const std::string why = std::strerror(errno);
    close();
    return make_error(Errc::internal, "cannot seek journal: " + why);
  }
  path_ = path;
  bytes_ = valid_bytes;
  return {};
}

Result<std::uint64_t> Journal::append(const std::string& payload, bool fsync) {
  if (fd_ < 0) return make_error(Errc::unavailable, "journal is not open");
  if (payload.empty() || payload.size() > kMaxRecordBytes) {
    return make_error(Errc::invalid_argument, "journal payload size out of range");
  }
  // One buffer, one write(): a torn write can only leave a partial tail
  // record, which the scanner drops — never an interleaved mess.
  const std::string frame = encode_frame(payload);
  if (Result<void> w = write_all(fd_, frame.data(), frame.size()); !w.ok()) return w.error();
  bytes_ += frame.size();
  if (fsync) {
    const auto start = std::chrono::steady_clock::now();
    if (::fsync(fd_) != 0) {
      return make_error(Errc::internal, "journal fsync: " + std::string(std::strerror(errno)));
    }
    last_fsync_us_ = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    ++fsyncs_;
  }
  return static_cast<std::uint64_t>(frame.size());
}

Result<void> Journal::reset() {
  if (fd_ < 0) return make_error(Errc::unavailable, "journal is not open");
  if (::ftruncate(fd_, 0) != 0) {
    return make_error(Errc::internal, "journal reset: " + std::string(std::strerror(errno)));
  }
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    return make_error(Errc::internal, "journal seek: " + std::string(std::strerror(errno)));
  }
  bytes_ = 0;
  return {};
}

}  // namespace slices::store
