#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace slices::net {
namespace {

Error sys_error(std::string what) {
  return make_error(Errc::unavailable, what + ": " + std::strerror(errno));
}

}  // namespace

void FdHandle::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<void> TcpConnection::send_all(std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_.get(), data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return sys_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return {};
}

Result<std::size_t> TcpConnection::receive(char* buffer, std::size_t size) {
  while (true) {
    const ssize_t n = ::recv(fd_.get(), buffer, size, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno != EINTR) return sys_error("recv");
  }
}

void TcpConnection::shutdown_write() noexcept { ::shutdown(fd_.get(), SHUT_WR); }

Result<TcpListener> TcpListener::bind_loopback(std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return sys_error("socket");

  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0) {
    return sys_error("setsockopt(SO_REUSEADDR)");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    return sys_error("bind");
  }
  if (::listen(fd.get(), 16) != 0) return sys_error("listen");

  // Recover the actual port for ephemeral binds.
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return sys_error("getsockname");
  }
  return TcpListener(std::move(fd), ntohs(bound.sin_port));
}

void TcpListener::close() noexcept {
  if (fd_.valid()) {
    // Wake any thread blocked in accept(): shutdown on a listening
    // socket makes accept return (EINVAL); closing alone would leave
    // that thread blocked forever. The fd itself is NOT closed here —
    // freeing the descriptor number while another thread still uses it
    // would let the kernel reuse it for an unrelated socket. The
    // destructor (which runs after any accept loop has been joined)
    // releases it.
    ::shutdown(fd_.get(), SHUT_RDWR);
  }
}

Result<TcpConnection> TcpListener::accept_one() {
  while (true) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) {
      // Request/response exchanges are small; disable Nagle for latency.
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return TcpConnection(FdHandle(client));
    }
    if (errno == EINTR) continue;
    return sys_error("accept");
  }
}

Result<TcpConnection> connect_loopback(std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return sys_error("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  while (true) {
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return TcpConnection(std::move(fd));
    }
    if (errno == EINTR) continue;
    return sys_error("connect");
  }
}

}  // namespace slices::net
