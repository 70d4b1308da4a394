#include "server/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace rct::server {
namespace {

bool is_all_digits(const std::string& s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

/// A parsed socket spec: the address to bind or connect, and how error
/// texts name it ("127.0.0.1:<port>" or the unix path).
struct Endpoint {
  int family = AF_UNIX;
  sockaddr_in in{};
  sockaddr_un un{};
  std::string where;

  [[nodiscard]] const sockaddr* addr() const {
    return family == AF_INET ? reinterpret_cast<const sockaddr*>(&in)
                             : reinterpret_cast<const sockaddr*>(&un);
  }
  [[nodiscard]] socklen_t len() const {
    return family == AF_INET ? sizeof(in) : sizeof(un);
  }
};

/// The one listen-spec rule: all digits = TCP port on 127.0.0.1, anything
/// else = unix socket path.
bool parse_spec(const std::string& spec, Endpoint& ep, std::string& error) {
  if (is_all_digits(spec)) {
    unsigned long port = 0;
    for (const char c : spec) {
      port = port * 10 + static_cast<unsigned long>(c - '0');
      if (port > 65535) {
        error = "port out of range (0-65535): " + spec;
        return false;
      }
    }
    ep.family = AF_INET;
    ep.in.sin_family = AF_INET;
    ep.in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ep.in.sin_port = htons(static_cast<std::uint16_t>(port));
    ep.where = "127.0.0.1:" + spec;
    return true;
  }
  if (spec.size() >= sizeof(ep.un.sun_path)) {
    error = "unix socket path too long: " + spec;
    return false;
  }
  ep.un.sun_family = AF_UNIX;
  std::memcpy(ep.un.sun_path, spec.c_str(), spec.size() + 1);
  ep.where = spec;
  return true;
}

int open_socket(const Endpoint& ep, std::string& error) {
  const int fd = ::socket(ep.family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) error = "socket: " + std::string(std::strerror(errno));
  return fd;
}

timeval to_timeval(std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>(ms.count() % 1000 * 1000);
  return tv;
}

}  // namespace

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

int connect_socket(const std::string& spec, std::string& error) {
  Endpoint ep;
  if (!parse_spec(spec, ep, error)) return -1;
  const int fd = open_socket(ep, error);
  if (fd < 0) return -1;
  if (::connect(fd, ep.addr(), ep.len()) != 0) {
    error = "connect " + ep.where + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

void set_socket_timeouts(int fd, std::chrono::milliseconds send, std::chrono::milliseconds recv) {
  const timeval send_tv = to_timeval(send);
  const timeval recv_tv = to_timeval(recv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_tv, sizeof(send_tv));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &recv_tv, sizeof(recv_tv));
}

Acceptor::Acceptor(AcceptHook on_accept, Serve serve, Shutdown shutdown)
    : on_accept_(std::move(on_accept)), serve_(std::move(serve)), shutdown_(shutdown) {}

Acceptor::~Acceptor() { close(); }

bool Acceptor::open(const std::string& spec, std::string_view tcp_scheme, std::string& error) {
  Endpoint ep;
  if (!parse_spec(spec, ep, error)) return false;
  const int fd = open_socket(ep, error);
  if (fd < 0) return false;
  if (ep.family == AF_INET) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  } else {
    ::unlink(spec.c_str());  // stale socket from a dead server
  }
  if (::bind(fd, ep.addr(), ep.len()) != 0) {
    error = "bind " + ep.where + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  if (ep.family == AF_INET) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = static_cast<int>(ntohs(bound.sin_port));
    address_ = std::string(tcp_scheme) + "127.0.0.1:" + std::to_string(port_);
  } else {
    unix_path_ = spec;
    address_ = "unix:" + spec;
  }
  if (::listen(fd, 64) != 0) {
    error = "listen: " + std::string(std::strerror(errno));
    close();
    return false;
  }
  return true;
}

void Acceptor::start() { accept_thread_ = std::thread(&Acceptor::accept_loop, this); }

void Acceptor::stop_accepting() {
  stopping_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::size_t Acceptor::reap() {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  std::erase_if(conns_, [](const std::unique_ptr<Connection>& conn) {
    if (!conn->done.load(std::memory_order_acquire)) return false;
    conn->thread.join();
    ::close(conn->fd);
    return true;
  });
  return conns_.size();
}

void Acceptor::close() {
  stop_accepting();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const int how = shutdown_ == Shutdown::kRead ? SHUT_RD : SHUT_RDWR;
    for (const auto& conn : conns_) {
      ::shutdown(conn->fd, how);
      conn->thread.join();
      ::close(conn->fd);
    }
    conns_.clear();
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

void Acceptor::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    const std::size_t live = reap();
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!on_accept_(fd, live)) {
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    Connection* conn = conns_.emplace_back(std::make_unique<Connection>()).get();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] {
      serve_(conn->fd);
      conn->done.store(true, std::memory_order_release);
    });
  }
}

}  // namespace rct::server
