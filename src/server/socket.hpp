#pragma once
// server::socket — the one socket layer under `rct serve`: the protocol
// listener (server.hpp), the telemetry listener (http.hpp) and the client
// (client.hpp) parse specs, bind, connect, send and accept only here.
//
// Socket specs: an all-digits spec is a TCP port on 127.0.0.1 (0-65535;
// 0 = an ephemeral port), anything else a unix-domain socket path.  A port
// above 65535 or a path longer than sun_path is an error naming the spec.
//
// Acceptor threading: one accept thread polling with a 200 ms timeout (so
// stopping is prompt) and one thread per accepted connection.  The accept
// loop reaps finished connection threads; close() shuts the live ones down
// and joins them.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace rct::server {

/// Sends all of `data`, resuming after short writes and EINTR, without
/// raising SIGPIPE.  False (errno set) on any socket error.
[[nodiscard]] bool send_all(int fd, std::string_view data);

/// Connects to `spec`.  Returns the socket, or -1 with `error` set.
[[nodiscard]] int connect_socket(const std::string& spec, std::string& error);

/// Bounds blocking sends and receives on `fd`.
void set_socket_timeouts(int fd, std::chrono::milliseconds send, std::chrono::milliseconds recv);

class Acceptor {
 public:
  /// How close() ends live connections: kRead wakes a blocked recv() but
  /// lets an in-flight response (a shutdown ack) drain; kReadWrite cuts
  /// both directions.
  enum class Shutdown { kRead, kReadWrite };
  /// Runs on the accept thread for each new socket, given the number of
  /// live connections.  False rejects it: the acceptor closes the socket
  /// and starts no thread.
  using AcceptHook = std::function<bool(int fd, std::size_t live)>;
  /// A connection's body, on its own thread.  The acceptor closes the
  /// socket after joining the thread.
  using Serve = std::function<void(int fd)>;

  Acceptor(AcceptHook on_accept, Serve serve, Shutdown shutdown);
  ~Acceptor();
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Binds and listens on `spec` (a stale unix socket file is replaced).
  /// False with `error` set when it cannot.  A TCP listener's address is
  /// `tcp_scheme` + "127.0.0.1:<port>", a unix one's "unix:<path>".
  [[nodiscard]] bool open(const std::string& spec, std::string_view tcp_scheme,
                          std::string& error);
  /// Starts the accept thread on an open listener.
  void start();
  /// Stops accepting: joins the accept thread and closes the listening
  /// socket.  Live connections keep running.  Idempotent.
  void stop_accepting();
  /// Joins finished connection threads; returns how many are still live.
  std::size_t reap();
  /// stop_accepting(), then shuts down, joins and closes every live
  /// connection and removes the unix socket file.  Idempotent.
  void close();

  [[nodiscard]] const std::string& address() const { return address_; }
  /// Bound TCP port (0 for unix sockets).
  [[nodiscard]] int port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();

  const AcceptHook on_accept_;
  const Serve serve_;
  const Shutdown shutdown_;
  std::string address_;
  std::string unix_path_;  ///< removed by close(); "" for TCP
  int port_ = 0;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread accept_thread_;
};

}  // namespace rct::server
