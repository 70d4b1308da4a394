#pragma once
// server::HttpServer — the daemon's embedded telemetry endpoint.
//
// A deliberately minimal HTTP/1.0 listener (`rct serve --http PORT|SOCKET`)
// so Prometheus and humans can scrape a live daemon directly instead of
// via textfile exports: GET-only, Connection: close per request, no
// keep-alive, no TLS, no external dependencies.  The daemon registers the
// routes (/metrics, /healthz, /varz, /flight); anything else is 404 and
// any method but GET is 405.
//
// Transport is the shared server::Acceptor (socket.hpp): the listen spec
// is the protocol socket's (a unix path, or an all-digits TCP port on
// 127.0.0.1; 0 = ephemeral, reported by port()), and each connection gets a
// short-lived thread with 5 s send/recv timeouts, so a stuck scraper can
// never wedge stop().  Requests are a handful of bytes and responses are
// rendered snapshots, so a connection lives for one scrape.  This class
// adds only the HTTP/1.0 parse and render.

#include <functional>
#include <string>
#include <string_view>

#include "server/socket.hpp"

namespace rct::server {

/// One rendered response for a routed GET.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  /// `handler` maps a request path ("/metrics") to a response; it runs on
  /// connection threads and must be thread-safe.  Paths the handler does
  /// not recognize come back with status 404 and are counted as errors.
  using Handler = std::function<HttpResponse(std::string_view path)>;

  HttpServer(std::string listen_spec, Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the accept thread.  False (with error())
  /// when the address cannot be bound.
  [[nodiscard]] bool start();

  /// Stops accepting, joins every connection thread.  Idempotent.
  void stop();

  /// Human-readable bound address: "http://127.0.0.1:<port>" or
  /// "unix:<path>".
  [[nodiscard]] const std::string& address() const { return acceptor_.address(); }
  /// Bound TCP port (after start(); 0 for unix sockets).
  [[nodiscard]] int port() const { return acceptor_.port(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void serve_connection(int fd);

  const std::string listen_;
  const Handler handler_;
  std::string error_;
  Acceptor acceptor_;
  bool started_ = false;
};

}  // namespace rct::server
