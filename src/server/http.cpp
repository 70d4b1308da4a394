#include "server/http.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstdint>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace rct::server {
namespace {

obs::Counter& http_request_counter() {
  static obs::Counter& c = obs::registry().counter("server.http.requests");
  return c;
}
obs::Counter& http_error_counter() {
  static obs::Counter& c = obs::registry().counter("server.http.errors");
  return c;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Error";
  }
}

std::string render_response(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    status_text(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace

HttpServer::HttpServer(std::string listen_spec, Handler handler)
    : listen_(std::move(listen_spec)),
      handler_(std::move(handler)),
      acceptor_(
          [](int fd, std::size_t) {
            // Both directions bounded: a scraper that stalls mid-request or
            // stops reading the body cannot wedge stop().
            set_socket_timeouts(fd, std::chrono::seconds(5), std::chrono::seconds(5));
            return true;
          },
          [this](int fd) { serve_connection(fd); }, Acceptor::Shutdown::kReadWrite) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start() {
  if (!acceptor_.open(listen_, "http://", error_)) return false;
  obs::log::info("server.http.start", {{"address", std::string_view(address())}});
  started_ = true;
  acceptor_.start();
  return true;
}

void HttpServer::stop() {
  if (!started_) return;
  started_ = false;
  acceptor_.close();
  obs::log::info("server.http.stop",
                 {{"requests", http_request_counter().value()}});
}

void HttpServer::serve_connection(int fd) {
  http_request_counter().add();
  // Read the request head (first line + headers).  One scrape per
  // connection; the body of a GET is empty, so the blank line ends it.
  std::string head;
  char chunk[2048];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    if (head.size() > 16384) break;  // oversized head: reject below
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    head.append(chunk, static_cast<std::size_t>(n));
  }
  HttpResponse response;
  const std::size_t line_end = head.find_first_of("\r\n");
  const std::string request_line = head.substr(0, line_end == std::string::npos ? 0 : line_end);
  const std::size_t method_end = request_line.find(' ');
  const std::size_t path_end = request_line.find(' ', method_end + 1);
  if (method_end == std::string::npos || path_end == std::string::npos) {
    response.status = 400;
    response.body = "malformed request\n";
  } else if (request_line.compare(0, method_end, "GET") != 0) {
    response.status = 405;
    response.body = "only GET is supported\n";
  } else {
    std::string path = request_line.substr(method_end + 1, path_end - method_end - 1);
    const std::size_t query = path.find('?');  // queries are ignored, not errors
    if (query != std::string::npos) path.resize(query);
    response = handler_(path);
  }
  if (response.status != 200) {
    http_error_counter().add();
    obs::log::debug("server.http.error",
                    {{"status", static_cast<std::uint64_t>(response.status)},
                     {"line", std::string_view(request_line)}});
  }
  (void)send_all(fd, render_response(response));
  ::shutdown(fd, SHUT_WR);
}

}  // namespace rct::server
