#pragma once
// server::LineReader — the newline framing both ends of the NDJSON socket
// share (Client::roundtrip and the server's connection loop).
//
// One growable byte buffer.  read_from() recv()s straight into its spare
// capacity, kReadSize bytes at a time, with no zero-fill and no bounce
// buffer.  next_line() resumes the newline search where the previous one
// stopped, so a line that trickles in over many reads is scanned once, and
// it hands the line out as a view into the buffer: the caller makes at most
// one copy.  The consumed prefix is compacted once per read, not once per
// line.

#include <sys/types.h>

#include <cstddef>
#include <memory>
#include <string_view>

namespace rct::server {

class LineReader {
 public:
  /// Spare capacity each read_from() guarantees and offers to recv().
  static constexpr std::size_t kReadSize = std::size_t{64} << 10;

  /// Moves the unconsumed bytes to the front, grows the buffer until
  /// kReadSize bytes are free, and runs one recv() into them.  Returns
  /// recv()'s result; errno is left as recv() set it.
  ssize_t read_from(int fd);

  /// The next complete line (newline stripped).  The view points into the
  /// buffer and stays valid until the next read_from().  False when no
  /// full line is buffered; every pending byte has been scanned then.
  [[nodiscard]] bool next_line(std::string_view& line);

  /// Bytes received but not yet handed out as a line.
  [[nodiscard]] std::size_t pending() const { return end_ - begin_; }

  /// Drops every buffered byte; the allocation stays for reuse.
  void clear() { begin_ = scanned_ = end_ = 0; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;    ///< first byte not yet handed out
  std::size_t scanned_ = 0;  ///< [begin_, scanned_) holds no newline
  std::size_t end_ = 0;      ///< one past the last received byte
};

}  // namespace rct::server
