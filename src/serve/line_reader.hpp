// Bounded JSON-lines reading off a socket.
//
// Every end of the wire protocol splits a byte stream into '\n'-terminated
// lines: TcpServer's per-connection readers (srna-serve, and srna-router's
// client-facing listener), the router's shard links, and the blocking
// client the load generators use (dist::LineClient). A peer that never
// sends a newline must not grow the reader's memory without bound, so a line
// is capped at kMaxLineBytes — far above any real request (the n = 2×10⁴
// pairs srna-lean is tested on make a line of about 40 KB), and the reader's
// buffer never holds more than the cap plus one receive chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace srna::serve {

inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;  // 1 MiB

// Why read_lines returned.
enum class ReadEnd : std::uint8_t {
  kClosed,    // the peer closed, or recv failed (e.g. the socket was shut down)
  kOverflow,  // a line grew past kMaxLineBytes before its newline arrived
};

// The pull form: one line per next() call, off a socket the caller owns.
class LineReader {
 public:
  explicit LineReader(int fd) noexcept : fd_(fd) {}

  // Blocks until the next complete line and stores it in `line` (newline and
  // any trailing '\r' stripped; empty lines skipped). False once the peer
  // closed or a line overflowed; end() then says which.
  bool next(std::string& line);
  [[nodiscard]] ReadEnd end() const noexcept { return end_; }

 private:
  int fd_;
  std::string buffer_;
  std::size_t start_ = 0;    // first byte of buffer_ not yet handed out
  std::size_t scanned_ = 0;  // buffer_ bytes already searched for a newline
  ReadEnd end_ = ReadEnd::kClosed;
};

// Reads `fd` until it closes or a line overflows, handing each complete line
// to `on_line` (the push form of LineReader).
ReadEnd read_lines(int fd, const std::function<void(const std::string&)>& on_line);

}  // namespace srna::serve
