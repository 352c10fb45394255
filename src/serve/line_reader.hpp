// Bounded JSON-lines reading off a socket.
//
// Both ends of the wire protocol split a byte stream into '\n'-terminated
// lines: TcpServer's per-connection readers (srna-serve, and srna-router's
// client-facing listener) and the router's shard links. A peer that never
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

// Reads `fd` until it closes or a line overflows, handing each complete line
// to `on_line` (newline and any trailing '\r' stripped; empty lines skipped).
ReadEnd read_lines(int fd, const std::function<void(const std::string&)>& on_line);

}  // namespace srna::serve
