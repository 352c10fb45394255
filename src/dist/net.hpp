// Small blocking-socket helpers shared by the distributed tier: the router's
// shard links, the health prober's HTTP probes, the supervisor/tests' port
// bookkeeping, and the JSON-lines client of srna-loadgen and
// srna-dist-bench. Everything is IPv4 localhost-grade plumbing on purpose —
// the distributed tier targets one machine (N processes around one kernel
// library), not a datacenter fabric.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "serve/line_reader.hpp"

namespace srna::dist {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const { return host + ":" + std::to_string(port); }
};

// Parses "host:port" (host optional: ":8080" and "8080" mean 127.0.0.1).
// Throws std::invalid_argument on a malformed port.
[[nodiscard]] Endpoint parse_endpoint(const std::string& text);

// Connects with a bounded wait (connect() itself plus SO_SNDTIMEO/SO_RCVTIMEO
// on the resulting socket; 0 = no timeouts). A host that is not an IPv4
// literal is resolved. Returns -1 on failure. TCP_NODELAY is set: every
// payload here is a small line or probe.
[[nodiscard]] int tcp_connect(const Endpoint& endpoint, int timeout_ms);

// Sends the whole buffer with MSG_NOSIGNAL: a peer that resets mid-send is a
// false return, never a SIGPIPE. Returns false on any short write/error (the
// caller treats the peer as gone).
bool send_all(int fd, const std::string& data);

// A blocking JSON-lines client: one request in flight per connection, the
// response read through the bounded serve::LineReader. Throws
// std::runtime_error when the connection cannot be made, the peer goes away
// mid-send or mid-response, or a response line overflows
// serve::kMaxLineBytes.
class LineClient {
 public:
  LineClient(const Endpoint& endpoint, int timeout_ms);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  // Sends `line` plus '\n'.
  void send(const std::string& line);
  // The next line the peer sends.
  std::string receive();
  // send() then receive(): one request in flight.
  std::string roundtrip(const std::string& line) {
    send(line);
    return receive();
  }

 private:
  int fd_;
  serve::LineReader reader_;
};

// One HTTP/1.0 GET: returns the response body on a 2xx status, std::nullopt
// on connect failure, timeout, or a non-2xx status. This is the probe/scrape
// client for shard admin planes.
[[nodiscard]] std::optional<std::string> http_get_body(const Endpoint& endpoint,
                                                       const std::string& path,
                                                       int timeout_ms);

// Binds an ephemeral listener, reads the port back, and closes it. Good
// enough for tests and the supervisor to pre-assign shard ports (the race
// window is harmless on a single machine running one supervisor).
[[nodiscard]] std::uint16_t pick_free_port();

}  // namespace srna::dist
