#include "dist/net.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

namespace srna::dist {

Endpoint parse_endpoint(const std::string& text) {
  Endpoint out;
  std::string port_text = text;
  if (const std::size_t colon = text.rfind(':'); colon != std::string::npos) {
    if (colon > 0) out.host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  try {
    std::size_t pos = 0;
    const long port = std::stol(port_text, &pos);
    if (pos != port_text.size() || port < 0 || port > 65535)
      throw std::invalid_argument(port_text);
    out.port = static_cast<std::uint16_t>(port);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad endpoint '" + text + "' (want host:port)");
  }
  return out;
}

namespace {

void set_timeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

int tcp_connect(const Endpoint& endpoint, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (::getaddrinfo(endpoint.host.c_str(), nullptr, &hints, &found) != 0 || found == nullptr) {
      ::close(fd);
      return -1;
    }
    addr.sin_addr = reinterpret_cast<const sockaddr_in*>(found->ai_addr)->sin_addr;
    ::freeaddrinfo(found);
  }
  // SO_SNDTIMEO bounds the connect() itself on Linux; good enough for the
  // localhost links this tier manages.
  set_timeouts(fd, timeout_ms);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

LineClient::LineClient(const Endpoint& endpoint, int timeout_ms)
    : fd_(tcp_connect(endpoint, timeout_ms)), reader_(fd_) {
  if (fd_ < 0) throw std::runtime_error("cannot connect to " + endpoint.to_string());
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send(const std::string& line) {
  if (!send_all(fd_, line + "\n")) throw std::runtime_error("send failed (server gone?)");
}

std::string LineClient::receive() {
  std::string response;
  if (reader_.next(response)) return response;
  if (reader_.end() == serve::ReadEnd::kOverflow)
    throw std::runtime_error("response line exceeds " + std::to_string(serve::kMaxLineBytes) +
                             " bytes");
  throw std::runtime_error("connection closed mid-response");
}

std::optional<std::string> http_get_body(const Endpoint& endpoint, const std::string& path,
                                         int timeout_ms) {
  const int fd = tcp_connect(endpoint, timeout_ms);
  if (fd < 0) return std::nullopt;
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return std::nullopt;
  }
  std::string response;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
    response.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);

  // "HTTP/1.0 200 OK" — the status code is the token after the first space.
  const std::size_t space = response.find(' ');
  if (space == std::string::npos || response.size() < space + 2) return std::nullopt;
  if (response[space + 1] != '2') return std::nullopt;
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return std::nullopt;
  return response.substr(body + 4);
}

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      port = ntohs(bound.sin_port);
  }
  ::close(fd);
  return port;
}

}  // namespace srna::dist
