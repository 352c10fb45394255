#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "serve/line_reader.hpp"
#include "serve/protocol.hpp"

namespace srna::serve {
namespace {

std::map<std::int64_t, ServeResponse> responses_by_id(const std::string& output) {
  std::map<std::int64_t, ServeResponse> out;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const ServeResponse resp = ServeResponse::from_line(line);
    EXPECT_EQ(out.count(resp.id), 0u) << "duplicate response id " << resp.id;
    out[resp.id] = resp;
  }
  return out;
}

TEST(OfflineServer, OneResponsePerRequestLine) {
  QueryService service({});
  std::istringstream in(
      "{\"id\": 1, \"a\": \"((..))\", \"b\": \"(..)\"}\n"
      "\n"
      "{\"id\": 2, \"a\": \"((..))\", \"b\": \"(..)\"}\n"
      "{\"id\": 3, \"nope\": true}\n"
      "{\"id\": 4, \"a\": \"((\", \"b\": \"()\"}\n");
  std::ostringstream out;
  const std::size_t lines = run_offline(service, in, out);
  EXPECT_EQ(lines, 4u);  // the blank line is skipped

  const auto responses = responses_by_id(out.str());
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses.at(1).status, ResponseStatus::kOk);
  EXPECT_EQ(responses.at(2).status, ResponseStatus::kOk);
  // Same pair twice, never a second solve: whichever of ids 1 and 2 a worker
  // reached first solved it, and the other was a cache hit or coalesced onto
  // that solve. (Workers pick up adjacent jobs in either order.)
  const auto shared = [](const ServeResponse& r) { return r.cache_hit || r.coalesced; };
  EXPECT_NE(shared(responses.at(1)), shared(responses.at(2)));
  // Malformed JSON cannot echo the request id (it was never parsed).
  EXPECT_EQ(responses.at(0).status, ResponseStatus::kError);
  EXPECT_NE(responses.at(0).error.find("unknown field"), std::string::npos);
  EXPECT_EQ(responses.at(4).status, ResponseStatus::kError);
}

TEST(OfflineServer, EmptyInputReturnsImmediately) {
  QueryService service({});
  std::istringstream in("");
  std::ostringstream out;
  EXPECT_EQ(run_offline(service, in, out), 0u);
  EXPECT_TRUE(out.str().empty());
}

// Minimal blocking client for the TCP tests.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    // A missing answer fails the test instead of hanging it.
    const timeval timeout{15, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
  }

  // Sends `bytes` as they are (no newline appended).
  void send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  // True when every byte the server sent has been read and it then closed
  // the connection.
  bool at_eof() {
    if (!buffer_.empty()) return false;
    char c = 0;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(TcpServer, ServesRequestsOnAnEphemeralPort) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  ServeRequest req;
  req.id = 11;
  req.a = "((..))";
  req.b = "(..)";
  client.send_line(req.to_line());
  const ServeResponse resp = ServeResponse::from_line(client.read_line());
  EXPECT_EQ(resp.id, 11);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);

  // Malformed line: connection survives, error response comes back.
  client.send_line("not json");
  EXPECT_EQ(ServeResponse::from_line(client.read_line()).status, ResponseStatus::kError);
  client.send_line(req.to_line());
  const ServeResponse again = ServeResponse::from_line(client.read_line());
  EXPECT_EQ(again.status, ResponseStatus::kOk);
  EXPECT_TRUE(again.cache_hit);

  server.stop();
  service.drain();
}

TEST(TcpServer, OverlongLineGetsOneErrorThenEof) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);
  ServeRequest req;
  req.id = 5;
  req.a = "((..))";
  req.b = "(..)";
  {
    // One byte past the cap and never a newline: one error line, shaped
    // like a parse error, then the server closes the connection.
    TestClient client(server.port());
    client.send_raw(std::string(kMaxLineBytes + 1, 'x'));
    const ServeResponse resp = ServeResponse::from_line(client.read_line());
    EXPECT_EQ(resp.status, ResponseStatus::kError);
    EXPECT_NE(resp.error.find("exceeds"), std::string::npos) << resp.error;
    EXPECT_TRUE(client.at_eof());
  }
  // The server itself is unharmed: a new connection is served.
  TestClient fresh(server.port());
  fresh.send_line(req.to_line());
  const ServeResponse ok = ServeResponse::from_line(fresh.read_line());
  EXPECT_EQ(ok.id, 5);
  EXPECT_EQ(ok.status, ResponseStatus::kOk);

  server.stop();
  service.drain();
}

TEST(TcpServer, DeeplyNestedLineGetsOneErrorAndTheConnectionKeepsServing) {
  // A line within the length cap whose nesting alone once overflowed the
  // parser's stack and killed the process.
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);
  TestClient client(server.port());
  client.send_raw(std::string(kMaxLineBytes, '[') + "\n");
  const ServeResponse bad = ServeResponse::from_line(client.read_line());
  EXPECT_EQ(bad.status, ResponseStatus::kError);
  EXPECT_NE(bad.error.find("bad request"), std::string::npos) << bad.error;

  ServeRequest req;
  req.id = 9;
  req.a = "((..))";
  req.b = "(..)";
  client.send_line(req.to_line());
  const ServeResponse ok = ServeResponse::from_line(client.read_line());
  EXPECT_EQ(ok.id, 9);
  EXPECT_EQ(ok.status, ResponseStatus::kOk);

  server.stop();
  service.drain();
}

TEST(TcpServer, MultipleConnectionsAreIndependent) {
  QueryService service({});
  TcpServer server(service, "127.0.0.1", 0);

  TestClient c1(server.port());
  TestClient c2(server.port());
  ServeRequest req;
  req.a = "((..))";
  req.b = "((..))";
  req.id = 1;
  c1.send_line(req.to_line());
  req.id = 2;
  c2.send_line(req.to_line());
  EXPECT_EQ(ServeResponse::from_line(c1.read_line()).id, 1);
  EXPECT_EQ(ServeResponse::from_line(c2.read_line()).id, 2);

  server.stop();  // idempotent with the destructor
  server.stop();
}

}  // namespace
}  // namespace srna::serve
