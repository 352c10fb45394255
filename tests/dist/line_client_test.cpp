// dist::LineClient (the router tests drive its round trips) against peers
// that end a connection badly: each must surface as a std::runtime_error,
// never as a signal that kills the process.
#include "dist/net.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <stdexcept>
#include <string>

#include "serve/line_reader.hpp"
#include "serve/server.hpp"

namespace srna::dist {
namespace {

TEST(LineClient, PeerResetMidSendThrowsAndTheProcessSurvives) {
  // Default SIGPIPE disposition: a send without MSG_NOSIGNAL into the reset
  // connection would kill this process instead of failing the send.
  const auto previous = std::signal(SIGPIPE, SIG_DFL);
  // TcpServer answers a line past the cap with one error line and closes
  // while the rest is still arriving, so the kernel resets the connection
  // under the client's send — 32 MiB is far more than loopback buffers hold.
  serve::TcpServer server([](const std::string&, const serve::TcpServer::EmitLine&) {},
                          "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", server.port()}, 15000);
  try {
    client.roundtrip(std::string(std::size_t{32} << 20, 'x'));
    ADD_FAILURE() << "a 32 MiB line cannot be sent through a reset connection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("send failed"), std::string::npos) << e.what();
  }
  server.stop();
  std::signal(SIGPIPE, previous);
}

TEST(LineClient, ResponsePastTheLineCapThrowsOverflow) {
  // The peer answers with more than kMaxLineBytes before any newline.
  serve::TcpServer babbler(
      [](const std::string&, const serve::TcpServer::EmitLine& emit) {
        emit(std::string(2 * serve::kMaxLineBytes, 'x'));
      },
      "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", babbler.port()}, 15000);
  try {
    client.roundtrip("hello");
    ADD_FAILURE() << "an overlong response line must not be returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
  }
  babbler.stop();
}

TEST(LineClient, ClosedAndUnreachablePeersThrow) {
  serve::TcpServer mute([](const std::string&, const serve::TcpServer::EmitLine&) {},
                        "127.0.0.1", 0);
  LineClient client(Endpoint{"127.0.0.1", mute.port()}, 15000);
  mute.stop();  // closes the connection without answering
  EXPECT_THROW(client.roundtrip("hello"), std::runtime_error);
  EXPECT_THROW(LineClient(Endpoint{"127.0.0.1", pick_free_port()}, 2000), std::runtime_error);
}

}  // namespace
}  // namespace srna::dist
