#include "serve/server.hpp"

#include "serve/admin.hpp"
#include "serve/line_reader.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace srna::serve {

namespace {

// Routes one input line and answers through `emit_line` (a raw response
// line, no trailing newline). Exactly one emit per call:
//   * `{"admin": "metrics" | "healthz" | "readyz" | "statz"}` lines are answered
//     inline from the admin plane — they never enter the admission queue,
//     so they keep working while the service is overloaded or draining.
//   * parse failures and admission rejects answer inline;
//   * accepted requests answer from a worker (the caller tracks outstanding
//     responses itself via emit_line).
void submit_line(QueryService& service, const std::string& line,
                 const std::function<void(const std::string&)>& emit_line) {
  if (line.find("\"admin\"") != std::string::npos) {
    if (const std::optional<obs::Json> doc = obs::Json::parse(line);
        doc && doc->is_object()) {
      if (const obs::Json* what = doc->find("admin");
          what != nullptr && what->is_string()) {
        emit_line(admin_json(service, what->as_string()).dump(0));
        return;
      }
    }
  }
  ServeRequest request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    ServeResponse resp;
    resp.status = ResponseStatus::kError;
    resp.error = e.what();
    emit_line(resp.to_line());
    return;
  }
  // Captured by value: the worker invokes this after submit_line returned.
  service.submit(std::move(request),
                 [emit_line](const ServeResponse& resp) { emit_line(resp.to_line()); });
}

}  // namespace

TcpServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

std::size_t run_offline(QueryService& service, std::istream& in, std::ostream& out) {
  std::mutex out_mutex;
  std::condition_variable all_done;
  std::size_t outstanding = 0;  // guarded by out_mutex

  const auto emit = [&](const std::string& line) {
    std::lock_guard lock(out_mutex);
    out << line << '\n';
    out.flush();
    --outstanding;
    all_done.notify_all();
  };

  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    {
      std::lock_guard lock(out_mutex);
      ++outstanding;
    }
    submit_line(service, line, emit);
  }

  std::unique_lock lock(out_mutex);
  all_done.wait(lock, [&] { return outstanding == 0; });
  return lines;
}

// ------------------------------------------------------------------ TcpServer

TcpServer::TcpServer(QueryService& service, const std::string& host, std::uint16_t port)
    : TcpServer(
          [&service](const std::string& line, const EmitLine& emit) {
            submit_line(service, line, emit);
          },
          host, port) {}

TcpServer::TcpServer(LineHandler handler, const std::string& host, std::uint16_t port)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("serve: bad listen address '" + host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("serve: bind(" + host + ":" + std::to_string(port) +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error(std::string("serve: listen() failed: ") + std::strerror(err));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // shutdown() wakes accept() and every blocked recv(); close() alone is not
  // reliable for that across platforms.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<std::weak_ptr<Connection>> connections;
  std::vector<std::thread> readers;
  {
    std::lock_guard lock(mutex_);
    connections.swap(connections_);
    readers.swap(readers_);
  }
  for (const std::weak_ptr<Connection>& weak : connections) {
    if (const std::shared_ptr<Connection> conn = weak.lock()) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
}

void TcpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or fatal; either way we are done
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard lock(mutex_);
    if (stopped_) {
      ::close(fd);
      return;
    }
    connections_.push_back(conn);
    readers_.emplace_back([this, conn = std::move(conn)]() mutable {
      serve_connection(std::move(conn));
    });
  }
}

void TcpServer::serve_connection(std::shared_ptr<Connection> conn) {
  // In-flight responses may outlive the reader loop (a worker finishes after
  // the client half-closes); the shared_ptr keeps the fd and write mutex
  // alive until the last callback drops its reference. send() failures on a
  // gone peer are ignored — there is nobody left to answer.
  const auto emit = [conn](const std::string& response_line) {
    const std::string line = response_line + "\n";
    std::lock_guard lock(conn->write_mutex);
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(conn->fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  };

  // Runs until the peer closes or the server stops. A line past the cap
  // gets one error answer, shaped like a parse error, and the connection
  // is closed: nothing after an unterminated megabyte can be framed.
  if (read_lines(conn->fd, [&](const std::string& line) { handler_(line, emit); }) ==
      ReadEnd::kOverflow) {
    ServeResponse resp;
    resp.status = ResponseStatus::kError;
    resp.error = "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes";
    emit(resp.to_line());
  }
  // Half-close only: late worker callbacks may still hold the Connection and
  // attempt a send (which now fails cleanly). The fd itself is closed by the
  // Connection destructor once the last reference drops — closing here would
  // race a concurrent send() against fd reuse.
  ::shutdown(conn->fd, SHUT_RDWR);
}

}  // namespace srna::serve
