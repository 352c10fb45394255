#include "serve/line_reader.hpp"

#include <sys/socket.h>

namespace srna::serve {

ReadEnd read_lines(int fd, const std::function<void(const std::string&)>& on_line) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return ReadEnd::kClosed;
    // The carried-over tail holds no newline, so only the new bytes are
    // searched for the first one.
    std::size_t from = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', from); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl - start > kMaxLineBytes) return ReadEnd::kOverflow;
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      if (!line.empty()) on_line(line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) return ReadEnd::kOverflow;
  }
}

}  // namespace srna::serve
