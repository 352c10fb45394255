#include "serve/line_reader.hpp"

#include <sys/socket.h>

namespace srna::serve {

bool LineReader::next(std::string& line) {
  for (;;) {
    // Hand out the lines already buffered; the unterminated tail was
    // searched before, so only bytes past `scanned_` can hold a newline.
    for (std::size_t nl = buffer_.find('\n', scanned_); nl != std::string::npos;
         nl = buffer_.find('\n', start_)) {
      if (nl - start_ > kMaxLineBytes) {
        end_ = ReadEnd::kOverflow;
        return false;
      }
      line.assign(buffer_, start_, nl - start_);
      start_ = scanned_ = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) return true;
    }
    buffer_.erase(0, start_);
    start_ = 0;
    scanned_ = buffer_.size();
    if (buffer_.size() > kMaxLineBytes) {
      end_ = ReadEnd::kOverflow;
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      end_ = ReadEnd::kClosed;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

ReadEnd read_lines(int fd, const std::function<void(const std::string&)>& on_line) {
  LineReader reader(fd);
  std::string line;
  while (reader.next(line)) on_line(line);
  return reader.end();
}

}  // namespace srna::serve
