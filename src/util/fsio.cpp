#include "util/fsio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace malnet::util {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Splits `path` into (directory, name); the directory is "." when the path
/// has no slash so the temp always lands next to the target.
std::pair<std::string, std::string> split_path(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return {".", path};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

}  // namespace

std::string atomic_temp_path(const std::string& path, long pid) {
  const auto [dir, name] = split_path(path);
  return dir + "/." + name + ".tmp" + std::to_string(pid);
}

bool is_atomic_temp_name(std::string_view name) {
  if (name.empty() || name.front() != '.') return false;
  const auto tmp = name.rfind(".tmp");
  if (tmp == std::string_view::npos) return false;
  // Everything after ".tmp" must be the writer's pid: at least one digit.
  const auto pid = name.substr(tmp + 4);
  if (pid.empty()) return false;
  for (const char c : pid) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

void write_file_atomic(const std::string& path, BytesView data) {
  const std::string tmp = atomic_temp_path(path, static_cast<long>(::getpid()));

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("write_file_atomic: cannot open " + tmp + ": " +
                             errno_text());
  }
  // On any failure past this point the temp must vanish so the target's
  // directory never accumulates partial bytes under a name a reader could
  // be told about.
  const auto fail = [&](const char* stage) -> std::runtime_error {
    const std::string why = errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    return std::runtime_error(std::string("write_file_atomic: ") + stage +
                              " failed for " + tmp + ": " + why);
  };

  std::size_t off = 0;
  while (off < data.size()) {
    const ::ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw fail("write");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) throw fail("fsync");
  if (::close(fd) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    throw std::runtime_error("write_file_atomic: close failed for " + tmp +
                             ": " + why);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    throw std::runtime_error("write_file_atomic: rename to " + path + ": " + why);
  }
  // Durability of the rename itself needs the directory entry flushed.
  // Failure to open the directory degrades durability, not atomicity.
  const auto dir = split_path(path).first;
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

void write_file_atomic(const std::string& path, std::string_view text) {
  write_file_atomic(
      path, BytesView{reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()});
}

Bytes read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("read_file: cannot open " + path);
  return Bytes((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

}  // namespace malnet::util
