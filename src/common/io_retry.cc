#include "common/io_retry.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace tablegan {
namespace io {

Result<size_t> ReadFull(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    if (TABLEGAN_FAILPOINT("io.read_eintr")) {
      errno = EINTR;
      continue;  // the retry the helper exists to provide
    }
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read failed: ") +
                             std::strerror(errno));
    }
    if (r == 0) break;  // EOF
    got += static_cast<size_t>(r);
  }
  return got;
}

namespace {

// The retry loop of WriteFull and SendFull; `socket` selects send(2)
// with MSG_NOSIGNAL over write(2).
Status PutFull(int fd, const void* buf, size_t n, bool socket) {
  const char* p = static_cast<const char*>(buf);
  size_t put = 0;
  while (put < n) {
    if (TABLEGAN_FAILPOINT("io.write_eintr")) {
      errno = EINTR;
      continue;
    }
    const ssize_t w = socket ? ::send(fd, p + put, n - put, MSG_NOSIGNAL)
                             : ::write(fd, p + put, n - put);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(socket ? "send" : "write") +
                             " failed: " + std::strerror(errno));
    }
    put += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Status WriteFull(int fd, const void* buf, size_t n) {
  return PutFull(fd, buf, n, /*socket=*/false);
}

Status SendFull(int fd, const void* buf, size_t n) {
  return PutFull(fd, buf, n, /*socket=*/true);
}

Result<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open for read: " + path);
  }
  std::string out;
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    out.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  for (;;) {
    Result<size_t> got = ReadFull(fd, buf, sizeof(buf));
    if (!got.ok()) {
      ::close(fd);
      return Status::IOError(got.status().message() + ": " + path);
    }
    out.append(buf, *got);
    if (*got < sizeof(buf)) break;  // EOF
  }
  ::close(fd);
  return out;
}

}  // namespace io
}  // namespace tablegan
