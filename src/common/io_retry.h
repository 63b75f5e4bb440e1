#ifndef TABLEGAN_COMMON_IO_RETRY_H_
#define TABLEGAN_COMMON_IO_RETRY_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace tablegan {
namespace io {

/// EINTR-safe full-buffer I/O over raw file descriptors.
///
/// A process that handles SIGTERM/SIGINT (the serving daemon, a
/// checkpointing trainer under a supervisor) sees routine syscall
/// interruptions: read()/write() return -1/EINTR, or transfer fewer
/// bytes than asked. Treating either as a hard failure turns an
/// ordinary signal into a spurious I/O error, so every raw read/write
/// loop in the library goes through these helpers instead.
///
/// Failpoint sites (tests force each path): io.read_eintr and
/// io.write_eintr simulate an interrupted syscall before the real one —
/// the helpers must retry and still transfer every byte.

/// Reads exactly `n` bytes into `buf` unless end-of-file intervenes.
/// Returns the number of bytes read: n on success, < n iff EOF was
/// reached first. EINTR and short reads are retried; real errors come
/// back as an IOError status.
Result<size_t> ReadFull(int fd, void* buf, size_t n);

/// Writes all `n` bytes of `buf`, retrying EINTR and short writes.
Status WriteFull(int fd, const void* buf, size_t n);

/// WriteFull for a socket: sends with MSG_NOSIGNAL, so writing into a
/// connection the peer has closed returns an IOError (EPIPE) instead of
/// raising SIGPIPE, without touching the process's signal disposition.
/// Same retries and io.write_eintr site as WriteFull.
Status SendFull(int fd, const void* buf, size_t n);

/// Reads a whole file into a string with the EINTR-safe loop.
/// IOError("cannot open for read: <path>") when the file cannot be
/// opened, matching the library's historical message shape.
Result<std::string> ReadWholeFile(const std::string& path);

}  // namespace io
}  // namespace tablegan

#endif  // TABLEGAN_COMMON_IO_RETRY_H_
