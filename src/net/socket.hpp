// Shared loopback socket plumbing for every in-process network surface
// (the estimate front end in src/net/ and the metrics HTTP exporter in
// src/obs/expose.cpp).  One place owns the errno policy:
//
//   * EINTR is always retried, never surfaced;
//   * transient accept failures (EMFILE/ENFILE/ENOBUFS/ENOMEM) are reported
//     as kTransient so callers back off instead of spinning — on Linux the
//     pending connection stays in the accept queue, so backing off and
//     retrying is lossless;
//   * per-connection races (ECONNABORTED/EPROTO) look like "no connection
//     arrived" (kTimeout) because that is what they mean;
//   * EBADF/EINVAL mean the listener is gone (kClosed) and the loop should
//     exit.
//
// All helpers are IPv4-loopback only on purpose: the front end is a
// same-host service surface, not an internet daemon.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

namespace overcount::net {

/// Outcome of one bounded accept attempt.
enum class AcceptStatus : std::uint8_t {
  kAccepted,   ///< `fd` holds a connected socket (TCP_NODELAY already set).
  kTimeout,    ///< nothing arrived within the poll window (or the peer
               ///< aborted the handshake) — call again.
  kTransient,  ///< resource exhaustion (EMFILE & friends): back off briefly,
               ///< then call again; the connection is still queued.
  kClosed,     ///< the listening socket is dead; stop the loop.
};

struct AcceptResult {
  int fd = -1;
  AcceptStatus status = AcceptStatus::kTimeout;
  int error = 0;  ///< errno for kTransient/kClosed, 0 otherwise.
};

/// Creates a non-blocking loopback listener bound to `port` (0 =
/// kernel-assigned), safe to share between several accept_next() callers.
/// Returns the listening fd, or -1 with errno set.
int listen_loopback(std::uint16_t port, int backlog = 64);

/// Port a listener returned by listen_loopback() is actually bound to.
std::uint16_t bound_port(int listen_fd);

/// Polls `listen_fd` for up to `timeout_ms`, then tries one accept().
/// Never blocks longer than the timeout; never spins on EMFILE.
AcceptResult accept_next(int listen_fd, int timeout_ms);

/// Blocking connect to 127.0.0.1:`port` (TCP_NODELAY set). -1 on failure.
int connect_loopback(std::uint16_t port);

/// Writes all `n` bytes, retrying EINTR and partial sends, with
/// MSG_NOSIGNAL so a dead peer surfaces as an error instead of SIGPIPE.
bool send_all(int fd, const void* data, std::size_t n);

/// recv_some() sentinel return values (any value > 0 is a byte count).
inline constexpr ssize_t kRecvEof = 0;
inline constexpr ssize_t kRecvTimeout = -1;
inline constexpr ssize_t kRecvError = -2;

/// Polls for up to `timeout_ms` then reads at most `cap` bytes.
/// Returns bytes read, or kRecvEof / kRecvTimeout / kRecvError.
ssize_t recv_some(int fd, void* buf, std::size_t cap, int timeout_ms);

}  // namespace overcount::net
