#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/endian.h"

namespace prins {
namespace {

Status errno_status(const std::string& what) {
  return io_error(what + ": " + std::strerror(errno));
}

Status write_all(int fd, const Byte* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

}  // namespace

TcpTransport::TcpTransport(int fd) : fd_(fd), owned_fd_(fd) {
  // Explicit socket semantics, identical for the blocking and reactor
  // variants: no Nagle delay on the small-delta replication traffic, and
  // address reuse so a restarted node can rebind its port immediately.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
}

TcpTransport::~TcpTransport() {
  close();
  if (owned_fd_ >= 0) ::close(owned_fd_);
}

Result<std::unique_ptr<Transport>> TcpTransport::connect(
    const std::string& host, std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return invalid_argument("bad IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status s = errno_status("connect " + ip + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  return std::unique_ptr<Transport>(std::make_unique<TcpTransport>(fd));
}

Status TcpTransport::send(ByteSpan message) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return unavailable("transport closed");
  if (message.size() > kMaxTcpMessageBytes) {
    return invalid_argument("message exceeds frame limit");
  }
  Byte header[4];
  store_le32(header, static_cast<std::uint32_t>(message.size()));
  PRINS_RETURN_IF_ERROR(write_all(fd, header, sizeof header));
  return write_all(fd, message.data(), message.size());
}

Status TcpTransport::send_vec(std::span<const ByteSpan> parts) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return unavailable("transport closed");
  // The engine sends 3 parts, so a small fixed iovec array (parts +
  // length prefix) covers every caller.
  constexpr std::size_t kMaxParts = 15;
  if (parts.size() > kMaxParts) return Transport::send_vec(parts);
  std::size_t total = 0;
  for (const ByteSpan& part : parts) total += part.size();
  if (total > kMaxTcpMessageBytes) {
    return invalid_argument("message exceeds frame limit");
  }
  Byte header[4];
  store_le32(header, static_cast<std::uint32_t>(total));
  iovec iov[kMaxParts + 1];
  std::size_t iov_count = 0;
  iov[iov_count++] = {header, sizeof header};
  for (const ByteSpan& part : parts) {
    if (part.empty()) continue;
    iov[iov_count++] = {const_cast<Byte*>(part.data()), part.size()};
  }
  std::size_t remaining = sizeof header + total;
  std::size_t first = 0;
  while (remaining > 0) {
    // sendmsg rather than writev: MSG_NOSIGNAL turns a reset peer into
    // EPIPE instead of a process-killing SIGPIPE, as write_all does.
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = iov_count - first;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("sendmsg");
    }
    remaining -= static_cast<std::size_t>(n);
    // Advance past fully-written iovecs; trim a partially-written one.
    auto done = static_cast<std::size_t>(n);
    while (first < iov_count && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (first < iov_count && done > 0) {
      iov[first].iov_base = static_cast<Byte*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
  return Status::ok();
}

Result<Bytes> TcpTransport::recv() { return recv_until(std::nullopt); }

Result<Bytes> TcpTransport::recv_for(std::chrono::milliseconds timeout) {
  return recv_until(std::chrono::steady_clock::now() + timeout);
}

Result<Bytes> TcpTransport::recv_until(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return unavailable("transport closed");
  for (;;) {
    // The deadline covers the *whole* frame, not just its first byte: a
    // peer that stalls mid-message surfaces as kTimeout, and the partial
    // frame stays parked in the reassembly members for the next call.
    if (deadline.has_value()) {
      // ceil, not cast: truncation would let poll wake a fraction of a
      // millisecond before the deadline and report a spurious timeout.
      const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return timeout_error("tcp recv timed out");
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (rc < 0) {
        if (errno == EINTR) continue;  // re-derive the remaining budget
        return errno_status("poll");
      }
      if (rc == 0) return timeout_error("tcp recv timed out");
    }
    Byte* dst;
    std::size_t want;
    if (!in_payload_) {
      dst = header_ + header_fill_;
      want = sizeof header_ - header_fill_;
    } else {
      dst = payload_.data() + payload_fill_;
      want = payload_.size() - payload_fill_;
    }
    ssize_t n = 0;
    if (want > 0) {
      n = ::recv(fd, dst, want, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno_status("recv");
      }
      if (n == 0) {
        return (header_fill_ == 0 && !in_payload_)
                   ? unavailable("peer closed connection")
                   : corruption("peer closed mid-message");
      }
    }
    if (!in_payload_) {
      header_fill_ += static_cast<std::size_t>(n);
      if (header_fill_ < sizeof header_) continue;
      const std::uint32_t len = load_le32(header_);
      if (len > kMaxTcpMessageBytes) {
        return corruption("frame length " + std::to_string(len) +
                          " exceeds limit");
      }
      payload_.resize(len);
      payload_fill_ = 0;
      in_payload_ = true;
      if (len > 0) continue;
    } else {
      payload_fill_ += static_cast<std::size_t>(n);
      if (payload_fill_ < payload_.size()) continue;
    }
    Bytes message = std::move(payload_);
    payload_ = Bytes();
    payload_fill_ = 0;
    header_fill_ = 0;
    in_payload_ = false;
    return message;
  }
}

void TcpTransport::close() {
  // Shutdown only: a concurrent recv()/send() may be blocked inside a
  // syscall on this descriptor, and ::close()ing it here would let the fd
  // number be reused under them.  shutdown() wakes them with EOF; the
  // descriptor itself is released by the destructor.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

std::string TcpTransport::describe() const { return "tcp"; }

Result<std::unique_ptr<TcpListener>> TcpListener::listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status s = errno_status("bind port " + std::to_string(port));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 16) != 0) {
    Status s = errno_status("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status s = errno_status("getsockname");
    ::close(fd);
    return s;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

TcpListener::~TcpListener() {
  close();
  if (owned_fd_ >= 0) ::close(owned_fd_);
}

Result<std::unique_ptr<Transport>> TcpListener::accept() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return unavailable("listener closed");
  int client;
  for (;;) {
    client = ::accept(fd, nullptr, nullptr);
    if (client >= 0) break;
    // EINTR: a signal landed mid-accept.  ECONNABORTED: the peer gave up
    // while queued — neither says anything about the *next* connection.
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EINVAL || errno == EBADF) {
      return unavailable("listener closed");
    }
    return errno_status("accept");
  }
  return std::unique_ptr<Transport>(std::make_unique<TcpTransport>(client));
}

void TcpListener::close() {
  // Shutdown only (wakes a blocked accept() with EINVAL); the descriptor
  // is released by the destructor so the accept thread can never see its
  // fd number reused mid-call.
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace prins
