#include "net/reactor_tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <optional>

#include "common/endian.h"
#include "common/logging.h"

namespace prins {
namespace {

// writev() caps the iovec count; callers send at most a handful of parts
// (the engine 3, iSCSI 3), so a small fixed array plus the length prefix
// covers them.  More parts fall back to one contiguous copy.
constexpr std::size_t kMaxSendParts = 15;

Status errno_status(const std::string& what) {
  return io_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// writev without SIGPIPE: a peer that reset the connection surfaces as
/// EPIPE, which the state machine turns into a failed transport.
ssize_t write_iov(int fd, iovec* iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

void apply_socket_options(int fd, const ReactorTcpOptions& options) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (options.sndbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.sndbuf_bytes,
                 sizeof options.sndbuf_bytes);
  }
  if (options.rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options.rcvbuf_bytes,
                 sizeof options.rcvbuf_bytes);
  }
}

}  // namespace

// ---- per-connection state machine ------------------------------------------

struct ReactorTcpTransport::Conn : std::enable_shared_from_this<Conn> {
  using Clock = Reactor::Clock;

  Conn(std::shared_ptr<Reactor> r, int fd_in, const ReactorTcpOptions& opts)
      : reactor(std::move(r)), fd(fd_in), options(opts) {}

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  std::shared_ptr<Reactor> reactor;
  int fd;
  const ReactorTcpOptions options;

  std::mutex mutex;
  std::condition_variable can_recv;
  std::condition_variable can_send;

  // Read-side state machine: header, then payload, across any number of
  // readiness events.
  Byte header[4] = {0, 0, 0, 0};
  std::size_t header_fill = 0;
  Bytes payload;  // sized once the header completes
  std::size_t payload_fill = 0;
  bool in_payload = false;

  std::deque<Bytes> inbox;
  std::function<void(Bytes&&)> handler;  // non-null: bypass the inbox
  std::function<void(const Status&)> close_handler;  // one-shot, via post()
  bool paused_inbox = false;             // inbox at capacity
  bool paused_outbox = false;            // handler mode: outbox over limit
  bool paused_user = false;              // set_read_paused() gate
  // A blocked receiver is reading the socket itself (EPOLLIN is off and the
  // loop leaves the read side alone until it is done).
  bool direct_reader = false;
  bool close_deferred = false;  // the direct reader closes the fd when done

  // Write-side state machine: owned frames; the head may be partially on
  // the wire (out_off bytes of it already written).
  std::deque<Bytes> outq;
  std::size_t out_off = 0;
  std::size_t out_bytes = 0;
  bool write_armed = false;

  bool closed = false;     // state machine halted (EOF, error, or close())
  bool removed = false;    // fd dropped from the epoll set
  Status error;            // why, when not a clean close
  bool eof_mid_frame = false;

  // ---- helpers; all called with `mutex` held --------------------------------

  bool read_gate_open() const {
    return !paused_inbox && !paused_outbox && !paused_user;
  }

  std::uint32_t interest() const {
    std::uint32_t events = 0;
    if (read_gate_open() && !direct_reader) events |= EPOLLIN;
    if (write_armed) events |= EPOLLOUT;
    return events;
  }

  void update_interest() {
    if (closed || fd < 0) return;
    (void)reactor->mod_fd(fd, interest());
  }

  /// Halt the machine and wake every waiter.  Idempotent.
  void fail_locked(Status why, bool mid_frame) {
    if (closed) return;
    closed = true;
    if (error.is_ok()) error = std::move(why);
    eof_mid_frame = mid_frame;
    outq.clear();
    out_bytes = 0;
    can_recv.notify_all();
    can_send.notify_all();
    fire_close_handler_locked();
    schedule_remove();
  }

  /// Consume and post the close handler, if installed.  `mutex` held.
  void fire_close_handler_locked() {
    if (!close_handler) return;
    reactor->post(
        [cb = std::move(close_handler), status = error]() { cb(status); });
    close_handler = nullptr;
  }

  /// Drop the fd from the loop on the loop thread (dispatch for this fd
  /// may be in flight right now; posted closures run after it).
  void schedule_remove() {
    if (removed) return;
    removed = true;
    reactor->post([self = shared_from_this()] {
      std::lock_guard lock(self->mutex);
      if (self->fd < 0) return;
      self->reactor->remove_fd(self->fd);
      if (self->direct_reader) {
        // Its poll() still holds the fd: closing it now could hand the
        // number to a new socket under it.
        self->close_deferred = true;
        return;
      }
      ::close(self->fd);
      self->fd = -1;
    });
  }

  /// Flush the outbox with writev until EAGAIN or empty; arms/disarms
  /// EPOLLOUT to match.  Any thread, `mutex` held.
  void flush_locked() {
    constexpr std::size_t kMaxIov = 16;
    while (!outq.empty() && !closed && fd >= 0) {
      iovec iov[kMaxIov];
      std::size_t iov_count = 0;
      std::size_t offset = out_off;
      for (const Bytes& frame : outq) {
        if (iov_count == kMaxIov) break;
        iov[iov_count].iov_base =
            const_cast<Byte*>(frame.data()) + offset;
        iov[iov_count].iov_len = frame.size() - offset;
        ++iov_count;
        offset = 0;
      }
      const ssize_t n = write_iov(fd, iov, iov_count);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        fail_locked(errno_status("writev"), false);
        return;
      }
      // Advance the queue past what the kernel took; the head frame
      // resumes from out_off on the next readiness event.
      std::size_t done = static_cast<std::size_t>(n);
      out_bytes -= done;
      while (done > 0 && !outq.empty()) {
        const std::size_t head_left = outq.front().size() - out_off;
        if (done >= head_left) {
          done -= head_left;
          out_off = 0;
          outq.pop_front();
        } else {
          out_off += done;
          done = 0;
        }
      }
    }
    const bool want_write = !outq.empty() && !closed;
    const bool resume_reads =
        paused_outbox && out_bytes <= options.outbox_limit_bytes / 2;
    if (resume_reads) {
      paused_outbox = false;
      can_recv.notify_all();  // a blocked receiver may read directly again
    }
    if (want_write != write_armed || resume_reads) {
      write_armed = want_write;
      update_interest();
    }
    if (out_bytes < options.outbox_limit_bytes) can_send.notify_all();
  }

  /// One completed inbound frame.  Called with `mutex` held; may drop the
  /// lock to run a handler.
  void deliver_locked(std::unique_lock<std::mutex>& lock, Bytes&& message) {
    if (handler) {
      {
        auto h = handler;  // survives a concurrent set_message_handler
        lock.unlock();
        h(std::move(message));
        // `h` dies here, unlocked: after a concurrent set_message_handler
        // it may hold the last reference to this connection's transport,
        // whose destructor takes `mutex` to close it.
      }
      lock.lock();
      // Handler sends queue without blocking; pause reading while the
      // outbox is over its limit so a slow peer backpressures us.
      if (out_bytes > options.outbox_limit_bytes && !paused_outbox) {
        paused_outbox = true;
        update_interest();
      }
      return;
    }
    inbox.push_back(std::move(message));
    if (inbox.size() >= options.inbox_capacity && !paused_inbox) {
      paused_inbox = true;
      update_interest();
    }
    can_recv.notify_one();
  }

  /// Read-side pump: the loop thread (`direct` false) or the blocked
  /// receiver that owns the read side (`direct` true).  The loop stops as
  /// soon as a direct reader takes over, even mid-pump: a handler it ran
  /// with the lock dropped may have been swapped out for inbox delivery.
  void on_readable(std::unique_lock<std::mutex>& lock, bool direct = false) {
    // Fairness budget: with level-triggered epoll, anything unread is
    // reported again, so cap the work one connection does per wake.
    std::size_t budget = 1u << 20;
    while (!closed && read_gate_open() && direct == direct_reader &&
           budget > 0) {
      Byte* dst;
      std::size_t want;
      if (!in_payload) {
        dst = header + header_fill;
        want = sizeof header - header_fill;
      } else {
        dst = payload.data() + payload_fill;
        want = payload.size() - payload_fill;
      }
      ssize_t n = 0;
      if (want > 0) {
        n = ::recv(fd, dst, std::min(want, budget), 0);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          fail_locked(errno_status("recv"), false);
          return;
        }
        if (n == 0) {
          const bool mid = header_fill > 0 || in_payload;
          fail_locked(mid ? corruption("peer closed mid-message")
                          : unavailable("peer closed connection"),
                      mid);
          return;
        }
        budget -= static_cast<std::size_t>(n);
      }
      if (!in_payload) {
        header_fill += static_cast<std::size_t>(n);
        if (header_fill < sizeof header) continue;
        const std::uint32_t len = load_le32(header);
        if (len > kMaxTcpMessageBytes) {
          fail_locked(corruption("frame length " + std::to_string(len) +
                                 " exceeds limit"),
                      true);
          return;
        }
        payload.resize(len);
        payload_fill = 0;
        in_payload = true;
        if (len > 0) continue;  // read the payload next
      } else {
        payload_fill += static_cast<std::size_t>(n);
        if (payload_fill < payload.size()) continue;
      }
      // Frame complete: reset the machine, hand the message off.
      Bytes message = std::move(payload);
      payload = Bytes();
      payload_fill = 0;
      header_fill = 0;
      in_payload = false;
      deliver_locked(lock, std::move(message));
    }
  }

  /// epoll dispatch: loop thread only.  An EPOLLIN collected before a
  /// direct reader cleared the interest is stale; on_readable skips it, and
  /// the reader's own poll() sees HUP and ERR.
  void on_events(std::uint32_t events) {
    std::unique_lock lock(mutex);
    if (fd < 0) return;
    if (events & EPOLLOUT) flush_locked();
    if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(lock);
  }

  /// Blocking receive for inbox delivery.  Rather than sleep until the
  /// loop reads the socket and hands the frame over through `can_recv`,
  /// the caller reads it itself: one receiver at a time owns the read side
  /// (the others wait on `can_recv`), EPOLLIN is off while it does, and
  /// the deadline is its poll() timeout.
  Result<Bytes> receive(std::optional<Clock::time_point> deadline) {
    std::unique_lock lock(mutex);
    bool expired = false;
    for (;;) {
      if (!inbox.empty()) return take();
      if (closed) return drained_status();
      if (expired) return timeout_error("reactor-tcp recv timed out");
      if (!direct_reader && !handler && read_gate_open()) {
        expired = !read_directly(lock, deadline);
      } else if (!deadline) {
        can_recv.wait(lock);
      } else {
        expired = can_recv.wait_until(lock, *deadline) ==
                  std::cv_status::timeout;
      }
    }
  }

  /// One poll()-then-read turn as the direct reader.  False when the
  /// deadline passed with nothing readable.  `mutex` held on entry and
  /// exit, dropped across poll().
  bool read_directly(std::unique_lock<std::mutex>& lock,
                     std::optional<Clock::time_point> deadline) {
    direct_reader = true;
    update_interest();
    const int sock = fd;  // stays open: its close is deferred to us
    int timeout_ms = -1;
    if (deadline) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - Clock::now());
      timeout_ms = static_cast<int>(
          std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
    }
    lock.unlock();
    pollfd waiter{sock, POLLIN, 0};
    const int ready = ::poll(&waiter, 1, timeout_ms);
    lock.lock();
    // Handlers run on the loop thread only: one installed while we were
    // parked gets the bytes from the loop once EPOLLIN is back.
    if (ready > 0 && !handler) on_readable(lock, /*direct=*/true);
    direct_reader = false;
    if (close_deferred) {  // already off the loop; nothing else holds it
      ::close(fd);
      fd = -1;
    }
    update_interest();
    can_recv.notify_all();  // the read side is free for the next receiver
    return ready != 0;
  }

  /// Send one framed message of at most kMaxSendParts parts; blocks
  /// off-loop callers on flow control.  With the outbox empty the length
  /// prefix and the caller's parts go straight to the socket in one
  /// writev; only what the kernel did not take is copied, into an owned
  /// frame the loop finishes on EPOLLOUT.
  /// With frames already queued the whole message queues behind them, so
  /// frame order holds either way.
  Status enqueue(std::span<const ByteSpan> parts) {
    std::size_t total = 0;
    for (const ByteSpan& part : parts) total += part.size();
    if (total > kMaxTcpMessageBytes) {
      return invalid_argument("message exceeds frame limit");
    }
    Byte prefix[4];
    store_le32(prefix, static_cast<std::uint32_t>(total));
    iovec iov[kMaxSendParts + 1];
    std::size_t iov_count = 0;
    iov[iov_count++] = {prefix, sizeof prefix};
    for (const ByteSpan& part : parts) {
      if (part.empty()) continue;
      iov[iov_count++] = {const_cast<Byte*>(part.data()), part.size()};
    }

    std::unique_lock lock(mutex);
    if (!reactor->on_loop_thread()) {
      can_send.wait(lock, [this] {
        return closed || out_bytes < options.outbox_limit_bytes;
      });
    }
    if (closed) return closed_status();
    std::size_t first = 0;  // iov[first..] is what the socket has not taken
    if (outq.empty()) {
      while (first < iov_count) {
        const ssize_t n = write_iov(fd, iov + first, iov_count - first);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          fail_locked(errno_status("writev"), false);
          return closed_status();
        }
        // Step past fully written iovecs; trim a partially written one.
        auto done = static_cast<std::size_t>(n);
        while (first < iov_count && done >= iov[first].iov_len) {
          done -= iov[first].iov_len;
          ++first;
        }
        if (done > 0) {
          iov[first].iov_base = static_cast<Byte*>(iov[first].iov_base) + done;
          iov[first].iov_len -= done;
        }
      }
      if (first == iov_count) return Status::ok();
    }
    std::size_t tail = 0;
    for (std::size_t i = first; i < iov_count; ++i) tail += iov[i].iov_len;
    Bytes frame;
    frame.reserve(tail);
    for (std::size_t i = first; i < iov_count; ++i) {
      append(frame, ByteSpan(static_cast<const Byte*>(iov[i].iov_base),
                             iov[i].iov_len));
    }
    out_bytes += frame.size();
    outq.push_back(std::move(frame));
    flush_locked();
    return Status::ok();
  }

  Status closed_status() const {  // `mutex` held
    return error.is_ok() ? unavailable("transport closed") : error;
  }

  Result<Bytes> take() {  // `mutex` held
    Bytes message = std::move(inbox.front());
    inbox.pop_front();
    if (paused_inbox && inbox.size() <= options.inbox_capacity / 2) {
      paused_inbox = false;
      update_interest();
    }
    return message;
  }

  Result<Bytes> drained_status() const {
    if (eof_mid_frame || error.code() == ErrorCode::kCorruption) return error;
    return error.is_ok() ? unavailable("transport closed") : error;
  }
};

// ---- ReactorTcpTransport ---------------------------------------------------

ReactorTcpTransport::ReactorTcpTransport(std::shared_ptr<Conn> conn)
    : conn_(std::move(conn)) {}

ReactorTcpTransport::~ReactorTcpTransport() { close(); }

Result<std::unique_ptr<Transport>> ReactorTcpTransport::adopt(
    std::shared_ptr<Reactor> reactor, int fd,
    const ReactorTcpOptions& options) {
  set_nonblocking(fd);
  apply_socket_options(fd, options);
  auto conn = std::make_shared<Conn>(std::move(reactor), fd, options);
  const Status added = conn->reactor->add_fd(
      fd, conn->interest(),
      [conn](std::uint32_t events) { conn->on_events(events); });
  if (!added.is_ok()) {
    return added;  // conn's destructor closes the fd
  }
  return std::unique_ptr<Transport>(
      new ReactorTcpTransport(std::move(conn)));
}

Result<std::unique_ptr<Transport>> ReactorTcpTransport::connect(
    std::shared_ptr<Reactor> reactor, const std::string& host,
    std::uint16_t port, const ReactorTcpOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_status("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return invalid_argument("bad IPv4 address: " + host);
  }
  // Blocking connect, then the established socket goes nonblocking onto
  // the loop.
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status s = errno_status("connect " + ip + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  return adopt(std::move(reactor), fd, options);
}

Status ReactorTcpTransport::send(ByteSpan message) {
  const ByteSpan parts[] = {message};
  return conn_->enqueue(parts);
}

Status ReactorTcpTransport::send_vec(std::span<const ByteSpan> parts) {
  if (parts.size() > kMaxSendParts) return Transport::send_vec(parts);
  return conn_->enqueue(parts);
}

Result<Bytes> ReactorTcpTransport::recv() {
  return conn_->receive(std::nullopt);
}

Result<Bytes> ReactorTcpTransport::recv_for(std::chrono::milliseconds timeout) {
  return conn_->receive(Conn::Clock::now() + timeout);
}

void ReactorTcpTransport::close() {
  std::lock_guard lock(conn_->mutex);
  if (conn_->fd >= 0) ::shutdown(conn_->fd, SHUT_RDWR);
  conn_->fail_locked(unavailable("transport closed"), false);
}

std::string ReactorTcpTransport::describe() const { return "reactor-tcp"; }

void ReactorTcpTransport::set_message_handler(
    std::function<void(Bytes&&)> handler) {
  std::deque<Bytes> backlog;
  {
    std::lock_guard lock(conn_->mutex);
    conn_->handler = std::move(handler);
    if (conn_->handler) backlog.swap(conn_->inbox);
    if (conn_->paused_inbox && conn_->inbox.empty()) {
      conn_->paused_inbox = false;
      conn_->update_interest();
    }
    // Back to inbox delivery: a blocked receiver may read directly again.
    if (!conn_->handler) conn_->can_recv.notify_all();
  }
  if (backlog.empty()) return;
  // Deliver the queued backlog on the loop thread, preserving order with
  // frames the loop completes next.
  conn_->reactor->post([conn = conn_, backlog = std::move(backlog)]() mutable {
    for (Bytes& message : backlog) {
      std::unique_lock lock(conn->mutex);
      if (!conn->handler) {
        conn->inbox.push_back(std::move(message));
        conn->can_recv.notify_one();
        continue;
      }
      conn->deliver_locked(lock, std::move(message));
    }
  });
}

void ReactorTcpTransport::set_close_handler(
    std::function<void(const Status&)> handler) {
  std::lock_guard lock(conn_->mutex);
  conn_->close_handler = std::move(handler);
  if (conn_->closed) conn_->fire_close_handler_locked();
}

void ReactorTcpTransport::set_read_paused(bool paused) {
  std::lock_guard lock(conn_->mutex);
  if (conn_->paused_user == paused) return;
  conn_->paused_user = paused;
  conn_->update_interest();
  if (!paused) conn_->can_recv.notify_all();
}

std::size_t ReactorTcpTransport::outbox_bytes() const {
  std::lock_guard lock(conn_->mutex);
  return conn_->out_bytes;
}

// ---- ReactorListener -------------------------------------------------------

struct ReactorListener::State : std::enable_shared_from_this<State> {
  State(std::shared_ptr<ReactorPool> p, int fd_in, std::uint16_t port_in,
        const ReactorTcpOptions& opts)
      : pool(std::move(p)), fd(fd_in), port(port_in), options(opts) {}

  ~State() {
    if (fd >= 0) ::close(fd);
  }

  std::shared_ptr<ReactorPool> pool;
  int fd;
  const std::uint16_t port;
  const ReactorTcpOptions options;

  std::mutex mutex;
  std::condition_variable can_accept;
  std::deque<std::unique_ptr<Transport>> pending;
  std::function<void(std::unique_ptr<Transport>)> accept_handler;
  bool drain_scheduled = false;  // posted backlog drain in flight
  bool closed = false;
  bool removed = false;

  /// Accept-readiness pump: loop thread of pool->at(0).
  void on_acceptable() {
    for (;;) {
      const int client =
          ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (client < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        PRINS_LOG(kWarn) << "reactor accept: " << std::strerror(errno);
        return;
      }
      auto transport = ReactorTcpTransport::adopt(
          pool->next().shared_from_this(), client, options);
      if (!transport.is_ok()) {
        PRINS_LOG(kWarn) << "reactor adopt: "
                         << transport.status().to_string();
        continue;
      }
      std::unique_lock lock(mutex);
      if (closed) return;  // racing close(): drop the connection
      if (accept_handler && pending.empty() && !drain_scheduled) {
        auto h = accept_handler;
        lock.unlock();
        h(std::move(*transport));
        continue;
      }
      // No handler, or a backlog drain is still queued: keep arrival order
      // by routing through `pending`.
      pending.push_back(std::move(*transport));
      if (accept_handler) {
        schedule_drain_locked();
      } else {
        can_accept.notify_one();
      }
    }
  }

  /// Queue a one-shot drain of `pending` into the accept handler on the
  /// accept loop's thread.  `mutex` held.
  void schedule_drain_locked() {
    if (drain_scheduled) return;
    drain_scheduled = true;
    pool->at(0).shared_from_this()->post(
        [self = shared_from_this()] { self->drain_pending(); });
  }

  /// Hand queued connections to the accept handler, oldest first.
  void drain_pending() {
    for (;;) {
      std::unique_lock lock(mutex);
      if (pending.empty() || !accept_handler || closed) {
        drain_scheduled = false;
        return;
      }
      auto h = accept_handler;
      auto t = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      h(std::move(t));
    }
  }
};

ReactorListener::ReactorListener(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

ReactorListener::~ReactorListener() { close(); }

Result<std::unique_ptr<ReactorListener>> ReactorListener::listen(
    std::shared_ptr<ReactorPool> pool, std::uint16_t port,
    const ReactorTcpOptions& options) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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
  if (::listen(fd, 256) != 0) {
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
  auto state = std::make_shared<State>(std::move(pool), fd,
                                       ntohs(addr.sin_port), options);
  const Status added = state->pool->at(0).shared_from_this()->add_fd(
      fd, EPOLLIN, [state](std::uint32_t) { state->on_acceptable(); });
  if (!added.is_ok()) return added;
  return std::unique_ptr<ReactorListener>(
      new ReactorListener(std::move(state)));
}

Result<std::unique_ptr<Transport>> ReactorListener::accept() {
  std::unique_lock lock(state_->mutex);
  state_->can_accept.wait(
      lock, [this] { return !state_->pending.empty() || state_->closed; });
  if (!state_->pending.empty()) {
    auto t = std::move(state_->pending.front());
    state_->pending.pop_front();
    return t;
  }
  return unavailable("listener closed");
}

void ReactorListener::close() {
  std::lock_guard lock(state_->mutex);
  if (state_->closed) return;
  state_->closed = true;
  state_->pending.clear();
  state_->can_accept.notify_all();
  if (!state_->removed) {
    state_->removed = true;
    state_->pool->at(0).shared_from_this()->post(
        [state = state_]() {
          std::lock_guard lock(state->mutex);
          if (state->fd >= 0) {
            state->pool->at(0).shared_from_this()->remove_fd(state->fd);
            ::close(state->fd);
            state->fd = -1;
          }
        });
  }
}

void ReactorListener::set_accept_handler(
    std::function<void(std::unique_ptr<Transport>)> handler) {
  std::lock_guard lock(state_->mutex);
  state_->accept_handler = std::move(handler);
  if (state_->accept_handler && !state_->pending.empty()) {
    state_->schedule_drain_locked();
  }
}

std::uint16_t ReactorListener::port() const { return state_->port; }

}  // namespace prins
