// Tests for the event-driven transport substrate: the TimerWheel in
// isolation (caller-supplied clock, fully deterministic), the Reactor loop
// (timers, posts, fd dispatch), and ReactorTcpTransport's per-connection
// state machines — partial-write resume (the outbox flush, and a direct
// write whose unsent tail finishes through the outbox), blocked receivers
// reading their own socket (deadlines, serialized readers, the hand-back
// to a message handler, a one-CPU lost-wakeup soak), a 256-connection echo
// soak through the handler path, a reconnect storm under
// FaultyListener-injected disconnects, and the socket edge cases: a
// mid-frame stall, peer close, a send to a gone peer, a refused connect,
// and a bad address.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "block/mem_disk.h"
#include "common/endian.h"
#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "prins/engine.h"
#include "prins/replica.h"

namespace prins {
namespace {

using namespace std::chrono_literals;

Bytes message(std::string_view s) { return to_bytes(as_bytes(s)); }

// Wait for `done` to become true without hammering the CPU; returns false
// on timeout so tests fail with an assertion instead of hanging ctest.
bool await(const std::function<bool()>& done,
           std::chrono::milliseconds limit = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// ---- TimerWheel (simulated time) -------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  TimerWheel wheel;
  const auto t0 = TimerWheel::Clock::now();
  std::vector<int> fired;
  // Scheduled out of order, including two in the same tick.
  wheel.schedule_at(t0 + 30ms, [&] { fired.push_back(3); });
  wheel.schedule_at(t0 + 10ms, [&] { fired.push_back(1); });
  wheel.schedule_at(t0 + 20ms, [&] { fired.push_back(2); });
  wheel.schedule_at(t0 + 20ms, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 4u);

  std::vector<std::function<void()>> due;
  EXPECT_EQ(wheel.collect_due(t0 + 5ms, due), 0u);
  EXPECT_EQ(wheel.collect_due(t0 + 15ms, due), 1u);
  EXPECT_EQ(wheel.collect_due(t0 + 60ms, due), 3u);
  for (auto& cb : due) cb();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelRemovesPendingEntry) {
  TimerWheel wheel;
  const auto t0 = TimerWheel::Clock::now();
  bool fired = false;
  const TimerId id = wheel.schedule_at(t0 + 10ms, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // second cancel is a no-op
  std::vector<std::function<void()>> due;
  EXPECT_EQ(wheel.collect_due(t0 + 1h, due), 0u);
  EXPECT_FALSE(fired);
}

TEST(TimerWheelTest, BeyondHorizonEntriesWaitFullRounds) {
  // Default geometry is 256 slots of 1ms: a 300ms deadline hashes to a
  // slot the cursor passes long before the deadline.  The round count must
  // keep it parked on the first pass.
  TimerWheel wheel;
  const auto t0 = TimerWheel::Clock::now();
  bool fired = false;
  wheel.schedule_at(t0 + 300ms, [&] { fired = true; });
  std::vector<std::function<void()>> due;
  EXPECT_EQ(wheel.collect_due(t0 + 290ms, due), 0u);
  EXPECT_EQ(wheel.collect_due(t0 + 320ms, due), 1u);
  for (auto& cb : due) cb();
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, NextDeadlineTracksEarliest) {
  TimerWheel wheel;
  const auto t0 = TimerWheel::Clock::now();
  EXPECT_FALSE(wheel.next_deadline().has_value());
  wheel.schedule_at(t0 + 50ms, [] {});
  const TimerId early = wheel.schedule_at(t0 + 10ms, [] {});
  ASSERT_TRUE(wheel.next_deadline().has_value());
  EXPECT_EQ(*wheel.next_deadline(), t0 + 10ms);
  wheel.cancel(early);
  EXPECT_EQ(*wheel.next_deadline(), t0 + 50ms);
}

TEST(TimerWheelTest, PastDeadlineFiresOnNextCollect) {
  TimerWheel wheel;
  const auto t0 = TimerWheel::Clock::now();
  std::vector<std::function<void()>> due;
  ASSERT_EQ(wheel.collect_due(t0 + 40ms, due), 0u);  // advance the cursor
  wheel.schedule_at(t0 + 5ms, [] {});                // already in the past
  EXPECT_EQ(wheel.collect_due(t0 + 41ms, due), 1u);
}

TEST(TimerWheelTest, NeverFiresBeforeItsDeadline) {
  // A deadline partway through a tick: collecting earlier in that tick
  // must leave it pending.
  TimerWheel wheel;
  const auto t0 = TimerWheel::Clock::now();
  wheel.schedule_at(t0 + 10ms + 600us, [] {});
  std::vector<std::function<void()>> due;
  EXPECT_EQ(wheel.collect_due(t0 + 10ms + 300us, due), 0u);
  EXPECT_EQ(wheel.collect_due(t0 + 10ms + 700us, due), 1u);
}

TEST(TimerWheelTest, EntryScheduledLaterInTheCurrentTickStillFires) {
  // Collecting partway through a tick must not move the cursor past it:
  // an entry scheduled for later in the same tick fires once due, not a
  // tick later (a reactor would spin on its past deadline meanwhile).
  TimerWheel wheel;
  const auto t0 = TimerWheel::Clock::now();
  wheel.schedule_at(t0 + 10ms, [] {});
  std::vector<std::function<void()>> due;
  EXPECT_EQ(wheel.collect_due(t0 + 10ms + 200us, due), 1u);
  wheel.schedule_at(t0 + 10ms + 500us, [] {});
  EXPECT_EQ(wheel.collect_due(t0 + 10ms + 600us, due), 1u);
  EXPECT_EQ(wheel.pending(), 0u);
}

// ---- Reactor (live loop) ---------------------------------------------------

TEST(ReactorTest, TimersFireInOrderOnLoopThread) {
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok()) << reactor.status().to_string();
  std::mutex m;
  std::vector<int> order;
  std::atomic<bool> on_loop{false};
  (*reactor)->add_timer(30ms, [&] {
    std::lock_guard lock(m);
    order.push_back(3);
  });
  (*reactor)->add_timer(5ms, [&] {
    on_loop = (*reactor)->on_loop_thread();
    std::lock_guard lock(m);
    order.push_back(1);
  });
  (*reactor)->add_timer(15ms, [&] {
    std::lock_guard lock(m);
    order.push_back(2);
  });
  ASSERT_TRUE(await([&] {
    std::lock_guard lock(m);
    return order.size() == 3;
  }));
  std::lock_guard lock(m);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(on_loop);
  EXPECT_EQ((*reactor)->pending_timers(), 0u);
}

TEST(ReactorTest, CancelTimerPreventsFire) {
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  std::atomic<bool> cancelled_fired{false};
  std::atomic<bool> sentinel_fired{false};
  const TimerId id =
      (*reactor)->add_timer(40ms, [&] { cancelled_fired = true; });
  EXPECT_TRUE((*reactor)->cancel_timer(id));
  (*reactor)->add_timer(60ms, [&] { sentinel_fired = true; });
  ASSERT_TRUE(await([&] { return sentinel_fired.load(); }));
  EXPECT_FALSE(cancelled_fired.load());
}

TEST(ReactorTest, PostRunsClosureOnLoopThread) {
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  (*reactor)->post([&] {
    on_loop = (*reactor)->on_loop_thread();
    ran = true;
  });
  ASSERT_TRUE(await([&] { return ran.load(); }));
  EXPECT_TRUE(on_loop.load());
  EXPECT_FALSE((*reactor)->on_loop_thread());
}

// ---- ReactorTcpTransport ---------------------------------------------------

TEST(ReactorTcpTest, RoundTripOverLoopback) {
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    for (;;) {
      auto got = (*conn)->recv();
      if (!got.is_ok()) break;
      ASSERT_TRUE((*conn)->send(*got).is_ok());
    }
  });

  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  EXPECT_EQ((*client)->describe(), "reactor-tcp");

  // Small, empty, and multi-MB messages survive the incremental framing.
  Rng rng(1);
  for (std::size_t n : {0ul, 1ul, 100ul, 70000ul, 3000000ul}) {
    Bytes data(n);
    rng.fill(data);
    ASSERT_TRUE((*client)->send(data).is_ok()) << n;
    auto got = (*client)->recv();
    ASSERT_TRUE(got.is_ok()) << n << ": " << got.status().to_string();
    EXPECT_EQ(*got, data) << n;
  }
  (*client)->close();
  server.join();
}

TEST(ReactorTcpTest, PartialWriteResumesUnderTinySndbuf) {
  // A 4 KiB send buffer forces writev to take frames in slivers; the state
  // machine must resume the head frame at its offset on each EPOLLOUT.
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    for (int i = 0; i < 8; ++i) {
      auto got = (*conn)->recv();
      ASSERT_TRUE(got.is_ok());
      ASSERT_TRUE((*conn)->send(*got).is_ok());
    }
  });

  ReactorTcpOptions tiny;
  tiny.sndbuf_bytes = 4096;
  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port(),
      tiny);
  ASSERT_TRUE(client.is_ok());

  Rng rng(7);
  std::vector<Bytes> sent;
  for (int i = 0; i < 8; ++i) {
    Bytes data(512 * 1024 + i);  // frames straddle many sndbuf windows
    rng.fill(data);
    ASSERT_TRUE((*client)->send(data).is_ok());
    sent.push_back(std::move(data));
  }
  for (int i = 0; i < 8; ++i) {
    auto got = (*client)->recv();
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(*got, sent[i]) << i;
  }
  (*client)->close();
  server.join();
}

TEST(ReactorTcpTest, DirectWriteTailFinishesThroughTheOutbox) {
  // send_vec writes a frame's parts straight to the socket while the
  // outbox is empty and copies only the unsent tail.  Tiny socket buffers
  // and a reader that stalls, then drains, make direct writes stop part
  // way through frames of every size; several senders interleave.  Every
  // frame must arrive byte-exact and in per-sender order.
  constexpr std::uint32_t kSenders = 4;
  constexpr std::uint32_t kFrames = 32;
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  ReactorTcpOptions tiny;
  tiny.sndbuf_bytes = 4096;
  tiny.outbox_limit_bytes = 256 * 1024;
  auto listener = ReactorListener::listen(*pool, 0, tiny);
  ASSERT_TRUE(listener.is_ok());
  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port(),
      tiny);
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());
  auto* rt = dynamic_cast<ReactorTcpTransport*>(client->get());
  ASSERT_NE(rt, nullptr);

  // Frame (sender, seq): an 8-byte tag part, then 1-3 body parts whose
  // sizes run from 64 B to well past the socket buffer, all derived from
  // (sender, seq) so the reader can rebuild the expected bytes.
  const auto make_parts = [](std::uint32_t sender, std::uint32_t seq) {
    static constexpr std::size_t kSizes[] = {64, 700, 4096, 9000, 70000};
    Rng rng(sender * 1000 + seq + 1);
    std::vector<Bytes> parts(1, Bytes(8));
    store_le32(MutByteSpan(parts[0]).first(4), sender);
    store_le32(MutByteSpan(parts[0]).subspan(4, 4), seq);
    const std::size_t bodies = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < bodies; ++i) {
      parts.emplace_back(kSizes[rng.next_below(std::size(kSizes))]);
      rng.fill(parts.back());
    }
    return parts;
  };

  std::atomic<bool> saw_queued_tail{false};
  std::vector<std::thread> senders;
  for (std::uint32_t sender = 0; sender < kSenders; ++sender) {
    senders.emplace_back([&, sender] {
      for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
        const std::vector<Bytes> parts = make_parts(sender, seq);
        std::vector<ByteSpan> spans(parts.begin(), parts.end());
        ASSERT_TRUE((*client)->send_vec(spans).is_ok());
        if (rt->outbox_bytes() > 0) saw_queued_tail = true;
      }
    });
  }

  std::this_thread::sleep_for(200ms);  // stall: the socket buffers fill
  std::vector<std::uint32_t> next(kSenders, 0);
  for (std::uint32_t got = 0; got < kSenders * kFrames; ++got) {
    auto frame = (*server)->recv_for(10s);
    ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
    ASSERT_GE(frame->size(), 8u);
    const std::uint32_t sender = load_le32(ByteSpan(*frame).first(4));
    const std::uint32_t seq = load_le32(ByteSpan(*frame).subspan(4, 4));
    ASSERT_LT(sender, kSenders);
    ASSERT_EQ(seq, next[sender]) << "sender " << sender << " out of order";
    ++next[sender];
    Bytes want;
    for (const Bytes& part : make_parts(sender, seq)) append(want, part);
    ASSERT_EQ(*frame, want) << "sender " << sender << " seq " << seq;
  }
  for (std::thread& t : senders) t.join();
  EXPECT_TRUE(saw_queued_tail.load());
  EXPECT_EQ(rt->outbox_bytes(), 0u);
}

TEST(ReactorTcpTest, RecvForDeadlineIsTheReadersPollTimeout) {
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  // The blocked receiver's own poll() carries the deadline: nothing lands
  // on the reactor's timer wheel while it waits.
  std::atomic<std::size_t> timers_mid_wait{1};
  std::thread probe([&] {
    std::this_thread::sleep_for(25ms);
    timers_mid_wait = (*pool)->at(0).pending_timers();
  });
  const auto start = std::chrono::steady_clock::now();
  auto nothing = (*client)->recv_for(50ms);
  EXPECT_EQ(nothing.status().code(), ErrorCode::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 50ms);
  probe.join();
  EXPECT_EQ(timers_mid_wait.load(), 0u);

  ASSERT_TRUE((*server)->send(message("late")).is_ok());
  auto got = (*client)->recv_for(5s);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, message("late"));
  EXPECT_EQ((*pool)->at(0).pending_timers(), 0u);
}

TEST(ReactorTcpTest, ConcurrentReceiversOnOneConnectionEachGetAMessage) {
  // One blocked receiver owns the read side; the other waits its turn.
  // Both must come away with a message whichever of them reads the socket.
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  std::vector<Bytes> got(2);
  std::vector<std::thread> receivers;
  for (std::size_t i = 0; i < got.size(); ++i) {
    receivers.emplace_back([&, i] {
      auto m = (*client)->recv();
      ASSERT_TRUE(m.is_ok()) << m.status().to_string();
      got[i] = std::move(*m);
    });
  }
  std::this_thread::sleep_for(20ms);  // let both park
  ASSERT_TRUE((*server)->send(message("one")).is_ok());
  ASSERT_TRUE((*server)->send(message("two")).is_ok());
  for (auto& t : receivers) t.join();
  const bool in_order = got[0] == message("one") && got[1] == message("two");
  const bool swapped = got[0] == message("two") && got[1] == message("one");
  EXPECT_TRUE(in_order || swapped);
}

TEST(ReactorTcpTest, HandlerInstalledAfterBlockingRecvGetsLaterFrames) {
  // A hello on the blocking API, then the loop takes over: the engine's
  // pattern.  Later frames reach the handler, on the loop thread, even
  // though a receiver is parked on the socket when the handler goes in.
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  ASSERT_TRUE((*server)->send(message("hello")).is_ok());
  auto hello = (*client)->recv_for(5s);
  ASSERT_TRUE(hello.is_ok());
  EXPECT_EQ(*hello, message("hello"));

  std::thread parked([&] {
    auto nothing = (*client)->recv_for(300ms);
    EXPECT_EQ(nothing.status().code(), ErrorCode::kTimeout);
  });
  std::this_thread::sleep_for(20ms);  // let it park in poll()

  std::mutex mutex;
  std::vector<Bytes> delivered;
  std::atomic<bool> off_loop{false};
  Reactor& loop = (*pool)->at(0);
  static_cast<ReactorTcpTransport*>(client->get())
      ->set_message_handler([&](Bytes&& m) {
        if (!loop.on_loop_thread()) off_loop = true;
        std::lock_guard lock(mutex);
        delivered.push_back(std::move(m));
      });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*server)->send(message("frame")).is_ok());
  }
  EXPECT_TRUE(await([&] {
    std::lock_guard lock(mutex);
    return delivered.size() == 3;
  }));
  EXPECT_FALSE(off_loop.load());
  parked.join();
  (*client)->close();
  static_cast<ReactorTcpTransport*>(client->get())->set_message_handler(nullptr);
}

TEST(ReactorTcpTest, OneCpuExchangeSoakNeverLosesAWakeup) {
  // Four blocking clients on one reactor against a handler echo server,
  // everything pinned to one CPU so the loop thread and the direct readers
  // interleave at every preemption point.  A reply the loop read (or
  // skipped) while a receiver owned the socket would strand that receiver
  // until its deadline.
  struct PinToOneCpu {
    cpu_set_t saved;
    PinToOneCpu() {
      CPU_ZERO(&saved);
      if (::sched_getaffinity(0, sizeof saved, &saved) != 0) return;
      int cpu = 0;
      while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      EXPECT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
    }
    ~PinToOneCpu() {
      if (CPU_COUNT(&saved) > 0) ::sched_setaffinity(0, sizeof saved, &saved);
    }
  } pinned;
  {
    // Created after pinning: every thread below inherits the one CPU.
    constexpr int kClients = 4;
    constexpr int kExchanges = 20000;
    auto server_pool = ReactorPool::create(1);
    ASSERT_TRUE(server_pool.is_ok());
    auto listener = ReactorListener::listen(*server_pool, 0);
    ASSERT_TRUE(listener.is_ok());
    std::vector<std::shared_ptr<Transport>> server_conns;
    (*listener)->set_accept_handler([&](std::unique_ptr<Transport> conn) {
      std::shared_ptr<Transport> t = std::move(conn);
      static_cast<ReactorTcpTransport*>(t.get())->set_message_handler(
          [t](Bytes&& m) { (void)t->send(m); });
      server_conns.push_back(std::move(t));
    });

    auto client_pool = ReactorPool::create(1);
    ASSERT_TRUE(client_pool.is_ok());
    std::atomic<int> timeouts{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto link = ReactorTcpTransport::connect(
            (*client_pool)->at(0).shared_from_this(), "127.0.0.1",
            (*listener)->port());
        ASSERT_TRUE(link.is_ok()) << link.status().to_string();
        Bytes request(16);
        for (int i = 0; i < kExchanges; ++i) {
          store_le32(MutByteSpan(request), static_cast<std::uint32_t>(c));
          store_le32(MutByteSpan(request).subspan(4), static_cast<std::uint32_t>(i));
          ASSERT_TRUE((*link)->send(request).is_ok());
          auto reply = (*link)->recv_for(5s);
          if (!reply.is_ok()) {
            ++timeouts;
            return;
          }
          if (*reply != request) ++mismatches;
        }
        (*link)->close();
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(timeouts.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    (*listener)->close();
    // The accept handler ran on the server loop; read the list there.
    std::atomic<bool> released{false};
    (*server_pool)->at(0).post([&] {
      for (auto& conn : server_conns) {
        static_cast<ReactorTcpTransport*>(conn.get())
            ->set_message_handler(nullptr);
      }
      server_conns.clear();
      released = true;
    });
    EXPECT_TRUE(await([&] { return released.load(); }));
  }
}

TEST(ReactorTcpTest, EchoSoak256Connections) {
  // One reactor pool serves every connection through the handler path: no
  // thread per link on either side.  256 connections × 20 round trips.
  constexpr std::size_t kConns = 256;
  constexpr int kRounds = 20;
  auto server_pool = ReactorPool::create(2);
  ASSERT_TRUE(server_pool.is_ok());
  auto listener = ReactorListener::listen(*server_pool, 0);
  ASSERT_TRUE(listener.is_ok());

  // Echo handlers capture the transport by shared_ptr so a handler running
  // on the loop thread can never outlive its transport; the cycle
  // (conn -> handler -> transport -> conn) is broken at teardown by
  // resetting the handler.
  std::vector<std::shared_ptr<Transport>> server_conns;
  std::thread acceptor([&] {
    for (std::size_t i = 0; i < kConns; ++i) {
      auto conn = (*listener)->accept();
      ASSERT_TRUE(conn.is_ok());
      std::shared_ptr<Transport> t = std::move(*conn);
      static_cast<ReactorTcpTransport*>(t.get())->set_message_handler(
          [t](Bytes&& m) { (void)t->send(m); });
      server_conns.push_back(std::move(t));
    }
  });

  auto client_pool = ReactorPool::create(2);
  ASSERT_TRUE(client_pool.is_ok());
  auto echoed = std::make_shared<std::atomic<std::size_t>>(0);
  std::vector<std::unique_ptr<Transport>> clients;
  for (std::size_t i = 0; i < kConns; ++i) {
    auto client = ReactorTcpTransport::connect(
        (*client_pool)->next().shared_from_this(), "127.0.0.1",
        (*listener)->port());
    ASSERT_TRUE(client.is_ok()) << i << ": " << client.status().to_string();
    static_cast<ReactorTcpTransport*>(client->get())
        ->set_message_handler([echoed](Bytes&&) {
          echoed->fetch_add(1, std::memory_order_relaxed);
        });
    clients.push_back(std::move(*client));
  }
  acceptor.join();

  Bytes ping(64, Byte{0x5a});
  for (int round = 0; round < kRounds; ++round) {
    for (auto& client : clients) {
      ASSERT_TRUE(client->send(ping).is_ok());
    }
  }
  EXPECT_TRUE(
      await([&] { return echoed->load() == kConns * kRounds; }, 30s))
      << "echoed " << echoed->load() << " of " << kConns * kRounds;
  for (auto& client : clients) client->close();
  for (auto& conn : server_conns) {
    static_cast<ReactorTcpTransport*>(conn.get())->set_message_handler(nullptr);
  }
}

TEST(ReactorTcpTest, ReconnectStormStaysClean) {
  // Every accepted link is cut hard by FaultyListener after 3 server
  // sends; the client reconnects through the churn.  Exercises the
  // add_fd/remove_fd/close races the sanitizer matrix watches.
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto inner = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(inner.is_ok());
  const std::uint16_t port = (*inner)->port();
  FaultConfig cut;
  cut.disconnect_after = 3;
  auto listener =
      std::make_unique<FaultyListener>(std::move(*inner), cut);

  std::atomic<bool> stop{false};
  std::thread server([&] {
    while (!stop.load()) {
      auto conn = listener->accept();
      if (!conn.is_ok()) return;  // listener closed
      for (;;) {
        auto got = (*conn)->recv();
        if (!got.is_ok()) break;
        if (!(*conn)->send(*got).is_ok()) break;
      }
    }
  });

  std::size_t reconnects = 0;
  std::size_t echoes = 0;
  for (int i = 0; i < 40; ++i) {
    auto client = ReactorTcpTransport::connect(
        (*pool)->at(0).shared_from_this(), "127.0.0.1", port);
    ASSERT_TRUE(client.is_ok()) << i;
    ++reconnects;
    for (;;) {
      if (!(*client)->send(message("ping")).is_ok()) break;
      auto got = (*client)->recv_for(2s);
      if (!got.is_ok()) break;  // link cut mid-exchange
      ++echoes;
    }
    (*client)->close();
  }
  EXPECT_EQ(reconnects, 40u);
  // disconnect_after=3 lets each connection echo 3 times before the cut.
  EXPECT_GE(echoes, 40u);
  stop = true;
  listener->close();
  server.join();
}

TEST(ReactorTcpTest, CloseUnblocksPendingRecv) {
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    (*client)->close();
  });
  auto got = (*client)->recv();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
  closer.join();
}

TEST(ReactorTcpTest, ConnectToClosedPortFails) {
  // Grab a free port with a socket that binds but never listens, and
  // close it, so nothing is there.  (A ReactorListener closes its socket
  // on the loop, after close() returns.)
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(probe);
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  auto client =
      ReactorTcpTransport::connect(*reactor, "127.0.0.1", ntohs(addr.sin_port));
  EXPECT_FALSE(client.is_ok());
}

TEST(ReactorTcpTest, BadAddressRejected) {
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  auto client = ReactorTcpTransport::connect(*reactor, "not-an-ip", 80);
  EXPECT_EQ(client.status().code(), ErrorCode::kInvalidArgument);
}

/// A raw client socket connected to `port`, so a test can write half a
/// frame and stall on purpose.
int raw_connect(std::uint16_t port) {
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  if (raw < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(raw);
    return -1;
  }
  return raw;
}

TEST(ReactorTcpTest, RecvForTimesOutMidFrameThenResumes) {
  // The deadline covers the whole frame, not just its first byte, and the
  // partial frame survives the timeout so the stream stays in sync.
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  const int raw = raw_connect((*listener)->port());
  ASSERT_GE(raw, 0);
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  const Bytes body = message("ten__bytes");
  unsigned char header[4] = {10, 0, 0, 0};  // little-endian length
  ASSERT_EQ(::send(raw, header, sizeof header, 0), 4);
  ASSERT_EQ(::send(raw, body.data(), 3, 0), 3);  // ...then stall

  const auto start = std::chrono::steady_clock::now();
  auto timed_out = (*server)->recv_for(80ms);
  EXPECT_EQ(timed_out.status().code(), ErrorCode::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 80ms);

  // The stream resumes mid-frame: the remaining 7 bytes complete the
  // message that timed out, byte for byte.
  ASSERT_EQ(::send(raw, body.data() + 3, 7, 0), 7);
  auto got = (*server)->recv_for(5s);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(*got, body);

  // And the connection is still framed correctly for the next message.
  unsigned char next[4 + 2] = {2, 0, 0, 0, 'o', 'k'};
  ASSERT_EQ(::send(raw, next, sizeof next, 0), 6);
  auto after = (*server)->recv_for(5s);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(*after, message("ok"));
  ::close(raw);
}

TEST(ReactorTcpTest, PeerCloseYieldsUnavailable) {
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    (*conn)->close();
  });
  auto client = ReactorTcpTransport::connect((*pool)->at(0).shared_from_this(),
                                             "localhost", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  auto got = (*client)->recv_for(5s);
  EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
  server.join();
}

TEST(ReactorTcpTest, ScatterSendToAGonePeerFailsInsteadOfRaisingSigpipe) {
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  auto client = ReactorTcpTransport::connect((*pool)->at(0).shared_from_this(),
                                             "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
  }  // the accepted connection is destroyed: the peer is gone
  const Bytes part(1024, 0x5a);
  const ByteSpan parts[] = {part, part};
  Status sent = Status::ok();
  // The first sends land in the kernel; once the reset comes back, the
  // next one must fail (EPIPE), not kill the process.
  for (int i = 0; i < 200 && sent.is_ok(); ++i) {
    sent = (*client)->send_vec(parts);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(sent.is_ok());
}

// ---- engine backoff on reactor timers --------------------------------------

TEST(ReactorEngineTest, RetryBackoffRidesTheTimerWheelAndTheCutHeals) {
  // Same lossy-fabric convergence the self-heal soak proves, on a shared
  // EngineConfig::reactor: every reply timeout and retry backoff is a
  // wheel entry, and the hard cut is recovered by the heal thread.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  InprocNetwork network;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto listener = network.listen("replica");
  ASSERT_TRUE(listener.is_ok());
  auto shared_listener = std::shared_ptr<Listener>(std::move(*listener));
  std::thread server = replica_serve_in_background(replica, shared_listener);

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  std::atomic<std::uint64_t> seed{900};
  auto faulty_link = [&](std::uint64_t disconnect_after)
      -> Result<std::unique_ptr<Transport>> {
    auto raw = network.connect("replica");
    if (!raw.is_ok()) return raw.status();
    FaultConfig faults;
    faults.drop_p = 0.02;
    faults.disconnect_after = disconnect_after;
    faults.seed = seed++;
    return std::unique_ptr<Transport>(
        std::make_unique<FaultyTransport>(std::move(*raw), faults));
  };

  EngineConfig config;
  config.keep_trap_log = true;
  config.retry.max_attempts = 6;
  config.retry.base_backoff = std::chrono::milliseconds(1);
  config.retry.max_backoff = std::chrono::milliseconds(10);
  config.retry.op_timeout = std::chrono::milliseconds(250);
  config.reconnect = [&](std::size_t) { return faulty_link(0); };
  config.reactor = *reactor;

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = faulty_link(/*disconnect_after=*/150);  // hard cut mid-run
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }

  Rng rng(31);
  for (int i = 0; i < 600; ++i) {
    Bytes block(kBs);
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  const EngineMetrics metrics = engine->metrics();
  EXPECT_GT(metrics.retries, 0u);      // drops forced wheel-timed backoffs
  EXPECT_GE(metrics.reconnects, 1u);   // the cut forced a heal
  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "diverged at lba " << lba;
  }
  engine.reset();  // destructor cancels the links' wheel timers
  EXPECT_TRUE(
      await([&] { return (*reactor)->pending_timers() == 0; }, 2s));
  shared_listener->close();
  server.join();
}

TEST(ReactorEnvTest, KnobsParse) {
  // Only checks the parser contract; the suite never mutates the real env.
  const std::size_t threads = reactor_threads_from_env();
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, 64u);
}

}  // namespace
}  // namespace prins
