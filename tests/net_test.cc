// Tests for the transport layer: in-proc pairs (blocking delivery, and
// the handler contract on a reactor loop), named rendezvous, decorator
// deadlines, and the traffic meter's packet model.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/endian.h"
#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "net/latent.h"
#include "net/packet_model.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "net/shaped_transport.h"
#include "net/traffic_meter.h"

namespace prins {
namespace {

using namespace std::chrono_literals;

Bytes message(std::string_view s) { return to_bytes(as_bytes(s)); }

TEST(InprocTest, PingPong) {
  auto [a, b] = make_inproc_pair();
  ASSERT_TRUE(a->send(message("hello")).is_ok());
  auto got = b->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, message("hello"));
  ASSERT_TRUE(b->send(message("world")).is_ok());
  auto back = a->recv();
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, message("world"));
}

TEST(InprocTest, PreservesOrderAndBoundaries) {
  auto [a, b] = make_inproc_pair();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a->send(message("msg" + std::to_string(i))).is_ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto got = b->recv();
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(*got, message("msg" + std::to_string(i)));
  }
}

TEST(InprocTest, EmptyMessageAllowed) {
  auto [a, b] = make_inproc_pair();
  ASSERT_TRUE(a->send({}).is_ok());
  auto got = b->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(got->empty());
}

TEST(InprocTest, CloseUnblocksReceiver) {
  auto [a, b] = make_inproc_pair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->close();
  });
  auto got = b->recv();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
  closer.join();
}

TEST(InprocTest, QueuedMessagesDrainAfterClose) {
  auto [a, b] = make_inproc_pair();
  ASSERT_TRUE(a->send(message("last words")).is_ok());
  a->close();
  auto got = b->recv();
  ASSERT_TRUE(got.is_ok());  // delivered despite the close
  EXPECT_EQ(*got, message("last words"));
  EXPECT_FALSE(b->recv().is_ok());
}

TEST(InprocTest, BackpressureBlocksThenReleases) {
  auto [a, b] = make_inproc_pair(/*capacity=*/2);
  ASSERT_TRUE(a->send(message("1")).is_ok());
  ASSERT_TRUE(a->send(message("2")).is_ok());
  std::atomic<bool> third_sent{false};
  std::thread sender([&] {
    ASSERT_TRUE(a->send(message("3")).is_ok());  // blocks until b receives
    third_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_sent.load());
  ASSERT_TRUE(b->recv().is_ok());
  sender.join();
  EXPECT_TRUE(third_sent.load());
}

TEST(InprocNetworkTest, ListenConnectAccept) {
  InprocNetwork net;
  auto listener = net.listen("node-b");
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    auto got = (*conn)->recv();
    ASSERT_TRUE(got.is_ok());
    ASSERT_TRUE((*conn)->send(*got).is_ok());  // echo
  });
  auto client = net.connect("node-b");
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE((*client)->send(message("echo me")).is_ok());
  auto got = (*client)->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, message("echo me"));
  server.join();
}

TEST(InprocNetworkTest, ConnectToMissingAddressFails) {
  InprocNetwork net;
  EXPECT_EQ(net.connect("ghost").status().code(), ErrorCode::kNotFound);
}

TEST(InprocNetworkTest, DoubleListenFails) {
  InprocNetwork net;
  auto first = net.listen("addr");
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(net.listen("addr").status().code(), ErrorCode::kAlreadyExists);
}

TEST(InprocNetworkTest, ClosedListenerUnblocksAccept) {
  InprocNetwork net;
  auto listener = net.listen("addr2");
  ASSERT_TRUE(listener.is_ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (*listener)->close();
  });
  EXPECT_FALSE((*listener)->accept().is_ok());
  closer.join();
}

TEST(InprocNetworkTest, CloseRacingRelistenIsSafe) {
  // One thread closes the listener while another keeps re-listening on its
  // address: listen() must read the listener's `closed` under the
  // listener's own mutex (a data race TSan reports otherwise), and the
  // address frees up once the close lands.
  InprocNetwork net;
  for (int round = 0; round < 50; ++round) {
    auto listener = net.listen("busy");
    ASSERT_TRUE(listener.is_ok());
    std::thread closer([l = listener->get()] { l->close(); });
    for (;;) {
      auto again = net.listen("busy");
      if (again.is_ok()) break;
      ASSERT_EQ(again.status().code(), ErrorCode::kAlreadyExists);
    }
    closer.join();
  }
}

// ---- in-process pipe: the handler contract --------------------------------

std::uint32_t index_of(const Bytes& m) { return load_le32(m); }

Bytes indexed(std::uint32_t i) {
  Bytes m(4);
  store_le32(m, i);
  return m;
}

HandlerTransport& events(Transport& end) {
  return dynamic_cast<HandlerTransport&>(end);
}

// Wait for `done` to become true without hammering the CPU; false on
// timeout, so tests fail with an assertion instead of hanging ctest.
bool await(const std::function<bool()>& done,
           std::chrono::milliseconds limit = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(InprocPipeTest, HandlerInboxHandlerHandoffLosesAndRepeatsNothing) {
  // A stream of numbered frames while the handler is removed and put back:
  // the handler sees a prefix, recv() the next 500, the handler the rest,
  // each exactly once and in order, always on the loop thread.
  constexpr std::uint32_t kFrames = 3000;
  constexpr std::uint32_t kPulled = 500;
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  std::mutex mutex;
  std::vector<std::uint32_t> handled;
  std::atomic<bool> off_loop{false};
  const auto handler = [&](Bytes&& m) {
    if (!(*reactor)->on_loop_thread()) off_loop = true;
    std::lock_guard lock(mutex);
    handled.push_back(index_of(m));
  };
  auto [near, far] = make_inproc_pair(/*capacity=*/4);
  events(*near).set_loop(*reactor);
  events(*near).set_message_handler(handler);
  std::thread peer([&, t = far.get()] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(t->send(indexed(i)).is_ok());
    }
  });
  ASSERT_TRUE(await([&] {
    std::lock_guard lock(mutex);
    return handled.size() >= 100;
  }));
  events(*near).set_message_handler(nullptr);
  std::vector<std::uint32_t> pulled;
  for (std::uint32_t i = 0; i < kPulled; ++i) {
    auto m = near->recv_for(5s);
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    pulled.push_back(index_of(*m));
  }
  events(*near).set_message_handler(handler);
  peer.join();
  ASSERT_TRUE(await([&] {
    std::lock_guard lock(mutex);
    return handled.size() + kPulled == kFrames;
  }));
  std::this_thread::sleep_for(20ms);  // a duplicate would land by now

  std::lock_guard lock(mutex);
  ASSERT_EQ(handled.size() + pulled.size(), kFrames);
  const std::size_t before = pulled.front();  // frames the handler saw first
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const std::uint32_t got = i < before            ? handled[i]
                              : i < before + kPulled ? pulled[i - before]
                                                     : handled[i - kPulled];
    ASSERT_EQ(got, i) << "frame " << i;
  }
  EXPECT_FALSE(off_loop.load());
  events(*near).set_message_handler(nullptr);
}

TEST(InprocPipeTest, BlockingRecvAfterClearingTheHandlerGetsTheNextFrame) {
  // The engine's exclusive exchange: park the handler, then read the
  // reply with a deadline.
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  std::atomic<int> handled{0};
  auto [near, far] = make_inproc_pair();
  events(*near).set_loop(*reactor);
  events(*near).set_message_handler([&](Bytes&&) { ++handled; });
  ASSERT_TRUE(far->send(message("to the handler")).is_ok());
  ASSERT_TRUE(await([&] { return handled.load() == 1; }));

  events(*near).set_message_handler(nullptr);
  EXPECT_EQ(near->recv_for(20ms).status().code(), ErrorCode::kTimeout);
  ASSERT_TRUE(far->send(message("reply")).is_ok());
  auto reply = near->recv_for(5s);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(*reply, message("reply"));
  EXPECT_EQ(handled.load(), 1);
}

TEST(InprocPipeTest, CloseHandlerFiresOnceAfterEveryDueMessage) {
  // Over a latent pair the last words are still in flight when the peer
  // closes: they are dispatched when due, and only then does the close
  // handler fire, once.
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  std::atomic<int> closes{0};
  std::atomic<int> frames{0};
  std::atomic<bool> frame_after_close{false};
  std::atomic<int> late{0};
  auto [near, far] = make_latent_pair(20ms);
  events(*near).set_loop(*reactor);
  events(*near).set_message_handler([&](Bytes&&) {
    if (closes.load() != 0) frame_after_close = true;
    ++frames;
  });
  events(*near).set_close_handler([&](const Status& why) {
    EXPECT_EQ(why.code(), ErrorCode::kUnavailable);
    ++closes;
  });
  ASSERT_TRUE(far->send(message("last words")).is_ok());
  far->close();
  ASSERT_TRUE(await([&] { return closes.load() == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(closes.load(), 1);
  EXPECT_EQ(frames.load(), 1);
  EXPECT_FALSE(frame_after_close.load());  // messages first, then the close
  EXPECT_EQ(near->recv_for(5s).status().code(), ErrorCode::kUnavailable);

  // Installed on a dead connection, a handler still fires, once.
  events(*near).set_close_handler([&](const Status&) { ++late; });
  ASSERT_TRUE(await([&] { return late.load() == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(late.load(), 1);

  // An end's own close() fires its close handler too.
  std::atomic<int> own{0};
  auto [mine, theirs] = make_inproc_pair();
  events(*mine).set_loop(*reactor);
  events(*mine).set_close_handler([&](const Status&) { ++own; });
  mine->close();
  ASSERT_TRUE(await([&] { return own.load() == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(own.load(), 1);
}

TEST(InprocPipeTest, SendsFailOnceThePeerHasClosed) {
  // The close handler is one-shot: a caller that saw it while idle (or
  // never installed one) learns of the death from its next send.
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  auto [near, far] = make_inproc_pair();
  std::atomic<int> closes{0};
  events(*near).set_loop(*reactor);
  events(*near).set_close_handler([&](const Status&) { ++closes; });
  ASSERT_TRUE(near->send(message("before")).is_ok());
  ASSERT_TRUE(far->recv_for(5s).is_ok());
  far->close();
  ASSERT_TRUE(await([&] { return closes.load() == 1; }));
  EXPECT_FALSE(near->send(message("after")).is_ok());
  const Bytes a = message("a"), b = message("b");
  const ByteSpan parts[] = {a, b};
  EXPECT_FALSE(near->send_vec(parts).is_ok());
}

TEST(InprocPipeTest, LoopThreadSendNeverWaitsOnAFullPipe) {
  // A peer that reads nothing, behind a pipe of one message: sends made on
  // the end's loop thread all return (the sender's window bounds them),
  // and the peer later reads every frame in order.
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  constexpr std::uint32_t kFrames = 64;
  auto [near, far] = make_inproc_pair(/*capacity=*/1);
  events(*near).set_loop(*reactor);
  std::atomic<bool> sent_all{false};
  (*reactor)->post([&, t = near.get()] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      if (!t->send(indexed(i)).is_ok()) return;
    }
    sent_all = true;
  });
  ASSERT_TRUE(await([&] { return sent_all.load(); }, 2s))
      << "a loop-thread send waited on capacity";
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    auto m = far->recv_for(5s);
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    ASSERT_EQ(index_of(*m), i);
  }
}

TEST(InprocPipeTest, LatentHandlerNeverSeesAMessageEarly) {
  // Each frame carries its send time; the handler checks the one-way delay
  // has elapsed.  The timer wheel's 1 ms tick may fire a dispatch early,
  // which must then wait out the remainder.
  constexpr auto kDelay = 3ms;
  constexpr int kFrames = 40;
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  auto [near, far] = make_latent_pair(kDelay);
  std::atomic<int> handled{0};
  std::atomic<int> early{0};
  events(*near).set_loop(*reactor);
  events(*near).set_message_handler([&](Bytes&& m) {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const auto sent = std::chrono::nanoseconds(load_le64(m));
    if (now - sent < kDelay) ++early;
    ++handled;
  });
  for (int i = 0; i < kFrames; ++i) {
    Bytes m(8);
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    store_le64(
        m, static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                   .count()));
    ASSERT_TRUE(far->send(m).is_ok());
    std::this_thread::sleep_for(std::chrono::microseconds(250 * (i % 5)));
  }
  ASSERT_TRUE(await([&] { return handled.load() == kFrames; }));
  EXPECT_EQ(early.load(), 0);
  events(*near).set_message_handler(nullptr);
}

TEST(InprocPipeTest, DestroyedEndReleasesItsLoop) {
  // A peer that outlives an end keeps neither the end's handlers nor its
  // loop alive.
  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  std::shared_ptr<Reactor> loop = *reactor;
  auto [near, far] = make_inproc_pair();
  events(*near).set_loop(loop);
  auto token = std::make_shared<int>(0);
  events(*near).set_message_handler([token](Bytes&&) {});
  near.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(await([&] { return loop.use_count() == 2; }));  // + `reactor`
  EXPECT_FALSE(far->send(message("to nobody")).is_ok());
}

// ---- decorators over sockets ----------------------------------------------

TEST(RecvForTest, DecoratorPassThroughSurfacesMidFrameStall) {
  // A peer stalls mid-frame under a fault-free FaultyTransport: the
  // decorator must hand recv_for's deadline to the socket (not fall back
  // to a blocking recv), so the stall surfaces as kTimeout through the
  // wrapper too.
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok());
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*listener)->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  auto accepted = (*listener)->accept();
  ASSERT_TRUE(accepted.is_ok());
  FaultyTransport server(std::move(*accepted), FaultConfig{});

  unsigned char partial[4 + 2] = {5, 0, 0, 0, 'h', 'i'};  // 2 of 5 bytes
  ASSERT_EQ(::send(raw, partial, sizeof partial, 0), 6);
  auto timed_out = server.recv_for(std::chrono::milliseconds(60));
  EXPECT_EQ(timed_out.status().code(), ErrorCode::kTimeout);

  unsigned char rest[3] = {'v', 'e', 'r'};
  ASSERT_EQ(::send(raw, rest, sizeof rest, 0), 3);
  auto got = server.recv_for(std::chrono::seconds(5));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, message("hiver"));
  ::close(raw);
}

// ---- packet model & traffic meter ------------------------------------------------

TEST(PacketModelTest, MatchesPaperFormula) {
  EXPECT_EQ(packets_for(0), 0u);
  EXPECT_EQ(packets_for(1), 1u);
  EXPECT_EQ(packets_for(1500), 1u);
  EXPECT_EQ(packets_for(1501), 2u);
  EXPECT_EQ(packets_for(8192), 6u);
  EXPECT_EQ(wire_bytes_for(1500), 1500u + 112u);
  EXPECT_EQ(wire_bytes_for(8192), 8192u + 6 * 112u);
}

TEST(TrafficMeterTest, AccountsSendsAndReceives) {
  auto [a, b] = make_inproc_pair();
  TrafficMeter meter(std::move(a));
  ASSERT_TRUE(meter.send(Bytes(8192, 1)).is_ok());
  ASSERT_TRUE(meter.send(Bytes(100, 2)).is_ok());
  const TrafficStats sent = meter.sent();
  EXPECT_EQ(sent.messages, 2u);
  EXPECT_EQ(sent.payload_bytes, 8292u);
  EXPECT_EQ(sent.packets, 7u);
  EXPECT_EQ(sent.wire_bytes, 8292u + 7 * 112u);

  ASSERT_TRUE(b->send(Bytes(50, 3)).is_ok());
  ASSERT_TRUE(meter.recv().is_ok());
  EXPECT_EQ(meter.received().messages, 1u);
  EXPECT_EQ(meter.received().payload_bytes, 50u);

  EXPECT_EQ(meter.sent_sizes().count(), 2u);
  meter.reset();
  EXPECT_EQ(meter.sent().messages, 0u);
}

TEST(LatentPairTest, DeliversAfterDelayWithoutBlockingSender) {
  auto [a, b] = make_latent_pair(std::chrono::microseconds(20000));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(a->send(message("in flight")).is_ok());
  const double send_time =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(send_time, 0.010);  // sender not blocked for the latency
  auto got = b->recv();
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, message("in flight"));
  EXPECT_GE(total, 0.018);  // ~one-way delay elapsed before delivery
}

TEST(LatentPairTest, OrderPreservedAndDrainsAfterClose) {
  auto [a, b] = make_latent_pair(std::chrono::microseconds(1000));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a->send(message(std::to_string(i))).is_ok());
  }
  a->close();
  for (int i = 0; i < 10; ++i) {
    auto got = b->recv();
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(*got, message(std::to_string(i)));
  }
  EXPECT_FALSE(b->recv().is_ok());
}

TEST(ShapedTransportTest, DeliversAndDelays) {
  auto [a, b] = make_inproc_pair();
  ShapingConfig shaping;
  shaping.line = kT1;
  shaping.hops = 2;
  shaping.bandwidth_scale = 1000.0;  // keep the test fast
  ShapedTransport shaped(std::move(a), shaping);

  // An 8 KB message on T1/1000 still costs >= ~59 us of shaping.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(shaped.send(Bytes(8192, 1)).is_ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 50e-6);

  auto got = b->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got->size(), 8192u);
  // Replies are not shaped (the model charges the forward path).
  ASSERT_TRUE(b->send(Bytes(10, 2)).is_ok());
  auto reply = shaped.recv();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->size(), 10u);
  EXPECT_NE(shaped.describe().find("T1"), std::string::npos);
}

TEST(TrafficMeterTest, MergeSumsStats) {
  TrafficStats a, b;
  a.add_message(1000);
  b.add_message(2000);
  a.merge(b);
  EXPECT_EQ(a.messages, 2u);
  EXPECT_EQ(a.payload_bytes, 3000u);
  EXPECT_EQ(a.packets, 3u);
}

}  // namespace
}  // namespace prins
