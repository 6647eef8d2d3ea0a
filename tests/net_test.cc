// Tests for the transport layer: in-proc pairs, named rendezvous, TCP
// framing, and the traffic meter's packet model.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "net/latent.h"
#include "net/packet_model.h"
#include "net/shaped_transport.h"
#include "net/tcp.h"
#include "net/traffic_meter.h"

namespace prins {
namespace {

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

// ---- TCP ------------------------------------------------------------------

TEST(TcpTest, RoundTripOverLoopback) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  const std::uint16_t port = (*listener)->port();
  ASSERT_NE(port, 0);

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    for (;;) {
      auto got = (*conn)->recv();
      if (!got.is_ok()) break;
      ASSERT_TRUE((*conn)->send(*got).is_ok());
    }
  });

  auto client = TcpTransport::connect("127.0.0.1", port);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // Small, empty, and large (multi-MB) messages survive framing.
  Rng rng(1);
  for (std::size_t n : {0ul, 1ul, 100ul, 70000ul, 3000000ul}) {
    Bytes data(n);
    rng.fill(data);
    ASSERT_TRUE((*client)->send(data).is_ok()) << n;
    auto got = (*client)->recv();
    ASSERT_TRUE(got.is_ok()) << n;
    EXPECT_EQ(*got, data) << n;
  }
  (*client)->close();
  server.join();
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Grab a free port, then close the listener so nothing is there.
  std::uint16_t port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.is_ok());
    port = (*listener)->port();
  }
  auto client = TcpTransport::connect("127.0.0.1", port);
  EXPECT_FALSE(client.is_ok());
}

TEST(TcpTest, BadAddressRejected) {
  EXPECT_FALSE(TcpTransport::connect("not-an-ip", 80).is_ok());
}

TEST(TcpTest, RecvForTimesOutMidFrameThenResumes) {
  // Regression: recv_for used to poll only for the *first* byte of a frame
  // and then block on the remainder, so a peer stalling mid-message turned
  // a timeout into a late success.  The deadline must cover the whole
  // frame, and the partial frame must survive the timeout so the stream
  // stays in sync.
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok());

  // A raw socket lets the test write half a frame and stall on purpose.
  int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*listener)->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  const Bytes body = message("ten__bytes");
  unsigned char header[4] = {10, 0, 0, 0};  // little-endian length
  ASSERT_EQ(::send(raw, header, sizeof header, 0), 4);
  ASSERT_EQ(::send(raw, body.data(), 3, 0), 3);  // ...then stall

  const auto start = std::chrono::steady_clock::now();
  auto timed_out = (*server)->recv_for(std::chrono::milliseconds(80));
  EXPECT_EQ(timed_out.status().code(), ErrorCode::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(80));

  // The stream resumes mid-frame: the remaining 7 bytes complete the
  // message that timed out, byte for byte.
  ASSERT_EQ(::send(raw, body.data() + 3, 7, 0), 7);
  auto got = (*server)->recv();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(*got, body);

  // And the connection is still framed correctly for the next message.
  unsigned char next[4 + 2] = {2, 0, 0, 0, 'o', 'k'};
  ASSERT_EQ(::send(raw, next, sizeof next, 0), 6);
  auto after = (*server)->recv_for(std::chrono::seconds(5));
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(*after, message("ok"));
  ::close(raw);
}

TEST(RecvForTest, DecoratorPassThroughSurfacesMidFrameStall) {
  // Same stall as above, but the accepted transport is wrapped in a
  // fault-free FaultyTransport: the decorator must hand recv_for's
  // deadline to the socket (not fall back to a blocking recv), so the
  // mid-frame stall surfaces as kTimeout through the wrapper too.
  auto listener = TcpListener::listen(0);
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

TEST(TcpTest, PeerCloseYieldsUnavailable) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    (*conn)->close();
  });
  auto client = TcpTransport::connect("localhost", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  auto got = (*client)->recv();
  EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
  server.join();
}

TEST(TcpTest, ScatterSendToAGonePeerFailsInsteadOfRaisingSigpipe) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok());
  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
  });  // the accepted socket is destroyed: the peer is gone
  auto client = TcpTransport::connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok());
  server.join();
  const Bytes part(1024, 0x5a);
  const ByteSpan parts[] = {part, part};
  Status sent = Status::ok();
  // The first sends land in the kernel; once the reset comes back, the
  // next one must fail (EPIPE), not kill the process.
  for (int i = 0; i < 200 && sent.is_ok(); ++i) {
    sent = (*client)->send_vec(parts);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(sent.is_ok());
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
