// Live capture: a nonblocking UDP socket behind the PacketSource interface,
// so an engine can front a real SIP proxy or media relay in a lab without
// touching netsim. The idiom follows fmus-3g's socket/transport split: a
// reader thread batches datagrams off the kernel (recvmmsg on Linux, a
// recvfrom loop elsewhere) into a bounded SpscRing, filling each slot in
// place; the consumer thread pulls decoded packets with next().
//
// Each received payload is wrapped in a synthetic IPv4/UDP datagram (source
// = the sender's address, destination = the bound socket) because the IDS
// always re-parses from raw bytes — a UDP socket only surfaces L4 payloads,
// and the pipeline's unit is the L3 datagram.
//
// Backpressure is explicit, SCIDIVE-style: a full ring drops the datagram
// and counts it in scidive_capture_drops_total{source="udp",reason=
// "ring_full"} — packets are never silently lost. Every packet next()
// delivers goes through one consume path, which counts it in
// scidive_capture_packets_total and feeds a scidive_capture_lag_ns
// histogram (receive -> next() delay),
// the live deployment's "is the engine keeping up" signal. All instruments
// are interned at construction; the steady-state path performs no
// allocation beyond the packet buffers themselves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "capture/packet_source.h"
#include "common/spsc_ring.h"
#include "obs/metrics.h"
#include "pkt/addr.h"

namespace scidive::capture {

struct UdpSourceConfig {
  /// Bind address/port. Port 0 binds an ephemeral port (tests); read the
  /// result from local_endpoint().
  std::string bind_address = "0.0.0.0";
  uint16_t port = 5060;
  size_t ring_capacity = 4096;   // rounded up to a power of two
  size_t recv_batch = 32;        // datagrams per recvmmsg call
  size_t max_datagram = 65535;   // receive buffer per datagram
  /// Consumer-side behaviour of next() on an empty ring: block (live drive
  /// loop) or return false immediately (polling integration).
  bool blocking = true;
  obs::MetricsRegistry* metrics = nullptr;
};

class UdpSocketSource : public PacketSource {
 public:
  explicit UdpSocketSource(UdpSourceConfig config = {});
  ~UdpSocketSource() override;

  UdpSocketSource(const UdpSocketSource&) = delete;
  UdpSocketSource& operator=(const UdpSocketSource&) = delete;

  /// False when the socket could not be opened/bound; error() says why.
  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }
  pkt::Endpoint local_endpoint() const { return local_; }

  /// Pull one packet. Blocking mode waits for traffic or stop(); polling
  /// mode returns false on an empty ring. After stop(), next() drains the
  /// ring and then returns false forever.
  bool next(pkt::Packet* out) override;
  std::string_view name() const override { return "udp"; }

  /// Ask the reader thread to exit; next() returns false once the ring is
  /// drained. Safe to call from any thread, idempotent.
  void stop();

  uint64_t packets_received() const { return received_.load(std::memory_order_relaxed); }
  uint64_t packets_dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    pkt::Packet packet;
    uint64_t recv_steady_ns = 0;  // lag measurement anchor
  };

  void reader_loop();
  /// Wrap one payload and push it; counts the drop when the ring is full.
  void enqueue(const uint8_t* payload, size_t len, uint32_t src_addr,
               uint16_t src_port, uint64_t recv_ns);
  /// Move one packet out of the ring into `out`, counting it and its lag.
  /// False when the ring is empty.
  bool consume(pkt::Packet* out);

  UdpSourceConfig config_;
  int fd_ = -1;
  std::string error_;
  pkt::Endpoint local_;
  std::unique_ptr<SpscRing<Slot>> ring_;
  std::thread reader_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> dropped_{0};
  uint64_t epoch_steady_ns_ = 0;  // timestamps are µs since source start

  obs::Counter* packets_total_ = nullptr;
  obs::Counter* drops_ring_full_ = nullptr;
  obs::Histogram* lag_ns_ = nullptr;
};

}  // namespace scidive::capture
