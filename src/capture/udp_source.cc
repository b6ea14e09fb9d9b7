#include "capture/udp_source.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "pkt/packet.h"

namespace scidive::capture {
namespace {

uint64_t steady_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

UdpSocketSource::UdpSocketSource(UdpSourceConfig config) : config_(std::move(config)) {
  auto bind_addr = pkt::Ipv4Address::parse(config_.bind_address);
  if (!bind_addr) {
    error_ = "bad bind address: " + config_.bind_address;
    return;
  }

  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + strerror(errno);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(bind_addr->value());
  addr.sin_port = htons(config_.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error_ = std::string("bind: ") + strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  local_ = {pkt::Ipv4Address(ntohl(addr.sin_addr.s_addr)), ntohs(addr.sin_port)};

  if (config_.ring_capacity < 2) config_.ring_capacity = 2;
  if (config_.recv_batch == 0) config_.recv_batch = 1;
  ring_ = std::make_unique<SpscRing<Slot>>(config_.ring_capacity);
  epoch_steady_ns_ = steady_ns();

  if (obs::MetricsRegistry* metrics = config_.metrics) {
    packets_total_ = &metrics->counter("scidive_capture_packets_total",
                                       "Packets delivered by a capture source",
                                       {{"source", "udp"}});
    drops_ring_full_ = &metrics->counter(
        "scidive_capture_drops_total",
        "Packets a capture source could not deliver",
        {{"reason", "ring_full"}, {"source", "udp"}});
    lag_ns_ = &metrics->histogram("scidive_capture_lag_ns",
                                  "Receive-to-consume delay of the live source",
                                  obs::latency_ns_bounds(), {{"source", "udp"}});
  }

  reader_ = std::thread([this] { reader_loop(); });
}

UdpSocketSource::~UdpSocketSource() {
  stop();
  if (reader_.joinable()) reader_.join();
  if (fd_ >= 0) ::close(fd_);
}

void UdpSocketSource::stop() { stopping_.store(true, std::memory_order_release); }

void UdpSocketSource::enqueue(const uint8_t* payload, size_t len, uint32_t src_addr,
                              uint16_t src_port, uint64_t recv_ns) {
  received_.fetch_add(1, std::memory_order_relaxed);
  const bool pushed = ring_->try_push_with([&](Slot& slot) {
    slot.packet = pkt::make_udp_packet({pkt::Ipv4Address(src_addr), src_port}, local_,
                                       std::span<const uint8_t>(payload, len));
    slot.packet.timestamp =
        static_cast<SimTime>((recv_ns - epoch_steady_ns_) / 1000);  // µs since start
    slot.recv_steady_ns = recv_ns;
  });
  if (!pushed) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (drops_ring_full_ != nullptr) drops_ring_full_->inc();
  }
}

void UdpSocketSource::reader_loop() {
  const size_t batch = config_.recv_batch;
  const size_t buf_len = config_.max_datagram;
  std::vector<uint8_t> buffers(batch * buf_len);

#ifdef __linux__
  // recvmmsg: one syscall per batch. Per-message state is rebuilt each
  // round (the kernel scribbles on msg_len / address lengths).
  std::vector<mmsghdr> msgs(batch);
  std::vector<iovec> iovs(batch);
  std::vector<sockaddr_in> addrs(batch);
#endif

  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_

#ifdef __linux__
    for (size_t i = 0; i < batch; ++i) {
      iovs[i] = {buffers.data() + i * buf_len, buf_len};
      msgs[i] = {};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
    }
    const int n = ::recvmmsg(fd_, msgs.data(), static_cast<unsigned>(batch),
                             MSG_DONTWAIT, nullptr);
    if (n <= 0) continue;
    const uint64_t now_ns = steady_ns();
    for (int i = 0; i < n; ++i) {
      enqueue(buffers.data() + static_cast<size_t>(i) * buf_len, msgs[i].msg_len,
              ntohl(addrs[static_cast<size_t>(i)].sin_addr.s_addr),
              ntohs(addrs[static_cast<size_t>(i)].sin_port), now_ns);
    }
#else
    for (size_t i = 0; i < batch; ++i) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      const ssize_t got =
          ::recvfrom(fd_, buffers.data(), buf_len, MSG_DONTWAIT,
                     reinterpret_cast<sockaddr*>(&from), &from_len);
      if (got < 0) break;
      enqueue(buffers.data(), static_cast<size_t>(got), ntohl(from.sin_addr.s_addr),
              ntohs(from.sin_port), steady_ns());
    }
#endif
  }
}

bool UdpSocketSource::consume(pkt::Packet* out) {
  return ring_->consume_batch(1, [&](Slot& slot, const Slot*) {
    if (lag_ns_ != nullptr) {
      const uint64_t now = steady_ns();
      lag_ns_->observe(now > slot.recv_steady_ns ? now - slot.recv_steady_ns : 0);
    }
    if (packets_total_ != nullptr) packets_total_->inc();
    *out = std::move(slot.packet);
  }) == 1;
}

bool UdpSocketSource::next(pkt::Packet* out) {
  if (ring_ == nullptr) return false;
  for (;;) {
    if (consume(out)) return true;
    if (stopping_.load(std::memory_order_acquire)) {
      // Drain race: the reader may have pushed between the failed consume
      // and the stop check; one more attempt settles it.
      return consume(out);
    }
    if (!config_.blocking) return false;
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, /*timeout_ms=*/10);  // cheap wait; reader fills the ring
  }
}

}  // namespace scidive::capture
