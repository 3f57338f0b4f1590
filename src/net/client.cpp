#include "net/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "net/socket.hpp"

namespace overcount::net {

std::uint64_t jittered_backoff_us(std::uint64_t retry_after_us, Rng& rng,
                                  std::uint64_t cap_us) {
  const double jitter = 0.75 + 0.5 * rng.uniform();  // [0.75, 1.25)
  const auto wait =
      static_cast<std::uint64_t>(static_cast<double>(retry_after_us) * jitter);
  return std::min(wait, cap_us);
}

bool NetClient::connect(std::uint16_t port) {
  close();
  fd_ = connect_loopback(port);
  return fd_ >= 0;
}

void NetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader();
}

bool NetClient::send_request(const RequestMsg& req) {
  if (fd_ < 0) return false;
  const std::string frame = encode_request(req);
  return send_all(fd_, frame.data(), frame.size());
}

std::optional<Frame> NetClient::read_frame(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char buf[16 * 1024];
  Frame frame;
  for (;;) {
    switch (reader_.next(frame)) {
      case DecodeStatus::kFrame:
        return frame;
      case DecodeStatus::kError:
        return std::nullopt;
      case DecodeStatus::kNeedMore:
        break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    const int slice = static_cast<int>(std::min<std::int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count(),
        200));
    const ssize_t n = recv_some(fd_, buf, sizeof(buf), std::max(slice, 1));
    if (n == kRecvTimeout) continue;
    if (n <= 0) return std::nullopt;  // EOF or error.
    reader_.append(buf, static_cast<std::size_t>(n));
  }
}

std::optional<WelcomeMsg> NetClient::hello(const std::string& tenant,
                                           std::uint8_t class_id,
                                           int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  const std::string frame = encode_hello({tenant, class_id});
  if (!send_all(fd_, frame.data(), frame.size())) return std::nullopt;
  auto reply = read_frame(timeout_ms);
  if (!reply || reply->type() != FrameType::kWelcome) return std::nullopt;
  return decode_welcome(*reply);
}

std::optional<NetClient::Result> NetClient::request(const RequestMsg& req,
                                                    int timeout_ms) {
  if (!send_request(req)) return std::nullopt;
  // The server answers in completion order, so a synchronous caller with
  // one request in flight gets its own reply next; skip unrelated Pongs.
  for (;;) {
    auto frame = read_frame(timeout_ms);
    if (!frame) return std::nullopt;
    if (frame->type() == FrameType::kPong) continue;
    if (frame->type() == FrameType::kResponse) {
      auto msg = decode_response(*frame);
      if (!msg || msg->request_id != req.request_id) return std::nullopt;
      Result out;
      out.response = *msg;
      return out;
    }
    if (frame->type() == FrameType::kReject) {
      auto msg = decode_reject(*frame);
      if (!msg || msg->request_id != req.request_id) return std::nullopt;
      Result out;
      out.rejected = true;
      out.reject = *msg;
      return out;
    }
    return std::nullopt;  // kError or anything else: give up.
  }
}

bool NetClient::ping(std::uint64_t nonce, int timeout_ms) {
  if (fd_ < 0) return false;
  const std::string frame = encode_ping({nonce});
  if (!send_all(fd_, frame.data(), frame.size())) return false;
  auto reply = read_frame(timeout_ms);
  if (!reply || reply->type() != FrameType::kPong) return false;
  auto msg = decode_ping(*reply);
  return msg && msg->nonce == nonce;
}

}  // namespace overcount::net
