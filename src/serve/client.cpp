#include "serve/client.hpp"

#include <chrono>
#include <thread>

namespace malnet::serve {

util::Fd connect_with_backoff(const std::string& host, std::uint16_t port,
                              const ClientOptions& opts) {
  int backoff = opts.backoff_ms;
  for (int attempt = 0; attempt <= opts.max_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
    }
    auto fd = util::tcp_connect(host, port, opts.connect_timeout_ms);
    if (fd.valid()) return fd;
  }
  return {};
}

bool Client::connect(const std::string& host, std::uint16_t port,
                     ClientOptions opts) {
  close();
  opts_ = opts;
  fd_ = connect_with_backoff(host, port, opts);
  return fd_.valid();
}

void Client::close() {
  fd_.reset();
  reader_ = FrameReader();
}

std::uint64_t Client::send(std::string_view query) {
  if (!fd_.valid()) return 0;
  const std::uint64_t id = next_id_++;
  // Span ids derive from the request id — unique per request, and the
  // server echoes them back in its spans for client/server correlation.
  last_span_id_ = trace_id_ == 0 ? 0 : id;
  const auto frame =
      encode_request({id, std::string(query), trace_id_, last_span_id_});
  if (!util::send_all(fd_.get(), frame, opts_.io_timeout_ms)) {
    close();
    return 0;
  }
  return id;
}

std::optional<Response> Client::recv() {
  if (!fd_.valid()) return std::nullopt;
  for (;;) {
    if (auto body = reader_.next()) {
      auto resp = decode_response(*body);
      if (!resp) close();  // malformed frame: the stream is unusable
      return resp;
    }
    if (reader_.error()) {
      close();
      return std::nullopt;
    }
    std::uint8_t buf[64 * 1024];
    const int n = util::recv_some(fd_.get(), buf, sizeof(buf),
                                  opts_.io_timeout_ms);
    if (n <= 0) {  // timeout, error, or orderly server close
      close();
      return std::nullopt;
    }
    reader_.feed({buf, static_cast<std::size_t>(n)});
  }
}

std::optional<std::string> Client::query(std::string_view q) {
  const auto id = send(q);
  if (id == 0) return std::nullopt;
  auto resp = recv();
  if (!resp || resp->id != id || resp->status != Status::kOk) {
    return std::nullopt;
  }
  return std::move(resp->text);
}

}  // namespace malnet::serve
