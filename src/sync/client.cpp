#include "sync/client.hpp"

#include <algorithm>

#include "store/segment.hpp"
#include "util/log.hpp"

namespace malnet::sync {

namespace {

/// Below this many remote members a subtree is enumerated (LIST) instead of
/// refined further — one round trip beats up to four levels of TREEs.
constexpr std::uint64_t kListThreshold = 16;

constexpr std::string_view kHexDigits = "0123456789abcdef";

const char* sync_op_name(SyncOp op) {
  switch (op) {
    case SyncOp::kHello: return "hello";
    case SyncOp::kTree: return "tree";
    case SyncOp::kList: return "list";
    case SyncOp::kGet: return "get";
    case SyncOp::kPut: return "put";
  }
  return "?";
}

std::uint64_t sum_sizes(const std::vector<std::string>& hashes,
                        const std::unordered_map<std::string, std::uint64_t>& sizes) {
  std::uint64_t total = 0;
  for (const auto& h : hashes) {
    const auto it = sizes.find(h);
    if (it != sizes.end()) total += it->second;
  }
  return total;
}

}  // namespace

bool SyncClient::connect(const std::string& host, std::uint16_t port,
                         serve::ClientOptions opts) {
  close();
  opts_ = opts;
  fd_ = serve::connect_with_backoff(host, port, opts);
  return fd_.valid();
}

void SyncClient::close() {
  fd_.reset();
  reader_ = serve::FrameReader(kMaxSyncFrameBody);
}

std::optional<util::Bytes> SyncClient::rpc(SyncOp op, util::BytesView payload,
                                           SyncStats& stats) {
  if (!fd_.valid()) return std::nullopt;
  const std::uint64_t id = next_id_++;
  // Span ids derive from the request id; the server echoes them into its
  // own spans, so client and server sides of one rpc correlate by id.
  const std::uint64_t span_id = trace_id_ == 0 ? 0 : id;
  const std::int64_t wall0 = obs::wall_now_us();
  const auto frame = encode_sync_request(
      {id, op, util::Bytes(payload.begin(), payload.end()), trace_id_,
       span_id});
  if (!util::send_all(fd_.get(), frame, opts_.io_timeout_ms)) {
    close();
    return std::nullopt;
  }
  ++stats.rounds;
  stats.bytes_on_wire += frame.size();
  const auto record_span = [&](std::size_t resp_bytes) {
    if (trace_id_ == 0) return;
    obs::TraceEvent ev;
    ev.name = std::string("sync:") + sync_op_name(op);
    ev.category = "sync";
    ev.phase = 'X';
    ev.clock = 'w';
    ev.wall_us = wall0;
    ev.dur_us = obs::wall_now_us() - wall0;
    ev.trace_id = trace_id_;
    ev.span_id = span_id;
    ev.args_json = "\"bytes\":" + std::to_string(resp_bytes);
    trace_events_.push_back(std::move(ev));
  };
  for (;;) {
    if (auto body = reader_.next()) {
      stats.bytes_on_wire += serve::kFramePrefixSize + body->size();
      auto resp = decode_sync_response(util::BytesView{*body});
      if (!resp || resp->id != id || resp->op != op ||
          resp->status != SyncStatus::kOk) {
        close();
        return std::nullopt;
      }
      record_span(resp->payload.size());
      return std::move(resp->payload);
    }
    if (reader_.error()) {
      close();
      return std::nullopt;
    }
    std::uint8_t buf[64 * 1024];
    const int n =
        util::recv_some(fd_.get(), buf, sizeof(buf), opts_.io_timeout_ms);
    if (n <= 0) {  // timeout, error, or peer close
      close();
      return std::nullopt;
    }
    reader_.feed({buf, static_cast<std::size_t>(n)});
  }
}

std::optional<store::TreeNodeSummary> SyncClient::fetch_node(
    const std::string& prefix, SyncStats& stats) {
  std::optional<util::Bytes> payload;
  if (prefix.empty()) {
    payload = rpc(SyncOp::kHello, {}, stats);
  } else {
    util::ByteWriter w;
    w.lp16(prefix);
    payload = rpc(SyncOp::kTree, util::BytesView{w.bytes()}, stats);
  }
  if (!payload) return std::nullopt;
  auto node = decode_node_summary(util::BytesView{*payload});
  if (!node) close();
  return node;
}

std::optional<std::vector<std::string>> SyncClient::fetch_list(
    const std::string& prefix, SyncStats& stats) {
  util::ByteWriter w;
  w.lp16(prefix);
  const auto payload = rpc(SyncOp::kList, util::BytesView{w.bytes()}, stats);
  if (!payload) return std::nullopt;
  auto list = decode_hash_list(util::BytesView{*payload});
  if (!list) close();
  return list;
}

bool SyncClient::list_diff(const store::SegmentSet& local,
                           const std::string& prefix, bool pulling,
                           const SizeMap& sizes, std::vector<std::string>& out,
                           SyncStats& stats) {
  const auto remote_list = fetch_list(prefix, stats);
  if (!remote_list) return false;
  if (pulling) {
    for (const auto& h : *remote_list) {
      if (local.contains(h)) {
        const auto it = sizes.find(h);
        if (it != sizes.end()) stats.bytes_saved += it->second;
      } else {
        out.push_back(h);
      }
    }
  } else {
    for (auto& h : local.under(prefix)) {
      if (!std::binary_search(remote_list->begin(), remote_list->end(), h)) {
        out.push_back(std::move(h));
      }
    }
  }
  return true;
}

bool SyncClient::push_walk(const store::SegmentSet& local,
                           const std::string& prefix,
                           const store::TreeNodeSummary& remote,
                           std::vector<std::string>& to_send,
                           SyncStats& stats) {
  const auto local_node = local.summarize(prefix);
  if (local_node.count == 0) return true;           // nothing to offer here
  if (local_node.hash == remote.hash) return true;  // sets already equal
  if (remote.count == 0) {
    auto members = local.under(prefix);
    to_send.insert(to_send.end(), std::make_move_iterator(members.begin()),
                   std::make_move_iterator(members.end()));
    return true;
  }
  if (remote.count <= kListThreshold || prefix.size() >= store::kHashHexLen) {
    return list_diff(local, prefix, /*pulling=*/false, {}, to_send, stats);
  }
  for (const auto& lc : local_node.children) {
    const store::TreeChildSummary* rc = nullptr;
    for (const auto& c : remote.children) {
      if (c.digit == lc.digit) {
        rc = &c;
        break;
      }
    }
    const std::string child_prefix = prefix + kHexDigits[lc.digit];
    if (!rc) {
      auto members = local.under(child_prefix);
      to_send.insert(to_send.end(), std::make_move_iterator(members.begin()),
                     std::make_move_iterator(members.end()));
      continue;
    }
    if (rc->hash == lc.hash) continue;
    if (rc->count <= kListThreshold ||
        child_prefix.size() >= store::kHashHexLen) {
      if (!list_diff(local, child_prefix, /*pulling=*/false, {}, to_send,
                     stats)) {
        return false;
      }
      continue;
    }
    const auto child_node = fetch_node(child_prefix, stats);
    if (!child_node) return false;
    if (!push_walk(local, child_prefix, *child_node, to_send, stats)) {
      return false;
    }
  }
  return true;
}

bool SyncClient::pull_walk(const store::SegmentSet& local, const SizeMap& sizes,
                           const std::string& prefix,
                           const store::TreeNodeSummary& remote,
                           std::vector<std::string>& to_fetch,
                           SyncStats& stats) {
  if (remote.count == 0) return true;  // nothing to take from here
  const auto local_node = local.summarize(prefix);
  if (local_node.hash == remote.hash) {
    stats.bytes_saved += sum_sizes(local.under(prefix), sizes);
    return true;
  }
  if (remote.count <= kListThreshold || prefix.size() >= store::kHashHexLen) {
    return list_diff(local, prefix, /*pulling=*/true, sizes, to_fetch, stats);
  }
  for (const auto& rc : remote.children) {
    const store::TreeChildSummary* lc = nullptr;
    for (const auto& c : local_node.children) {
      if (c.digit == rc.digit) {
        lc = &c;
        break;
      }
    }
    const std::string child_prefix = prefix + kHexDigits[rc.digit];
    if (lc && lc->hash == rc.hash) {
      stats.bytes_saved += sum_sizes(local.under(child_prefix), sizes);
      continue;
    }
    if (rc.count <= kListThreshold ||
        child_prefix.size() >= store::kHashHexLen) {
      if (!list_diff(local, child_prefix, /*pulling=*/true, sizes, to_fetch,
                     stats)) {
        return false;
      }
      continue;
    }
    const auto child_node = fetch_node(child_prefix, stats);
    if (!child_node) return false;
    if (!pull_walk(local, sizes, child_prefix, *child_node, to_fetch, stats)) {
      return false;
    }
  }
  return true;
}

bool SyncClient::do_push(SyncStats& stats) {
  SizeMap sizes;
  std::uint64_t local_total = 0;
  for (const auto& m : store_.segments()) {
    sizes.emplace(m.hash, m.bytes);
    local_total += m.bytes;
  }
  const store::SegmentSet local(store_.segment_hashes());
  const auto remote_root = fetch_node("", stats);
  if (!remote_root) return false;
  std::vector<std::string> to_send;
  if (local.summarize("").hash != remote_root->hash) {
    if (!push_walk(local, "", *remote_root, to_send, stats)) return false;
  }
  std::sort(to_send.begin(), to_send.end());
  to_send.erase(std::unique(to_send.begin(), to_send.end()), to_send.end());
  std::uint64_t sent_bytes = 0;
  for (const auto& hash : to_send) {
    std::optional<util::Bytes> bytes;
    try {
      bytes = store_.read_segment_bytes(hash);
    } catch (const std::exception& e) {
      util::log_line(util::LogLevel::kWarn, "sync",
                     std::string("push: local segment unreadable: ") + e.what());
      return false;
    }
    if (!bytes) return false;  // compacted away mid-sync: retry from scratch
    const auto resp = rpc(SyncOp::kPut, util::BytesView{*bytes}, stats);
    if (!resp || resp->size() != 1) {
      close();
      return false;
    }
    ++stats.segments_sent;
    sent_bytes += bytes->size();
  }
  stats.bytes_saved += local_total - std::min(local_total, sent_bytes);
  return true;
}

bool SyncClient::do_pull(SyncStats& stats) {
  SizeMap sizes;
  for (const auto& m : store_.segments()) sizes.emplace(m.hash, m.bytes);
  const store::SegmentSet local(store_.segment_hashes());
  const auto remote_root = fetch_node("", stats);
  if (!remote_root) return false;
  std::vector<std::string> to_fetch;
  if (local.summarize("").hash == remote_root->hash) {
    stats.bytes_saved += sum_sizes(local.hashes(), sizes);
  } else if (!pull_walk(local, sizes, "", *remote_root, to_fetch, stats)) {
    return false;
  }
  std::sort(to_fetch.begin(), to_fetch.end());
  to_fetch.erase(std::unique(to_fetch.begin(), to_fetch.end()),
                 to_fetch.end());
  for (const auto& hash : to_fetch) {
    util::ByteWriter w;
    w.lp16(hash);
    const auto bytes = rpc(SyncOp::kGet, util::BytesView{w.bytes()}, stats);
    if (!bytes) return false;
    // Trust nothing off the wire: the segment must hash to exactly what was
    // asked for before it may touch the manifest.
    if (store::content_hash(util::BytesView{*bytes}) != hash) {
      ++stats.verify_failures;
      util::log_line(util::LogLevel::kWarn, "sync",
                     "pull: segment " + hash.substr(0, 16) +
                         "… failed content verification; aborting");
      close();
      return false;
    }
    try {
      (void)store_.import_segment(util::BytesView{*bytes});
    } catch (const std::exception& e) {
      util::log_line(util::LogLevel::kWarn, "sync",
                     std::string("pull: import rejected: ") + e.what());
      close();
      return false;
    }
    ++stats.segments_received;
  }
  return true;
}

std::optional<SyncStats> SyncClient::push() {
  SyncStats stats;
  const bool ok = do_push(stats);
  record(stats);
  if (!ok) return std::nullopt;
  return stats;
}

std::optional<SyncStats> SyncClient::pull() {
  SyncStats stats;
  const bool ok = do_pull(stats);
  record(stats);
  if (!ok) return std::nullopt;
  return stats;
}

void SyncClient::record(const SyncStats& stats) {
  if (!registry_) return;
  // inc(0) still registers the counter, so a metrics snapshot always shows
  // the full sync.* family after any attempt.
  registry_->counter("sync.rounds").inc(stats.rounds);
  registry_->counter("sync.segments_sent").inc(stats.segments_sent);
  registry_->counter("sync.segments_received").inc(stats.segments_received);
  registry_->counter("sync.bytes_on_wire").inc(stats.bytes_on_wire);
  registry_->counter("sync.bytes_saved").inc(stats.bytes_saved);
  registry_->counter("sync.verify_failures").inc(stats.verify_failures);
}

}  // namespace malnet::sync
