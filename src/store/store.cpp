#include "store/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "profile/registry.hpp"
#include "report/dataset_io.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace malnet::store {

namespace fs = std::filesystem;

namespace {

std::string hex64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(15 - i)] = kHex[(v >> (i * 4)) & 0xF];
  }
  return out;
}

std::uint64_t parse_hex64(const std::string& s) {
  return std::stoull(s, nullptr, 16);
}

/// Cross-process writer/GC exclusion on DIR/LOCK. Writers (commit, import,
/// compact) hold the lock shared over their segment-write → manifest-write
/// window; collect_garbage() takes it exclusive and non-blocking, so it
/// never collects a file another process is mid-way through publishing.
/// Each guard opens its own descriptor: flock() converts rather than stacks
/// on a shared open file description, which would let one guard silently
/// drop another's hold.
class DirLock {
 public:
  DirLock(const std::string& path, int operation) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) return;
    if (::flock(fd_, operation) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~DirLock() {
    if (fd_ >= 0) ::close(fd_);  // closing the descriptor releases the lock
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  [[nodiscard]] bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// d_pc2 carries data only when some shard actually ran a probe campaign.
bool campaign_empty(const core::ProbeCampaignResult& pc) {
  return pc.rounds == 0 && pc.raster.empty() && pc.scout_probes == 0 &&
         pc.weapon_runs == 0 && pc.banner_filtered == 0;
}

}  // namespace

Store::Store(std::string dir) : dir_(std::move(dir)) {
  // The private registry merges into callers' global snapshots; claiming
  // the namespace makes cross-registry name collisions impossible instead
  // of silently shadowed (obs::Registry::set_namespace).
  registry_.set_namespace("store.");
  std::error_code ec;
  fs::create_directories(dir_ + "/segments", ec);
  if (ec) {
    throw std::runtime_error("store: cannot create " + dir_ + "/segments: " +
                             ec.message());
  }
  replay_manifest();
  collect_garbage();
}

std::vector<SegmentMeta> Store::segments() const {
  std::lock_guard lock(mu_);
  return segments_;
}

void Store::replay_manifest() {
  if (!fs::exists(manifest_path())) return;  // brand-new store
  std::ifstream f(manifest_path());
  if (!f) throw std::runtime_error("store: cannot open " + manifest_path());
  std::string line;
  if (!std::getline(f, line) || line != "malnet-store 1") {
    throw std::runtime_error("store: corrupt manifest header in " +
                             manifest_path());
  }
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    std::istringstream in(line);
    std::string tag, kind_word;
    SegmentMeta meta;
    std::string fp_hex, seed_hex;
    in >> tag >> meta.seq >> kind_word >> fp_hex >> meta.shard_count >>
        meta.shard_index >> seed_hex >> meta.bytes >> meta.hash >> meta.file;
    const auto kind = segment_kind_from_string(kind_word);
    if (!in || tag != "segment" || !kind || meta.hash.size() != 64) {
      throw std::runtime_error("store: corrupt manifest line: " + line);
    }
    meta.kind = *kind;
    meta.fingerprint = parse_hex64(fp_hex);
    meta.seed = parse_hex64(seed_hex);
    next_seq_ = std::max(next_seq_, meta.seq + 1);
    segments_.push_back(std::move(meta));
  }
}

void Store::write_manifest_locked() {
  std::ostringstream out;
  out << "malnet-store 1\n";
  for (const auto& m : segments_) {
    out << "segment " << m.seq << ' ' << to_string(m.kind) << ' '
        << hex64(m.fingerprint) << ' ' << m.shard_count << ' ' << m.shard_index
        << ' ' << hex64(m.seed) << ' ' << m.bytes << ' ' << m.hash << ' '
        << m.file << '\n';
  }
  util::write_file_atomic(manifest_path(), std::string_view(out.str()));
}

Store::Health Store::health() const {
  Health h;
  std::size_t expected = 0;
  {
    std::lock_guard lock(mu_);
    expected = segments_.size();
  }
  try {
    if (!fs::exists(manifest_path())) {
      if (expected == 0) {
        h.ok = true;
        h.detail = "ok (empty store)";
      } else {
        h.detail = "manifest missing with " + std::to_string(expected) +
                   " live segments";
      }
      return h;
    }
    std::ifstream f(manifest_path());
    std::string line;
    if (!f || !std::getline(f, line) || line != "malnet-store 1") {
      h.detail = "manifest unreadable or bad header";
      return h;
    }
    while (std::getline(f, line)) {
      if (line.empty()) continue;
      if (line.rfind("segment ", 0) != 0) {
        h.detail = "corrupt manifest line";
        return h;
      }
      ++h.segments;
    }
    if (h.segments < expected) {
      h.detail = "manifest lists " + std::to_string(h.segments) +
                 " segments, memory has " + std::to_string(expected);
      return h;
    }
    h.ok = true;
    h.detail = "ok";
  } catch (const std::exception& e) {
    h.detail = std::string("probe failed: ") + e.what();
  }
  return h;
}

void Store::collect_garbage() {
  std::lock_guard lock(mu_);
  // An unreferenced segment file is indistinguishable from one a concurrent
  // writer has renamed into place but not yet published in MANIFEST, so GC
  // may only run while no writer holds the directory lock. Skipping is safe:
  // real crash litter has no lock holder and the next open collects it.
  DirLock gc_lock(lock_path(), LOCK_EX | LOCK_NB);
  if (!gc_lock.held()) {
    registry_.counter("store.gc_skipped").inc();
    util::log_line(util::LogLevel::kInfo, "store",
                   "gc skipped in " + dir_ + " (writers active)");
    return;
  }
  std::uint64_t removed = 0;
  std::error_code ec;
  // Stale manifest temps in the root; stale segment temps and unreferenced
  // segment files (a crash between the segment rename and the manifest
  // rename) under segments/.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto name = entry.path().filename().string();
    if (entry.is_regular_file() && util::is_atomic_temp_name(name)) {
      if (fs::remove(entry.path(), ec)) ++removed;
    }
  }
  for (const auto& entry : fs::directory_iterator(dir_ + "/segments", ec)) {
    if (!entry.is_regular_file()) continue;
    const auto name = entry.path().filename().string();
    const bool stale_temp = util::is_atomic_temp_name(name);
    const bool referenced =
        std::any_of(segments_.begin(), segments_.end(),
                    [&name](const SegmentMeta& m) { return m.file == name; });
    if (stale_temp || !referenced) {
      if (fs::remove(entry.path(), ec)) ++removed;
    }
  }
  if (removed > 0) {
    registry_.counter("store.orphans_removed").inc(removed);
    util::log_line(util::LogLevel::kInfo, "store",
                   "collected " + std::to_string(removed) +
                       " orphan file(s) in " + dir_);
  }
}

SegmentMeta Store::commit(const core::StudyResults& results, SegmentKind kind,
                          std::uint64_t fingerprint, std::uint32_t shard_index,
                          std::uint32_t shard_count, std::uint64_t seed) {
  SegmentHeader header;
  header.kind = kind;
  header.fingerprint = fingerprint;
  header.shard_index = shard_index;
  header.shard_count = shard_count;
  header.seed = seed;
  const auto payload = report::serialize_datasets(results);
  const auto bytes =
      encode_segment(header, build_index(results), util::BytesView{payload});
  const auto hash = content_hash(util::BytesView{bytes});
  const std::string file = hash.substr(0, 16) + ".seg";

  std::lock_guard lock(mu_);
  // Idempotence: identical content is already durable under the same name.
  for (const auto& m : segments_) {
    if (m.hash == hash) return m;
  }
  // A shard slot being re-committed with different content (e.g. the same
  // store reused for a differently-seeded run of the same fingerprint slot)
  // replaces its old entry, never duplicates it.
  std::string replaced_file;
  if (kind == SegmentKind::kShard) {
    for (auto it = segments_.begin(); it != segments_.end(); ++it) {
      if (it->kind == kind && it->fingerprint == fingerprint &&
          it->shard_index == shard_index && it->shard_count == shard_count) {
        replaced_file = it->file;
        segments_.erase(it);
        break;
      }
    }
  }

  // Durability order: segment bytes first, manifest second. Each step is
  // individually atomic; a crash in the gap leaves an orphan the next open
  // collects. The shared lock keeps a concurrent opener's GC out of that gap.
  DirLock write_lock(lock_path(), LOCK_SH);
  util::write_file_atomic(segment_path(file), util::BytesView{bytes});
  SegmentMeta meta;
  meta.seq = next_seq_++;
  meta.kind = kind;
  meta.fingerprint = fingerprint;
  meta.shard_index = shard_index;
  meta.shard_count = shard_count;
  meta.seed = seed;
  meta.bytes = bytes.size();
  meta.hash = hash;
  meta.file = file;
  segments_.push_back(meta);
  write_manifest_locked();
  if (!replaced_file.empty() && replaced_file != file) {
    std::error_code ec;
    fs::remove(segment_path(replaced_file), ec);
  }
  registry_.counter("store.segments_written").inc();
  registry_.counter("store.bytes_written").inc(bytes.size());
  util::log_line(util::LogLevel::kInfo, "store",
                 "committed " + to_string(kind) + " segment " + file + " (" +
                     std::to_string(bytes.size()) + " bytes, shard " +
                     std::to_string(shard_index) + "/" +
                     std::to_string(shard_count) + ")");
  return meta;
}

std::optional<core::StudyResults> Store::load_verified_shard(
    std::uint64_t fingerprint, std::uint32_t shard_index,
    std::uint32_t shard_count) {
  std::optional<SegmentMeta> meta;
  {
    std::lock_guard lock(mu_);
    for (const auto& m : segments_) {
      if (m.kind == SegmentKind::kShard && m.fingerprint == fingerprint &&
          m.shard_index == shard_index && m.shard_count == shard_count) {
        meta = m;
        break;
      }
    }
  }
  if (!meta) return std::nullopt;
  try {
    return load_payload(*meta);
  } catch (const std::exception& e) {
    registry_.counter("store.verify_failures").inc();
    util::log_line(util::LogLevel::kWarn, "store",
                   "segment " + meta->file + " failed verification (" +
                       e.what() + "); shard " + std::to_string(shard_index) +
                       " will be re-run");
    return std::nullopt;
  }
}

core::StudyResults Store::load_payload(const SegmentMeta& meta) {
  const auto bytes = util::read_file(segment_path(meta.file));
  registry_.counter("store.payload_bytes_read").inc(bytes.size());
  if (content_hash(util::BytesView{bytes}) != meta.hash) {
    throw std::runtime_error("store: content hash mismatch for " + meta.file);
  }
  const auto header = decode_segment_header(util::BytesView{bytes});
  if (!header) {
    throw std::runtime_error("store: bad segment header in " + meta.file);
  }
  const std::size_t payload_off = kSegmentHeaderSize + header->index_len;
  if (payload_off + header->payload_len != bytes.size()) {
    throw std::runtime_error("store: inconsistent lengths in " + meta.file);
  }
  auto parsed = report::parse_datasets(
      util::BytesView{bytes}.subspan(payload_off, header->payload_len));
  if (!parsed) {
    throw std::runtime_error("store: unparsable payload in " + meta.file);
  }
  return std::move(*parsed);
}

SegmentIndex Store::load_index(const SegmentMeta& meta) {
  std::ifstream f(segment_path(meta.file), std::ios::binary);
  if (!f) throw std::runtime_error("store: cannot open " + segment_path(meta.file));
  util::Bytes head(kSegmentHeaderSize);
  f.read(reinterpret_cast<char*>(head.data()),
         static_cast<std::streamsize>(head.size()));
  if (static_cast<std::size_t>(f.gcount()) != head.size()) {
    throw std::runtime_error("store: short header in " + meta.file);
  }
  const auto header = decode_segment_header(util::BytesView{head});
  if (!header) {
    throw std::runtime_error("store: bad segment header in " + meta.file);
  }
  util::Bytes index_bytes(header->index_len);
  f.read(reinterpret_cast<char*>(index_bytes.data()),
         static_cast<std::streamsize>(index_bytes.size()));
  if (static_cast<std::size_t>(f.gcount()) != index_bytes.size()) {
    throw std::runtime_error("store: short index in " + meta.file);
  }
  registry_.counter("store.segments_opened").inc();
  registry_.counter("store.index_bytes_read")
      .inc(kSegmentHeaderSize + index_bytes.size());
  util::ByteReader r(util::BytesView{index_bytes});
  auto index = decode_index(r);
  if (!r.done()) {
    throw std::runtime_error("store: trailing index bytes in " + meta.file);
  }
  return index;
}

std::vector<std::string> Store::segment_hashes() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> hashes;
  hashes.reserve(segments_.size());
  for (const auto& m : segments_) hashes.push_back(m.hash);
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

std::optional<util::Bytes> Store::read_segment_bytes(const std::string& hash) {
  std::optional<SegmentMeta> meta;
  {
    std::lock_guard lock(mu_);
    for (const auto& m : segments_) {
      if (m.hash == hash) {
        meta = m;
        break;
      }
    }
  }
  if (!meta) return std::nullopt;
  auto bytes = util::read_file(segment_path(meta->file));
  if (content_hash(util::BytesView{bytes}) != meta->hash) {
    registry_.counter("store.verify_failures").inc();
    throw std::runtime_error("store: content hash mismatch for " + meta->file);
  }
  registry_.counter("store.segment_bytes_read").inc(bytes.size());
  return bytes;
}

ImportResult Store::import_segment(util::BytesView bytes) {
  // Full validation up front: nothing reaches the write path unless it is a
  // complete, parsable segment. The content hash is computed over exactly
  // the bytes written, so a verified import is indistinguishable from a
  // local commit of the same content.
  const auto header = decode_segment_header(bytes);
  if (!header) {
    throw std::invalid_argument("store: import: bad segment header");
  }
  const std::size_t payload_off = kSegmentHeaderSize + header->index_len;
  if (payload_off + header->payload_len != bytes.size()) {
    throw std::invalid_argument("store: import: inconsistent segment lengths");
  }
  try {
    util::ByteReader r(bytes.subspan(kSegmentHeaderSize, header->index_len));
    (void)decode_index(r);
    if (!r.done()) {
      throw std::invalid_argument("store: import: trailing index bytes");
    }
  } catch (const util::TruncatedInput&) {
    throw std::invalid_argument("store: import: truncated index");
  }
  if (!report::parse_datasets(bytes.subspan(payload_off, header->payload_len))) {
    throw std::invalid_argument("store: import: unparsable payload");
  }
  const auto hash = content_hash(bytes);
  const std::string file = hash.substr(0, 16) + ".seg";

  std::lock_guard lock(mu_);
  for (const auto& m : segments_) {
    if (m.hash == hash) return {m, false};
  }
  // Unlike commit(), an import never displaces an existing shard slot:
  // replication is a grow-only set union, so replica contents cannot depend
  // on the order segments arrive in.
  DirLock write_lock(lock_path(), LOCK_SH);
  util::write_file_atomic(segment_path(file), bytes);
  SegmentMeta meta;
  meta.seq = next_seq_++;
  meta.kind = header->kind;
  meta.fingerprint = header->fingerprint;
  meta.shard_index = header->shard_index;
  meta.shard_count = header->shard_count;
  meta.seed = header->seed;
  meta.bytes = bytes.size();
  meta.hash = hash;
  meta.file = file;
  segments_.push_back(meta);
  write_manifest_locked();
  registry_.counter("store.segments_imported").inc();
  registry_.counter("store.bytes_imported").inc(bytes.size());
  util::log_line(util::LogLevel::kInfo, "store",
                 "imported " + to_string(meta.kind) + " segment " + file +
                     " (" + std::to_string(bytes.size()) + " bytes)");
  return {meta, true};
}

SegmentMeta Store::compact() {
  std::lock_guard lock(mu_);
  if (segments_.empty()) {
    throw std::runtime_error("store: nothing to compact in " + dir_);
  }
  if (segments_.size() == 1) return segments_.front();

  // Merge in content-hash order — a pure function of the segment *set*,
  // never of seq, completion or directory order — so replicas that converged
  // on the same set through any interleaving of commits and imports compact
  // to byte-identical artifacts (§14). merge_study_results keeps part 0's
  // probe campaign (only one shard runs it), so pick the campaign from the
  // first hash-ordered part that actually has one — also set-determined.
  std::vector<SegmentMeta> ordered = segments_;
  std::sort(ordered.begin(), ordered.end(),
            [](const SegmentMeta& a, const SegmentMeta& b) {
              return a.hash < b.hash;
            });
  std::vector<core::StudyResults> parts;
  std::uint64_t merged_bytes = 0;
  parts.reserve(ordered.size());
  std::optional<core::ProbeCampaignResult> campaign;
  for (const auto& m : ordered) {
    parts.push_back(load_payload(m));
    merged_bytes += m.bytes;
    if (!campaign && !campaign_empty(parts.back().d_pc2)) {
      campaign = parts.back().d_pc2;
    }
  }
  auto merged = core::merge_study_results(std::move(parts));
  if (campaign) merged.d_pc2 = std::move(*campaign);

  SegmentHeader header;
  header.kind = SegmentKind::kCompacted;
  const auto payload = report::serialize_datasets(merged);
  const auto bytes =
      encode_segment(header, build_index(merged), util::BytesView{payload});
  const auto hash = content_hash(util::BytesView{bytes});
  const std::string file = hash.substr(0, 16) + ".seg";

  const std::vector<SegmentMeta> old = std::move(segments_);
  DirLock write_lock(lock_path(), LOCK_SH);
  util::write_file_atomic(segment_path(file), util::BytesView{bytes});
  SegmentMeta meta;
  // Seq restarts at 1: after compaction the manifest, like the segment, is
  // a function of the merged set alone, so converged replicas byte-compare.
  meta.seq = 1;
  meta.kind = SegmentKind::kCompacted;
  meta.bytes = bytes.size();
  meta.hash = hash;
  meta.file = file;
  segments_ = {meta};
  next_seq_ = 2;
  write_manifest_locked();
  for (const auto& m : old) {
    if (m.file != file) {
      std::error_code ec;
      fs::remove(segment_path(m.file), ec);
    }
  }
  registry_.counter("store.segments_written").inc();
  registry_.counter("store.bytes_written").inc(bytes.size());
  registry_.counter("store.segments_compacted").inc(old.size());
  registry_.counter("store.bytes_compacted").inc(merged_bytes);
  util::log_line(util::LogLevel::kInfo, "store",
                 "compacted " + std::to_string(old.size()) + " segment(s) (" +
                     std::to_string(merged_bytes) + " bytes) into " + file);
  return meta;
}

std::uint64_t study_fingerprint(const core::ParallelStudyConfig& cfg) {
  util::ByteWriter w;
  w.u32(kManifestVersion);  // bumping invalidates fingerprints across format changes
  w.u64(cfg.base.seed);
  w.u32(static_cast<std::uint32_t>(cfg.shards));
  w.u32(static_cast<std::uint32_t>(cfg.base.world.total_samples));
  w.u8(static_cast<std::uint8_t>(cfg.base.chaos));
  w.u64(cfg.base.chaos_seed);
  w.u64(std::bit_cast<std::uint64_t>(cfg.base.loss));
  w.u8(cfg.base.run_probe_campaign ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(cfg.base.probe_rounds));
  w.u64(static_cast<std::uint64_t>(cfg.base.observe_duration.us));
  w.u64(static_cast<std::uint64_t>(cfg.base.live_duration.us));
  w.u64(static_cast<std::uint64_t>(cfg.base.probe_duration.us));
  w.u32(static_cast<std::uint32_t>(cfg.base.handshaker_threshold));
  w.u64(std::bit_cast<std::uint64_t>(cfg.base.pps_threshold));
  w.u32(static_cast<std::uint32_t>(cfg.base.max_candidates_per_sample));
  w.u32(static_cast<std::uint32_t>(cfg.base.max_live_runs_per_c2));
  w.u64(static_cast<std::uint64_t>(cfg.base.requery_day));
  // Family profiles shape every dataset; a changed profile set (or variant
  // routing) must invalidate resume, while reloading byte-identical
  // profiles must not.
  const profile::Registry* reg = cfg.base.profiles            ? cfg.base.profiles.get()
                                 : cfg.base.world.profiles != nullptr
                                     ? cfg.base.world.profiles
                                     : &profile::Registry::builtin();
  w.u64(reg->set_hash());
  w.lp16(cfg.base.world.variant_name);
  w.u64(std::bit_cast<std::uint64_t>(cfg.base.world.variant_fraction));
  return util::fnv1a64(util::to_string(util::BytesView{w.bytes()}));
}

core::StudyResults run_store_study(core::ParallelStudyConfig cfg, Store& store,
                                   bool resume) {
  const std::uint64_t fingerprint = study_fingerprint(cfg);
  const int shards = cfg.shards;
  const std::uint64_t base_seed = cfg.base.seed;
  if (resume) {
    // Counters are registry-owned; the references outlive the study.
    auto& hits = store.registry().counter("store.resume_hits");
    auto& misses = store.registry().counter("store.resume_misses");
    cfg.shard_preload = [&store, &hits, &misses, fingerprint,
                         shards](int shard) -> std::optional<core::StudyResults> {
      auto loaded = store.load_verified_shard(
          fingerprint, static_cast<std::uint32_t>(shard),
          static_cast<std::uint32_t>(shards));
      (loaded ? hits : misses).inc();
      if (loaded) {
        util::log_line(util::LogLevel::kInfo, "store",
                       "resume: shard " + std::to_string(shard) +
                           " verified, skipping execution");
      }
      return loaded;
    };
  }
  cfg.on_shard_complete = [&store, fingerprint, shards, base_seed](
                              int shard, const core::StudyResults& results) {
    store.commit(results, SegmentKind::kShard, fingerprint,
                 static_cast<std::uint32_t>(shard),
                 static_cast<std::uint32_t>(shards),
                 core::shard_seed(base_seed, shards, shard));
  };
  return core::ParallelStudy(std::move(cfg)).run();
}

}  // namespace malnet::store
