// Crash-safe file replacement. write_file_atomic() is the one primitive
// every durable artifact goes through (MDS dataset saves, store segments,
// the store manifest): the bytes are staged in a hidden temp file in the
// target's directory, fsync'd, and renamed over the target. A reader can
// therefore never observe a half-written file — after a crash the target is
// either the complete old version or the complete new one, and the only
// possible litter is a temp file that the writer's next run (or the store's
// garbage collector) removes. read_file() is the matching read side: the
// one way any layer loads a whole file into memory.
#pragma once

#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace malnet::util {

/// Name of the staging file write_file_atomic uses for `path` in `pid`:
/// ".<name>.tmp<pid>" in the same directory (same filesystem, so the final
/// rename is atomic). Exposed so cleanup code can recognise stale temps.
[[nodiscard]] std::string atomic_temp_path(const std::string& path, long pid);

/// True if `name` (a bare file name, no directory) looks like a staging
/// file left behind by a crashed write_file_atomic.
[[nodiscard]] bool is_atomic_temp_name(std::string_view name);

/// Atomically replaces `path` with `data`: write temp + fsync + rename +
/// best-effort directory fsync. Throws std::runtime_error on any I/O
/// failure; on failure the target is untouched and the temp is unlinked.
void write_file_atomic(const std::string& path, BytesView data);
void write_file_atomic(const std::string& path, std::string_view text);

/// The whole contents of `path`. Throws std::runtime_error naming the path
/// when it cannot be opened.
[[nodiscard]] Bytes read_file(const std::string& path);

}  // namespace malnet::util
