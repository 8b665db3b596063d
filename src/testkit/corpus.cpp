#include "testkit/corpus.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "util/fsio.hpp"

#ifndef MALNET_TESTKIT_CORPUS_DIR
#define MALNET_TESTKIT_CORPUS_DIR ""
#endif

namespace malnet::testkit {

namespace fs = std::filesystem;

std::string corpus_dir() {
  if (const char* env = std::getenv("MALNET_CORPUS_DIR"); env && *env) {
    return env;
  }
  return MALNET_TESTKIT_CORPUS_DIR;
}

std::vector<CorpusEntry> load_corpus(const std::string& dir) {
  if (dir.empty() || !fs::is_directory(dir)) {
    throw std::runtime_error(
        "testkit: corpus directory not found: '" + dir +
        "' (set MALNET_CORPUS_DIR or run malnet_make_corpus)");
  }
  std::vector<CorpusEntry> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    out.push_back(CorpusEntry{entry.path().filename().string(),
                              util::read_file(entry.path())});
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) { return a.name < b.name; });
  if (out.empty()) {
    throw std::runtime_error("testkit: corpus directory is empty: " + dir);
  }
  return out;
}

std::vector<CorpusEntry> load_default_corpus() { return load_corpus(corpus_dir()); }

util::Bytes corpus_file(const std::string& name) {
  return util::read_file(fs::path(corpus_dir()) / name);
}

std::vector<util::Bytes> corpus_inputs(const std::string& prefix) {
  std::vector<util::Bytes> out;
  for (auto& entry : load_default_corpus()) {
    if (entry.name.rfind(prefix, 0) == 0) out.push_back(std::move(entry.data));
  }
  if (out.empty()) {
    throw std::runtime_error("testkit: no corpus entries with prefix '" +
                             prefix + "'");
  }
  return out;
}

}  // namespace malnet::testkit
