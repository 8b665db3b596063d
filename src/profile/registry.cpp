#include "profile/registry.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "profile/parse.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace malnet::profile {

Registry::Registry() {
  for (int i = 0; i < proto::kFamilyCount; ++i) {
    FamilyProfile p = builtin_profile(static_cast<proto::Family>(i));
    std::string key = p.name;
    profiles_.emplace(std::move(key), std::move(p));
  }
}

const Registry& Registry::builtin() {
  static const Registry instance;
  return instance;
}

std::optional<std::string> Registry::load_file(const std::string& path) {
  util::Bytes bytes;
  try {
    bytes = util::read_file(path);
  } catch (const std::runtime_error&) {
    return path + ": cannot open";
  }
  const std::string text(bytes.begin(), bytes.end());
  ParseIssue issue;
  auto p = parse_profile(text, &issue);
  if (!p) return path + ": " + issue.render();
  // operator[] assigns in place on overwrite, so pointers handed out by
  // active()/by_name() stay valid (and now see the new content).
  profiles_[p->name] = std::move(*p);
  return std::nullopt;
}

std::optional<std::string> Registry::load_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return dir + ": not a directory";
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".json") files.push_back(entry.path().string());
  }
  if (ec) return dir + ": " + ec.message();
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    if (auto err = load_file(path)) return err;
  }
  return std::nullopt;
}

const FamilyProfile* Registry::active(proto::Family f) const {
  const auto it = profiles_.find(proto::to_string(f));
  return it == profiles_.end() ? nullptr : &it->second;
}

const FamilyProfile* Registry::by_name(const std::string& name) const {
  const auto it = profiles_.find(name);
  return it == profiles_.end() ? nullptr : &it->second;
}

std::vector<const FamilyProfile*> Registry::all() const {
  std::vector<const FamilyProfile*> out;
  out.reserve(profiles_.size());
  for (const auto& [name, p] : profiles_) out.push_back(&p);
  return out;
}

std::uint64_t Registry::set_hash() const {
  std::string blob;
  for (const auto& [name, p] : profiles_) {
    blob += name;
    blob += '\0';
    blob += obs::json::write(p.to_json());
    blob += '\n';
  }
  return util::fnv1a64(blob);
}

}  // namespace malnet::profile
