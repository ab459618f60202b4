#include "runtime/checkpointer.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"

namespace fs = std::filesystem;

namespace edgellm::runtime {

namespace {
constexpr const char* kSlotPrefix = "ckpt-";
constexpr const char* kSlotSuffix = ".ellm";
}  // namespace

Checkpointer::Checkpointer(CheckpointerConfig cfg) : cfg_(std::move(cfg)) {
  check_arg(!cfg_.dir.empty(), "Checkpointer: dir must not be empty");
  check_arg(cfg_.keep >= 1, "Checkpointer: keep must be >= 1");
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
  if (ec) throw std::runtime_error("Checkpointer: cannot create " + cfg_.dir + ": " + ec.message());
}

std::string Checkpointer::slot_path(int64_t iter) const {
  std::ostringstream name;
  name << kSlotPrefix << std::setfill('0') << std::setw(8) << iter << kSlotSuffix;
  return (fs::path(cfg_.dir) / name.str()).string();
}

int64_t Checkpointer::slot_iter(const fs::path& path) {
  const std::string name = path.filename().string();
  const std::string prefix = kSlotPrefix, suffix = kSlotSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return -1;
  if (name.rfind(prefix, 0) != 0) return -1;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return -1;
  const std::string digits = name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) return -1;
  try {
    return std::stoll(digits);
  } catch (const std::exception&) {
    return -1;
  }
}

std::vector<fs::path> Checkpointer::slots() const {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cfg_.dir, ec)) {
    if (entry.is_regular_file() && slot_iter(entry.path()) >= 0) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end(),
            [](const fs::path& a, const fs::path& b) { return slot_iter(a) < slot_iter(b); });
  return out;
}

void Checkpointer::save(const core::Snapshot& snap) {
  // load_latest() recovers the iteration from the file contents (filenames
  // are untrusted), so the meta entry must be present and agree.
  const auto meta = snap.state.find("meta.iter");
  check_arg(meta != snap.state.end() &&
                nn::unpack_u64(meta->second) == static_cast<uint64_t>(snap.iter),
            "Checkpointer: snapshot lacks a matching meta.iter entry "
            "(build snapshots with capture_training_state)");
  const std::string final_path = slot_path(snap.iter);
  // Stage under a non-slot name: load_latest() can never see a half-written
  // slot, and a crash here only leaves a .part file to garbage-collect.
  const std::string staged = final_path + ".part";
  try {
    nn::save_state_dict(snap.state, staged);
    if (cfg_.pre_commit) cfg_.pre_commit(staged);
  } catch (...) {
    std::error_code ec;
    fs::remove(staged, ec);
    throw;
  }
  std::error_code ec;
  fs::rename(staged, final_path, ec);
  if (ec) {
    std::error_code rm_ec;
    fs::remove(staged, rm_ec);
    throw std::runtime_error("Checkpointer: cannot commit " + final_path + ": " + ec.message());
  }
  // The new slot must be durable before rotate() deletes older ones.
  nn::fsync_parent_dir(final_path);
  ++saves_;
  rotate();
}

void Checkpointer::rotate() {
  auto all = slots();
  while (static_cast<int64_t>(all.size()) > cfg_.keep) {
    std::error_code ec;
    fs::remove(all.front(), ec);
    all.erase(all.begin());
  }
}

std::optional<core::Snapshot> Checkpointer::load_latest() {
  auto all = slots();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    try {
      auto state = nn::load_state_dict_file(it->string());
      const auto meta = state.find("meta.iter");
      if (meta == state.end()) throw std::runtime_error("snapshot missing meta.iter");
      core::Snapshot snap;
      snap.iter = static_cast<int64_t>(nn::unpack_u64(meta->second));
      snap.state = std::move(state);
      return snap;
    } catch (const std::exception&) {
      // Corrupt or torn slot: fall back to the previous rotation slot.
      ++corrupt_skipped_;
    }
  }
  return std::nullopt;
}

}  // namespace edgellm::runtime
