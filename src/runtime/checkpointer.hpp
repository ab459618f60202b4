// On-disk crash-safe snapshot store (the robustness tentpole).
//
// Slot files (ckpt-<iter>.ellm) are ELLM v2 checkpoints: CRC-32 footer,
// written to a temp name, fsync'd and renamed into place, so a power cut
// mid-save can never tear a committed slot. The directory is fsync'd after
// the rename, before rotation deletes older slots, so a power cut can
// never leave the newest slot missing with the older ones already gone.
// A keep-N rotation bounds disk use, and
// load_latest() walks slots newest-first, skipping any that fail CRC or
// structural validation — one flipped byte costs one rotation slot, not
// the run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/snapshot.hpp"

namespace edgellm::runtime {

struct CheckpointerConfig {
  std::string dir;   ///< slot directory; created if missing
  int64_t keep = 3;  ///< rotation depth (>= 1)
  /// Fault-injection/test hook invoked with the staged temp file just
  /// before the commit rename; throwing aborts the save (no slot appears).
  std::function<void(const std::string& staged_path)> pre_commit;
};

class Checkpointer final : public core::SnapshotStore {
 public:
  explicit Checkpointer(CheckpointerConfig cfg);

  /// Atomically persists `snap` as slot ckpt-<iter>.ellm, then prunes the
  /// oldest slots beyond `keep`. Throws std::runtime_error on I/O failure,
  /// leaving existing slots untouched.
  void save(const core::Snapshot& snap) override;

  /// Newest slot that passes CRC + structural validation; corrupt slots are
  /// skipped (counted in corrupt_slots_skipped()). nullopt when none loads.
  std::optional<core::Snapshot> load_latest() override;

  /// Existing slot paths, sorted by iteration ascending.
  std::vector<std::filesystem::path> slots() const;

  /// Iteration encoded in a slot filename, or -1 for non-slot files.
  static int64_t slot_iter(const std::filesystem::path& path);

  const std::string& dir() const { return cfg_.dir; }
  int64_t saves() const { return saves_; }
  int64_t corrupt_slots_skipped() const { return corrupt_skipped_; }

 private:
  CheckpointerConfig cfg_;
  int64_t saves_ = 0;
  int64_t corrupt_skipped_ = 0;

  std::string slot_path(int64_t iter) const;
  void rotate();
};

}  // namespace edgellm::runtime
