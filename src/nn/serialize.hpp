// Binary checkpoint serialization for CausalLm (and any named tensor map).
//
// Format: magic "ELLM", version, entry count, then per entry:
// name length + name bytes + ndim + extents + raw fp32 data. Little-endian
// host order (the reproduction targets a single host).
//
// Version 2 (current writer) appends a CRC-32 footer over everything that
// precedes it, and save_state_dict commits atomically and durably (fsync
// the temp file, rename, fsync the directory), so a power cut mid-write
// never leaves a half-checkpoint under the final name and bit rot is
// detected at load instead of silently loading garbage.
// Version 1 files (no footer) are still readable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "nn/model.hpp"

namespace edgellm::nn {

/// CRC-32 (IEEE 802.3, reflected poly 0xEDB88320) over a byte range.
/// Pass a previous return value as `seed` to checksum incrementally.
uint32_t crc32(const void* data, size_t len, uint32_t seed = 0);

/// Writes a state dict to `path` atomically (temp file + rename) with a
/// CRC-32 footer; throws std::runtime_error on I/O failure. No partial or
/// torn file is ever visible at `path`, and once it returns the file and
/// its directory entry are on stable storage (both fsync'd).
void save_state_dict(const std::map<std::string, Tensor>& state, const std::string& path);

/// fsyncs the file or directory at `path`; throws std::runtime_error on
/// failure.
void fsync_path(const std::string& path);

/// fsyncs the directory holding `path`, making a rename into it durable.
void fsync_parent_dir(const std::string& path);

/// Reads a state dict written by save_state_dict (v1 or v2). Rejects
/// truncated, corrupted (CRC mismatch), or structurally implausible files
/// (absurd entry counts / name lengths / extents) with std::runtime_error
/// rather than undefined behaviour or bad_alloc.
std::map<std::string, Tensor> load_state_dict_file(const std::string& path);

// --- exact scalar/byte payload helpers --------------------------------------
// Training state (step counters, RNG streams) must round-trip bit-exactly
// through the float-tensor entry format. Integers <= 65535 are exactly
// representable in fp32, so a uint64 travels as four 16-bit limbs and a byte
// string as one float per byte.

/// Packs a uint64 into a {4} tensor of little-endian 16-bit limbs.
Tensor pack_u64(uint64_t v);
/// Inverse of pack_u64; throws std::runtime_error on malformed input.
uint64_t unpack_u64(const Tensor& t);

/// Packs an arbitrary byte string into a {n} tensor (one float per byte).
Tensor pack_bytes(const std::string& bytes);
/// Inverse of pack_bytes; throws std::runtime_error on out-of-range values.
std::string unpack_bytes(const Tensor& t);

/// Convenience: snapshot / restore a model whose config the caller holds.
void save_model(CausalLm& model, const std::string& path);
void load_model(CausalLm& model, const std::string& path);

/// Self-describing checkpoint: the architecture config rides along in a
/// reserved "__config__" entry, so load can reconstruct the model without
/// out-of-band information (what a CLI or a deployment artifact needs).
void save_model_with_config(CausalLm& model, const std::string& path);
std::unique_ptr<CausalLm> load_model_with_config(const std::string& path);

}  // namespace edgellm::nn
