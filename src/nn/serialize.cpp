#include "nn/serialize.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace edgellm::nn {

namespace {

constexpr char kMagic[4] = {'E', 'L', 'L', 'M'};
constexpr uint32_t kVersion = 2;  ///< v2 = v1 body + CRC-32 footer

// Structural plausibility bounds for load hardening: anything past these is
// a corrupt or hostile file, not a real checkpoint, and gets a clean throw
// instead of a multi-gigabyte allocation or UB.
constexpr uint64_t kMaxEntries = 1ull << 20;
constexpr uint64_t kMaxNameLen = 4096;
constexpr uint64_t kMaxRank = 8;
constexpr uint64_t kMaxExtent = 1ull << 32;

void write_u64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked cursor over an in-memory checkpoint image. Every read
/// validates the remaining byte count first, so a truncated file can never
/// read past the buffer.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  void need(uint64_t bytes) const {
    if (bytes > size_ - off_) {
      throw std::runtime_error("checkpoint truncated: " + path_);
    }
  }

  void read(void* out, uint64_t bytes) {
    need(bytes);
    std::memcpy(out, data_ + off_, static_cast<size_t>(bytes));
    off_ += static_cast<size_t>(bytes);
  }

  uint64_t u64() {
    uint64_t v = 0;
    read(&v, sizeof(v));
    return v;
  }

  std::string str(uint64_t len) {
    need(len);
    std::string s(data_ + off_, static_cast<size_t>(len));
    off_ += static_cast<size_t>(len);
    return s;
  }

  uint64_t remaining() const { return size_ - off_; }
  void skip(uint64_t bytes) { need(bytes); off_ += static_cast<size_t>(bytes); }

 private:
  const char* data_;
  size_t size_;
  size_t off_ = 0;
  std::string path_;
};

}  // namespace

uint32_t crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Tensor pack_u64(uint64_t v) {
  return Tensor({4}, std::vector<float>{
                         static_cast<float>(v & 0xFFFFu),
                         static_cast<float>((v >> 16) & 0xFFFFu),
                         static_cast<float>((v >> 32) & 0xFFFFu),
                         static_cast<float>((v >> 48) & 0xFFFFu)});
}

uint64_t unpack_u64(const Tensor& t) {
  if (t.numel() != 4) throw std::runtime_error("unpack_u64: expected 4 limbs");
  uint64_t v = 0;
  for (int64_t i = 0; i < 4; ++i) {
    const float limb = t[i];
    if (limb < 0.0f || limb > 65535.0f || limb != static_cast<float>(static_cast<uint64_t>(limb))) {
      throw std::runtime_error("unpack_u64: limb out of range");
    }
    v |= static_cast<uint64_t>(limb) << (16 * i);
  }
  return v;
}

Tensor pack_bytes(const std::string& bytes) {
  Tensor t({static_cast<int64_t>(bytes.size())});
  for (size_t i = 0; i < bytes.size(); ++i) {
    t[static_cast<int64_t>(i)] = static_cast<float>(static_cast<unsigned char>(bytes[i]));
  }
  return t;
}

std::string unpack_bytes(const Tensor& t) {
  std::string s(static_cast<size_t>(t.numel()), '\0');
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float b = t[i];
    if (b < 0.0f || b > 255.0f || b != static_cast<float>(static_cast<unsigned>(b))) {
      throw std::runtime_error("unpack_bytes: value out of byte range");
    }
    s[static_cast<size_t>(i)] = static_cast<char>(static_cast<unsigned char>(b));
  }
  return s;
}

void save_state_dict(const std::map<std::string, Tensor>& state, const std::string& path) {
  // Build the full image in memory first so the CRC covers exactly what is
  // written and the on-disk commit is a single stream-out + rename.
  std::ostringstream payload(std::ios::binary);
  payload.write(kMagic, 4);
  const uint32_t version = kVersion;
  payload.write(reinterpret_cast<const char*>(&version), sizeof(version));
  write_u64(payload, state.size());
  for (const auto& [name, tensor] : state) {
    write_u64(payload, name.size());
    payload.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_u64(payload, static_cast<uint64_t>(tensor.ndim()));
    for (int64_t d = 0; d < tensor.ndim(); ++d) {
      write_u64(payload, static_cast<uint64_t>(tensor.dim(d)));
    }
    payload.write(reinterpret_cast<const char*>(tensor.raw()),
                  static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
  const std::string bytes = payload.str();
  const uint32_t crc = crc32(bytes.data(), bytes.size());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open checkpoint for writing: " + tmp);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    os.flush();
    if (!os) {
      os.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("checkpoint write failed: " + tmp);
    }
  }
  // Durable commit: the bytes reach the disk before the rename publishes
  // them, and the directory entry after it — otherwise a power cut can
  // leave an empty file under the final name.
  try {
    fsync_path(tmp);
  } catch (...) {
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code rm_ec;
    std::filesystem::remove(tmp, rm_ec);
    throw std::runtime_error("cannot commit checkpoint " + path + ": " + ec.message());
  }
  fsync_parent_dir(path);
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("cannot open for fsync: " + path + ": " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) throw std::runtime_error("fsync failed: " + path + ": " + std::strerror(err));
}

void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  fsync_path(dir.empty() ? std::string(".") : dir.string());
}

std::map<std::string, Tensor> load_state_dict_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open checkpoint: " + path);
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (bytes.size() < 4 + sizeof(uint32_t) + sizeof(uint64_t)) {
    throw std::runtime_error("not an Edge-LLM checkpoint: " + path);
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    throw std::runtime_error("not an Edge-LLM checkpoint: " + path);
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != 1 && version != kVersion) {
    throw std::runtime_error("unsupported checkpoint version");
  }

  size_t payload_end = bytes.size();
  if (version >= 2) {
    payload_end -= sizeof(uint32_t);
    uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + payload_end, sizeof(stored));
    if (crc32(bytes.data(), payload_end) != stored) {
      throw std::runtime_error("checkpoint CRC mismatch (corrupt): " + path);
    }
  }

  ByteReader r(bytes.data(), payload_end, path);
  r.skip(4 + sizeof(uint32_t));  // magic + version, already validated

  std::map<std::string, Tensor> state;
  const uint64_t count = r.u64();
  if (count > kMaxEntries) {
    throw std::runtime_error("implausible checkpoint entry count in " + path);
  }
  for (uint64_t e = 0; e < count; ++e) {
    const uint64_t name_len = r.u64();
    if (name_len > kMaxNameLen) {
      throw std::runtime_error("implausible entry name length in " + path);
    }
    std::string name = r.str(name_len);
    const uint64_t ndim = r.u64();
    if (ndim > kMaxRank) throw std::runtime_error("implausible tensor rank in " + path);
    Shape shape;
    int64_t numel = 1;
    for (uint64_t d = 0; d < ndim; ++d) {
      const uint64_t extent = r.u64();
      if (extent > kMaxExtent) throw std::runtime_error("implausible extent in " + path);
      const auto ext = static_cast<int64_t>(extent);
      if (ext > 0 && numel > std::numeric_limits<int64_t>::max() / ext) {
        throw std::runtime_error("tensor extent overflow in " + path);
      }
      numel *= ext;
      shape.push_back(ext);
    }
    // An honest file has the data in its remaining bytes; checking before
    // the allocation turns a would-be bad_alloc into a clean error.
    if (static_cast<uint64_t>(numel) > r.remaining() / sizeof(float)) {
      throw std::runtime_error("checkpoint truncated: " + path);
    }
    Tensor t(shape);
    r.read(t.raw(), static_cast<uint64_t>(t.numel()) * sizeof(float));
    state.emplace(std::move(name), std::move(t));
  }
  return state;
}

void save_model(CausalLm& model, const std::string& path) {
  save_state_dict(model.state_dict(), path);
}

void load_model(CausalLm& model, const std::string& path) {
  model.load_state_dict(load_state_dict_file(path));
}

namespace {
constexpr const char* kConfigKey = "__config__";
}

namespace {
constexpr const char* kMaskPrefix = "__mask__.";
constexpr const char* kQuantPrefix = "__quant__.";
}  // namespace

void save_model_with_config(CausalLm& model, const std::string& path) {
  auto state = model.state_dict();

  // Compression state (masks + quant specs) rides along so a deployed
  // checkpoint is self-contained.
  for (TransformerBlock* b : model.blocks()) {
    for (Linear* lin : b->linears()) {
      const std::string& wname = lin->weight().name;
      if (lin->prune_mask()) {
        state.emplace(kMaskPrefix + wname, *lin->prune_mask());
      }
      if (lin->quant_spec()) {
        const quant::QuantSpec& q = *lin->quant_spec();
        state.emplace(kQuantPrefix + wname,
                      Tensor({4}, std::vector<float>{
                                      static_cast<float>(q.bits),
                                      q.symmetric ? 1.0f : 0.0f,
                                      static_cast<float>(static_cast<int>(q.granularity)),
                                      static_cast<float>(q.group_size)}));
      }
    }
  }
  const ModelConfig& cfg = model.config();
  std::vector<float> packed = {
      static_cast<float>(cfg.vocab),   static_cast<float>(cfg.d_model),
      static_cast<float>(cfg.n_layers), static_cast<float>(cfg.n_heads),
      static_cast<float>(cfg.kv_heads()),
      static_cast<float>(cfg.ff_dim()), static_cast<float>(cfg.max_seq),
      cfg.tie_exit_heads ? 1.0f : 0.0f, cfg.swiglu ? 1.0f : 0.0f,
      static_cast<float>(cfg.exit_layers.size())};
  for (int64_t e : cfg.exit_layers) packed.push_back(static_cast<float>(e));
  const int64_t packed_size = static_cast<int64_t>(packed.size());
  state.emplace(kConfigKey, Tensor({packed_size}, std::move(packed)));
  save_state_dict(state, path);
}

std::unique_ptr<CausalLm> load_model_with_config(const std::string& path) {
  auto state = load_state_dict_file(path);
  const auto it = state.find(kConfigKey);
  if (it == state.end()) {
    throw std::runtime_error("checkpoint has no embedded config: " + path);
  }
  const Tensor& c = it->second;
  if (c.numel() < 10) throw std::runtime_error("malformed config entry in " + path);
  ModelConfig cfg;
  cfg.vocab = static_cast<int64_t>(c[0]);
  cfg.d_model = static_cast<int64_t>(c[1]);
  cfg.n_layers = static_cast<int64_t>(c[2]);
  cfg.n_heads = static_cast<int64_t>(c[3]);
  cfg.n_kv_heads = static_cast<int64_t>(c[4]);
  cfg.d_ff = static_cast<int64_t>(c[5]);
  cfg.max_seq = static_cast<int64_t>(c[6]);
  cfg.tie_exit_heads = c[7] != 0.0f;
  cfg.swiglu = c[8] != 0.0f;
  const int64_t n_exits = static_cast<int64_t>(c[9]);
  if (c.numel() != 10 + n_exits) throw std::runtime_error("malformed config entry in " + path);
  for (int64_t e = 0; e < n_exits; ++e) {
    cfg.exit_layers.push_back(static_cast<int64_t>(c[10 + e]));
  }
  state.erase(it);

  // Split out compression entries before loading parameters.
  std::map<std::string, Tensor> masks, quants;
  for (auto iter = state.begin(); iter != state.end();) {
    if (iter->first.rfind(kMaskPrefix, 0) == 0) {
      masks.emplace(iter->first.substr(std::string(kMaskPrefix).size()), iter->second);
      iter = state.erase(iter);
    } else if (iter->first.rfind(kQuantPrefix, 0) == 0) {
      quants.emplace(iter->first.substr(std::string(kQuantPrefix).size()), iter->second);
      iter = state.erase(iter);
    } else {
      ++iter;
    }
  }

  Rng rng(0);  // weights are overwritten immediately
  auto model = std::make_unique<CausalLm>(cfg, rng);
  model->load_state_dict(state);

  for (TransformerBlock* b : model->blocks()) {
    for (Linear* lin : b->linears()) {
      const std::string& wname = lin->weight().name;
      const auto qit = quants.find(wname);
      if (qit != quants.end()) {
        const Tensor& qv = qit->second;
        if (qv.numel() != 4) throw std::runtime_error("malformed quant entry for " + wname);
        quant::QuantSpec q;
        q.bits = static_cast<int>(qv[0]);
        q.symmetric = qv[1] != 0.0f;
        q.granularity = static_cast<quant::Granularity>(static_cast<int>(qv[2]));
        q.group_size = static_cast<int64_t>(qv[3]);
        lin->set_quant(q);
      }
      const auto mit = masks.find(wname);
      if (mit != masks.end()) lin->set_prune_mask(mit->second);
    }
  }
  return model;
}

}  // namespace edgellm::nn
