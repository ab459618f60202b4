// Per-sequence key/value storage for incremental decoding, fp32 or
// int8-quantized (symmetric, one scale per cached row — the edge-standard
// 4x KV compression).
//
// The contiguous store behind IncrementalDecoder and single-sequence
// decode — the reference the serving engine's paged storage is
// differentially tested against.
//
// KvSequenceView is the row-addressed interface the decode path reads and
// writes through. Attention never assumes contiguous storage — it asks for
// one (layer, position) row at a time — so the serving layer can back a
// sequence with paged blocks (serve::PagedKvPool) instead of the
// contiguous vectors here, and the decode stays bitwise identical: the
// same float rows come back in the same order regardless of where they
// live.
#pragma once

#include <cstdint>
#include <vector>

namespace edgellm::nn {

/// Abstract row-addressed view of one sequence's KV cache. Positions are
/// dense per layer: append() adds row `positions(layer)` and reads address
/// rows [0, positions(layer)).
class KvSequenceView {
 public:
  virtual ~KvSequenceView() = default;

  /// Appends one position's K and V rows (`kv_dim` floats each) to `layer`.
  virtual void append(int64_t layer, const float* k, const float* v) = 0;

  /// Dequantises (or copies) a cached row into `out` (`kv_dim` floats).
  virtual void load_k(int64_t layer, int64_t pos, float* out) const = 0;
  virtual void load_v(int64_t layer, int64_t pos, float* out) const = 0;

  /// Direct pointer to a cached fp32 row — nullptr when quantized. Lets hot
  /// attention loops read rows in place instead of copying via load_k/load_v.
  virtual const float* k_row(int64_t layer, int64_t pos) const = 0;
  virtual const float* v_row(int64_t layer, int64_t pos) const = 0;

  virtual int64_t n_layers() const = 0;
  virtual int64_t kv_dim() const = 0;
  virtual bool quantized() const = 0;

  /// Cached positions in `layer` (layers above an early exit stay empty).
  virtual int64_t positions(int64_t layer) const = 0;

  /// Drops every cached position >= `n` in every layer (no-op for layers
  /// already at or below `n`). This is the speculative-decode rewind:
  /// drafted-but-rejected rows are discarded so the next append lands at
  /// position `n`. Backends must leave rows [0, n) bit-identical.
  virtual void truncate(int64_t n) = 0;

  /// Bytes currently held by storage this sequence owns (payload +
  /// quantisation scales; paged backends exclude shared prefix blocks).
  virtual int64_t bytes() const = 0;
};

/// Contiguous per-sequence storage: one growing vector per layer. The
/// single-sequence decoder's cache and the slot-addressed pool's unit.
class KvCache final : public KvSequenceView {
 public:
  KvCache() = default;
  KvCache(int64_t n_layers, int64_t kv_dim, bool quantize) {
    configure(n_layers, kv_dim, quantize);
  }

  /// Re-initialises storage for a new sequence (drops all positions).
  void configure(int64_t n_layers, int64_t kv_dim, bool quantize);

  /// Drops all cached positions, keeping the configuration.
  void clear();

  void append(int64_t layer, const float* k, const float* v) override;

  void load_k(int64_t layer, int64_t pos, float* out) const override;
  void load_v(int64_t layer, int64_t pos, float* out) const override;

  const float* k_row(int64_t layer, int64_t pos) const override {
    return quantize_ ? nullptr : k_[static_cast<std::size_t>(layer)].data() + pos * kv_dim_;
  }
  const float* v_row(int64_t layer, int64_t pos) const override {
    return quantize_ ? nullptr : v_[static_cast<std::size_t>(layer)].data() + pos * kv_dim_;
  }

  int64_t n_layers() const override { return n_layers_; }
  int64_t kv_dim() const override { return kv_dim_; }
  bool quantized() const override { return quantize_; }

  int64_t positions(int64_t layer) const override;

  void truncate(int64_t n) override;

  /// Bytes currently held (payload + quantisation scales).
  int64_t bytes() const override;

  /// Bytes one cached position costs across `n_layers` layers (K + V
  /// payload, plus one fp32 scale per row when quantized).
  static int64_t bytes_per_position(int64_t n_layers, int64_t kv_dim, bool quantize) {
    const int64_t per_row =
        quantize ? kv_dim + static_cast<int64_t>(sizeof(float))
                 : kv_dim * static_cast<int64_t>(sizeof(float));
    return n_layers * 2 * per_row;
  }

 private:
  int64_t n_layers_ = 0;
  int64_t kv_dim_ = 0;
  bool quantize_ = false;
  // Exactly one representation is populated depending on quantize_.
  std::vector<std::vector<float>> k_, v_;
  std::vector<std::vector<int8_t>> kq_, vq_;
  std::vector<std::vector<float>> kq_scales_, vq_scales_;

  void append_quantized(const float* row, std::vector<int8_t>& data, std::vector<float>& scales);
  void load_row(const std::vector<float>* fp, const std::vector<int8_t>* q,
                const std::vector<float>* scales, int64_t pos, float* out) const;
};

}  // namespace edgellm::nn
