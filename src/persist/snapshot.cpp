#include "persist/snapshot.hpp"

#include <bit>
#include <cstring>
#include <limits>

#include "common/crc32c.hpp"

namespace spx::persist {

namespace {

// Little-endian body serializer, same conventions as the wire protocol's
// WireWriter/WireReader (net/protocol.cpp) but throwing SnapshotError so
// a corrupt file never surfaces as a protocol complaint.

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void index_array(std::span<const index_t> v) {
    u64(v.size());
    for (const index_t x : v) i32(x);
  }
  void real_array(std::span<const real_t> v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
      out_.insert(out_.end(), p, p + v.size() * sizeof(real_t));
    } else {
      for (const real_t x : v) f64(x);
    }
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(b[i]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::vector<index_t> index_array() {
    const std::uint64_t n = count(sizeof(index_t));
    std::vector<index_t> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = i32();
    return v;
  }
  std::vector<real_t> real_array() {
    const std::uint64_t n = count(sizeof(real_t));
    std::vector<real_t> v(static_cast<std::size_t>(n));
    if constexpr (std::endian::native == std::endian::little) {
      const auto b = take(v.size() * sizeof(real_t));
      if (!b.empty()) std::memcpy(v.data(), b.data(), b.size());
    } else {
      for (auto& x : v) x = f64();
    }
    return v;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  void expect_end() const {
    if (remaining() != 0) {
      throw SnapshotError("trailing bytes after snapshot body");
    }
  }

 private:
  std::uint64_t count(std::size_t elem) {
    const std::uint64_t n = u64();
    if (n > remaining() / elem) {
      throw SnapshotError("snapshot array extends past end of file");
    }
    return n;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) throw SnapshotError("truncated snapshot body");
    const auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void write_quality(Writer& w, const FactorQuality& q) {
  w.i32(q.perturbed_pivots);
  w.index_array(q.perturbed_columns);
  w.f64(q.min_pivot);
  w.f64(q.max_pivot);
  w.f64(q.anorm);
  w.f64(q.threshold);
  w.u8(q.indefinite ? 1 : 0);
}

FactorQuality read_quality(Reader& r) {
  FactorQuality q;
  q.perturbed_pivots = r.i32();
  q.perturbed_columns = r.index_array();
  q.min_pivot = r.f64();
  q.max_pivot = r.f64();
  q.anorm = r.f64();
  q.threshold = r.f64();
  q.indefinite = r.u8() != 0;
  return q;
}

void write_analysis(Writer& w, const Analysis& an) {
  w.i64(an.nnz_a);
  w.i64(an.amalgamation_fill);
  w.index_array(an.perm.new_to_old);
  const SymbolicStructure& st = an.structure;
  w.u64(st.panels.size());
  for (const Panel& p : st.panels) {
    w.i32(p.col_begin);
    w.i32(p.col_end);
    w.i32(p.supernode);
    w.i64(p.storage_offset);
    w.i32(p.nrows);
    w.u64(p.blocks.size());
    for (const Block& b : p.blocks) {
      w.i32(b.row_begin);
      w.i32(b.row_end);
      w.i32(b.facing_panel);
      w.i32(b.offset);
    }
  }
  w.index_array(st.panel_of_col);
  w.u64(st.targets.size());
  for (const auto& edges : st.targets) {
    w.u64(edges.size());
    for (const UpdateEdge& e : edges) {
      w.i32(e.dst);
      w.i32(e.first_block);
      w.i32(e.last_block);
    }
  }
  w.index_array(st.in_degree);
  w.i64(st.factor_entries);
  w.i64(st.nnz_factor);
}

Analysis read_analysis(Reader& r) {
  Analysis an;
  an.nnz_a = r.i64();
  an.amalgamation_fill = r.i64();
  std::vector<index_t> new_to_old = r.index_array();
  try {
    an.perm = Ordering::from_new_to_old(std::move(new_to_old));
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("snapshot ordering invalid: ") +
                        e.what());
  }
  SymbolicStructure& st = an.structure;
  const std::uint64_t npanels = r.u64();
  if (npanels > static_cast<std::uint64_t>(
                    std::numeric_limits<index_t>::max())) {
    throw SnapshotError("snapshot panel count overflows index_t");
  }
  st.panels.reserve(static_cast<std::size_t>(npanels));
  for (std::uint64_t i = 0; i < npanels; ++i) {
    Panel p;
    p.col_begin = r.i32();
    p.col_end = r.i32();
    p.supernode = r.i32();
    p.storage_offset = r.i64();
    p.nrows = r.i32();
    const std::uint64_t nblocks = r.u64();
    if (nblocks > r.remaining() / 16) {
      throw SnapshotError("snapshot block count exceeds file size");
    }
    p.blocks.reserve(static_cast<std::size_t>(nblocks));
    for (std::uint64_t j = 0; j < nblocks; ++j) {
      Block b;
      b.row_begin = r.i32();
      b.row_end = r.i32();
      b.facing_panel = r.i32();
      b.offset = r.i32();
      p.blocks.push_back(b);
    }
    st.panels.push_back(std::move(p));
  }
  st.panel_of_col = r.index_array();
  const std::uint64_t ntargets = r.u64();
  if (ntargets != npanels) {
    throw SnapshotError("snapshot target-list count mismatches panels");
  }
  st.targets.resize(static_cast<std::size_t>(ntargets));
  for (auto& edges : st.targets) {
    const std::uint64_t nedges = r.u64();
    if (nedges > r.remaining() / 12) {
      throw SnapshotError("snapshot edge count exceeds file size");
    }
    edges.reserve(static_cast<std::size_t>(nedges));
    for (std::uint64_t j = 0; j < nedges; ++j) {
      UpdateEdge e;
      e.dst = r.i32();
      e.first_block = r.i32();
      e.last_block = r.i32();
      edges.push_back(e);
    }
  }
  st.in_degree = r.index_array();
  st.factor_entries = r.i64();
  st.nnz_factor = r.i64();
  // Structural validation: a snapshot passing the CRC could still have
  // been written by a buggy producer; never hand the factor kernels an
  // inconsistent block structure.  The row maps are not stored; they are
  // rebuilt from the validated blocks, which also checks that every
  // edge's rows exist in its target.
  try {
    st.validate();
    if (an.perm.size() != st.num_cols()) {
      throw InvalidArgument("ordering size differs from the structure's");
    }
    build_row_maps(st);
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("snapshot structure invalid: ") +
                        e.what());
  }
  return an;
}

}  // namespace

std::uint64_t value_hash(std::span<const real_t> values) {
  // FNV-1a over the canonical little-endian byte image of each value
  // (endian-stable, like pattern_digest in mat/csc.hpp).
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const real_t v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  return h;
}

std::vector<std::uint8_t> encode_snapshot(const FactorSnapshot& snap) {
  SPX_CHECK_ARG(snap.analysis != nullptr,
                "encode_snapshot: snapshot has no analysis");
  std::vector<std::uint8_t> body;
  {
    Writer w(body);
    w.u64(snap.pattern_digest);
    w.u64(snap.value_hash);
    w.u8(static_cast<std::uint8_t>(snap.kind));
    w.u8(snap.precision);
    w.u64(snap.factor_id);
    write_analysis(w, *snap.analysis);
    write_quality(w, snap.quality);
    w.real_array(snap.lval);
    w.real_array(snap.uval);
    w.real_array(snap.dval);
  }
  std::vector<std::uint8_t> out;
  out.reserve(kSnapshotHeaderBytes + body.size());
  Writer h(out);
  h.u32(kSnapshotMagic);
  h.u32(kSnapshotVersion);
  h.u64(body.size());
  h.u32(crc32c(body.data(), body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

FactorSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    throw SnapshotError("snapshot shorter than its header");
  }
  Reader h(bytes.first(kSnapshotHeaderBytes));
  if (h.u32() != kSnapshotMagic) {
    throw SnapshotError("bad snapshot magic");
  }
  const std::uint32_t version = h.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError("snapshot version skew: file v" +
                        std::to_string(version) + ", loader v" +
                        std::to_string(kSnapshotVersion));
  }
  const std::uint64_t length = h.u64();
  const std::uint32_t crc = h.u32();
  if (bytes.size() - kSnapshotHeaderBytes != length) {
    throw SnapshotError("snapshot body length mismatch (truncated file?)");
  }
  const auto body = bytes.subspan(kSnapshotHeaderBytes);
  if (crc32c(body.data(), body.size()) != crc) {
    throw SnapshotError("snapshot checksum mismatch (corrupted file)");
  }

  Reader r(body);
  FactorSnapshot snap;
  snap.pattern_digest = r.u64();
  snap.value_hash = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(Factorization::LU)) {
    throw SnapshotError("unknown factorization kind in snapshot");
  }
  snap.kind = static_cast<Factorization>(kind);
  snap.precision = r.u8();
  if (snap.precision != 0) {
    throw SnapshotError("unknown snapshot precision " +
                        std::to_string(int(snap.precision)) +
                        " (only fp64 snapshots are supported)");
  }
  snap.factor_id = r.u64();
  Analysis an = read_analysis(r);
  snap.quality = read_quality(r);
  snap.lval = r.real_array();
  snap.uval = r.real_array();
  snap.dval = r.real_array();
  r.expect_end();

  const auto entries = static_cast<std::size_t>(an.structure.factor_entries);
  const auto ncols = static_cast<std::size_t>(an.structure.num_cols());
  const bool sizes_ok =
      snap.lval.size() == entries &&
      snap.uval.size() ==
          (snap.kind == Factorization::LU ? entries : std::size_t{0}) &&
      snap.dval.size() ==
          (snap.kind == Factorization::LDLT ? ncols : std::size_t{0});
  if (!sizes_ok) {
    throw SnapshotError("snapshot value arrays mismatch the structure");
  }
  snap.analysis = std::make_shared<const Analysis>(std::move(an));
  return snap;
}

}  // namespace spx::persist
