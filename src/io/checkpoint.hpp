// Checkpoint / restart with the paper's active-inactive communicator logic
// (Sec II-E), hardened for production campaigns: the on-disk format is
// versioned (v2) with per-section byte counts and CRC32 checksums, every
// read is bounded by the file size (a truncated or corrupt file yields a
// typed CheckpointError, never a bad_alloc or a silent wrong state), writes
// go to a temp file that is renamed into place (a crash mid-write never
// clobbers the previous checkpoint), and restarts may land on *fewer* ranks
// than the writer as well as more.
//
// Rank-count semantics: checkpoints written from P_old ranks can be
// reloaded on any P_new >= 1 ranks. On load, the first min(P_old, P_new)
// ranks form the *active* communicator and receive the stored data
// block-distributed; any extra ranks hold empty partitions until the first
// repartition or remesh redistributes the tree across the full
// communicator — exactly the activation trigger the paper describes.
//
// Nodal fields are stored as (node key, values) pairs so restart is robust
// to renumbering; elemental fields are stored in leaf order and
// redistributed with the tree as the single source of truth (values are
// sliced to the tree's actual post-repartition leaf counts, so cell data
// can never drift out of alignment with the leaves).
//
// Only format v2 loads: a file with any other magic, including the
// retired unchecksummed v1 (magic PHTREE1), is a typed kBadMagic.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mesh/mesh.hpp"
#include "octree/distributed.hpp"
#include "support/check.hpp"

namespace pt::io {

// ---------------------------------------------------------------------------
// Typed error model
// ---------------------------------------------------------------------------

/// Failure classes for checkpoint IO. Recoverable corruption (anything a
/// bad disk or interrupted write can produce) maps to a code here instead
/// of aborting, so drivers can fall back to an older checkpoint.
enum class CkCode {
  kOk = 0,
  kOpenFailed,           ///< file missing or unreadable
  kWriteFailed,          ///< write or atomic-rename failure
  kBadMagic,             ///< not a PhaseTree checkpoint
  kUnsupportedVersion,   ///< format version newer than this reader
  kDimMismatch,          ///< file written for a different DIM
  kTruncated,            ///< file ends before a declared payload
  kBadCount,             ///< a count field exceeds what the file can hold
  kCrcMismatch,          ///< section checksum failed (v2)
  kBadSection,           ///< unknown section tag / trailing bytes
  kInvalidContent,       ///< semantic validation failed (unsorted, NaN, ...)
  kMissingField,         ///< a required named field is absent
  kUnknownField,         ///< an unrecognized named field is present
  kFieldShapeMismatch,   ///< a named field has the wrong ndof
  kNoValidCheckpoint,    ///< no restorable file found (resume driver)
  kSpecMismatch,         ///< checkpoint belongs to a different scenario
};

inline const char* ckCodeName(CkCode c) {
  switch (c) {
    case CkCode::kOk: return "ok";
    case CkCode::kOpenFailed: return "open-failed";
    case CkCode::kWriteFailed: return "write-failed";
    case CkCode::kBadMagic: return "bad-magic";
    case CkCode::kUnsupportedVersion: return "unsupported-version";
    case CkCode::kDimMismatch: return "dim-mismatch";
    case CkCode::kTruncated: return "truncated";
    case CkCode::kBadCount: return "bad-count";
    case CkCode::kCrcMismatch: return "crc-mismatch";
    case CkCode::kBadSection: return "bad-section";
    case CkCode::kInvalidContent: return "invalid-content";
    case CkCode::kMissingField: return "missing-field";
    case CkCode::kUnknownField: return "unknown-field";
    case CkCode::kFieldShapeMismatch: return "field-shape-mismatch";
    case CkCode::kNoValidCheckpoint: return "no-valid-checkpoint";
    case CkCode::kSpecMismatch: return "spec-mismatch";
  }
  return "unknown";
}

struct CkStatus {
  CkCode code = CkCode::kOk;
  std::string detail;

  bool ok() const { return code == CkCode::kOk; }
  static CkStatus fail(CkCode c, std::string d) { return {c, std::move(d)}; }
  std::string str() const {
    std::string s = ckCodeName(code);
    if (!detail.empty()) s += ": " + detail;
    return s;
  }
};

/// Typed checkpoint failure. Derives CheckError so legacy EXPECT_THROW
/// sites keep passing, but carries the machine-readable status.
class CheckpointError : public CheckError {
 public:
  explicit CheckpointError(CkStatus st)
      : CheckError("checkpoint error — " + st.str()), status_(std::move(st)) {}
  const CkStatus& status() const { return status_; }
  CkCode code() const { return status_.code; }

 private:
  CkStatus status_;
};

// ---------------------------------------------------------------------------
// In-memory checkpoint
// ---------------------------------------------------------------------------

template <int DIM>
struct Checkpoint {
  OctList<DIM> leaves;  ///< global linear octree
  /// Named nodal fields: (ndof, per-key values sorted by key).
  struct NodalField {
    std::string name;
    int ndof;
    std::vector<NodeKey<DIM>> keys;
    std::vector<Real> values;  ///< keys.size() * ndof
  };
  std::vector<NodalField> nodal;
  /// Named elemental fields in leaf order.
  struct CellField {
    std::string name;
    std::vector<Real> values;  ///< leaves.size()
  };
  std::vector<CellField> cell;
  /// Named integer metadata (step counter, etc.); v2 only on disk.
  std::vector<std::pair<std::string, std::int64_t>> meta;
  int writerRanks = 1;  ///< rank count at dump time (active comm size)

  /// Metadata lookup; returns `fallback` when absent.
  std::int64_t metaOr(const std::string& name, std::int64_t fallback) const {
    for (const auto& [k, v] : meta)
      if (k == name) return v;
    return fallback;
  }
};

/// Extracts a checkpoint from a live mesh + fields (dedup by node key,
/// owner's value wins — all copies agree on consistent fields).
template <int DIM>
Checkpoint<DIM> makeCheckpoint(
    const DistTree<DIM>& tree, const Mesh<DIM>& mesh,
    const std::vector<std::pair<std::string, std::pair<const Field*, int>>>&
        nodalFields,
    const std::vector<std::pair<std::string,
                                const sim::PerRank<std::vector<Real>>*>>&
        cellFields = {}) {
  Checkpoint<DIM> ck;
  ck.leaves = tree.gather();
  ck.writerRanks = tree.nRanks();
  for (const auto& [name, fi] : nodalFields) {
    const auto& [field, ndof] = fi;
    typename Checkpoint<DIM>::NodalField nf;
    nf.name = name;
    nf.ndof = ndof;
    std::map<NodeKey<DIM>, std::vector<Real>, NodeKeyLess<DIM>> byKey;
    for (int r = 0; r < mesh.nRanks(); ++r) {
      const RankMesh<DIM>& rm = mesh.rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li) {
        if (rm.nodeOwner[li] != r) continue;
        std::vector<Real> v(ndof);
        for (int d = 0; d < ndof; ++d) v[d] = (*field)[r][li * ndof + d];
        byKey[rm.nodeKeys[li]] = std::move(v);
      }
    }
    for (auto& [k, v] : byKey) {
      nf.keys.push_back(k);
      nf.values.insert(nf.values.end(), v.begin(), v.end());
    }
    ck.nodal.push_back(std::move(nf));
  }
  for (const auto& [name, vals] : cellFields) {
    typename Checkpoint<DIM>::CellField cf;
    cf.name = name;
    for (int r = 0; r < tree.nRanks(); ++r)
      cf.values.insert(cf.values.end(), (*vals)[r].begin(),
                       (*vals)[r].end());
    ck.cell.push_back(std::move(cf));
  }
  return ck;
}

// ---------------------------------------------------------------------------
// Semantic validation (runs after every load, and before every restore)
// ---------------------------------------------------------------------------

/// Checks the internal consistency a restore relies on: linear leaf list,
/// aligned octant anchors, strictly sorted node keys (lower_bound lookups
/// assume it), matching value counts, and finite values. It backstops the
/// v2 CRCs against writer bugs.
template <int DIM>
CkStatus validateCheckpoint(const Checkpoint<DIM>& ck) {
  using S = CkStatus;
  if (ck.writerRanks < 1)
    return S::fail(CkCode::kInvalidContent, "writerRanks < 1");
  for (const auto& o : ck.leaves) {
    if (o.level > kMaxLevel)
      return S::fail(CkCode::kInvalidContent, "leaf level out of range");
    const std::uint32_t mask = o.size() - 1;
    for (int d = 0; d < DIM; ++d)
      if (o.x[d] >= kMaxCoord || (o.x[d] & mask) != 0)
        return S::fail(CkCode::kInvalidContent, "leaf anchor misaligned");
  }
  if (!isLinear(ck.leaves))
    return S::fail(CkCode::kInvalidContent,
                   "leaf list not sorted/ancestor-free");
  for (const auto& nf : ck.nodal) {
    if (nf.ndof < 1 || nf.ndof > 64)
      return S::fail(CkCode::kInvalidContent,
                     "field '" + nf.name + "' ndof out of range");
    if (nf.values.size() != nf.keys.size() * static_cast<std::size_t>(nf.ndof))
      return S::fail(CkCode::kInvalidContent,
                     "field '" + nf.name + "' key/value count mismatch");
    NodeKeyLess<DIM> less;
    for (std::size_t i = 1; i < nf.keys.size(); ++i)
      if (!less(nf.keys[i - 1], nf.keys[i]))
        return S::fail(CkCode::kInvalidContent,
                       "field '" + nf.name + "' keys not strictly sorted");
    for (Real v : nf.values)
      if (!std::isfinite(v))
        return S::fail(CkCode::kInvalidContent,
                       "field '" + nf.name + "' has non-finite value");
  }
  for (const auto& cf : ck.cell) {
    if (cf.values.size() != ck.leaves.size())
      return S::fail(CkCode::kInvalidContent,
                     "cell field '" + cf.name + "' count != leaf count");
    for (Real v : cf.values)
      if (!std::isfinite(v))
        return S::fail(CkCode::kInvalidContent,
                       "cell field '" + cf.name + "' has non-finite value");
  }
  return {};
}

// ---------------------------------------------------------------------------
// Binary serialization — format v2
// ---------------------------------------------------------------------------
//
//   u64 magic "PHTREE2"    u64 version=2    u64 DIM    u64 writerRanks
//   u64 nSections   u64 crc32(previous 40 bytes)
//   per section:
//     u64 tag   u64 nameLen   name bytes
//     u64 payloadBytes   u64 crc32(tag || name || payload)   payload bytes
//
// Checksum coverage is total: the header CRC covers every header field,
// and each section CRC covers its tag, name and payload. The remaining
// bytes (nameLen, payloadBytes, the CRCs themselves) are covered
// indirectly — corrupting them changes what the CRC is computed over. A
// single flipped bit anywhere in a v2 file is therefore detected.
//
// Payloads (native endianness):
//   leaves: u64 count, per leaf DIM x u64 anchor + u64 level
//   nodal:  u64 ndof, u64 nKeys, keys (DIM x u64 each), values (Real)
//   cell:   u64 count, values (Real)
//   meta:   u64 count, per entry u64 nameLen + name + u64 value

inline constexpr std::uint64_t kCkMagicV2 = 0x50485452454532ull;  // "PHTREE2"
inline constexpr std::uint64_t kCkVersion = 2;

namespace ckdetail {

enum : std::uint64_t {
  kSecLeaves = 1,
  kSecNodal = 2,
  kSecCell = 3,
  kSecMeta = 4,
};

/// Streaming CRC32 (reflected 0xEDB88320): seed with kCrcInit, fold in any
/// number of ranges, finalize with kCrcFinal.
inline constexpr std::uint32_t kCrcInit = 0xFFFFFFFFu;
inline constexpr std::uint32_t kCrcFinal = 0xFFFFFFFFu;

inline std::uint32_t crc32Update(std::uint32_t c, const void* data,
                                 std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t x = i;
      for (int k = 0; k < 8; ++k)
        x = (x & 1) ? (0xEDB88320u ^ (x >> 1)) : (x >> 1);
      t[i] = x;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c;
}

inline std::uint32_t crc32(const void* data, std::size_t n) {
  return crc32Update(kCrcInit, data, n) ^ kCrcFinal;
}

/// CRC of one v2 section: tag (as its 8 on-disk bytes), name, payload.
inline std::uint32_t sectionCrc(std::uint64_t tag, const std::string& name,
                                const void* payload, std::size_t payloadLen) {
  std::uint32_t c = crc32Update(kCrcInit, &tag, 8);
  c = crc32Update(c, name.data(), name.size());
  c = crc32Update(c, payload, payloadLen);
  return c ^ kCrcFinal;
}

/// Append-only serialization buffer.
struct Buf {
  std::string b;
  void u64(std::uint64_t v) {
    b.append(reinterpret_cast<const char*>(&v), 8);
  }
  void real(Real v) { b.append(reinterpret_cast<const char*>(&v), sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    b.append(s);
  }
};

/// Bounds-checked read cursor over an in-memory byte range. Every accessor
/// fails (returns false) instead of reading past the end — the caller maps
/// that to kTruncated.
struct Cursor {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t pos = 0;

  std::size_t remaining() const { return n - pos; }
  bool raw(void* dst, std::size_t k) {
    if (remaining() < k) return false;
    std::memcpy(dst, p + pos, k);
    pos += k;
    return true;
  }
  bool u64(std::uint64_t& v) { return raw(&v, 8); }
  bool real(Real& v) { return raw(&v, sizeof v); }
  bool skip(std::size_t k) {
    if (remaining() < k) return false;
    pos += k;
    return true;
  }
};

}  // namespace ckdetail

/// Writes `ck` in format v2 atomically: the bytes go to `path + ".tmp"`,
/// which is renamed over `path` only after a successful flush — a crash or
/// full disk mid-write can never destroy the previous checkpoint. Throws
/// CheckpointError(kOpenFailed | kWriteFailed) on IO failure.
template <int DIM>
void saveCheckpoint(const std::string& path, const Checkpoint<DIM>& ck) {
  using namespace ckdetail;
  struct Section {
    std::uint64_t tag;
    std::string name;
    std::string payload;
  };
  std::vector<Section> secs;
  {
    Buf b;
    b.u64(ck.leaves.size());
    for (const auto& o : ck.leaves) {
      for (int d = 0; d < DIM; ++d) b.u64(o.x[d]);
      b.u64(o.level);
    }
    secs.push_back({kSecLeaves, "", std::move(b.b)});
  }
  for (const auto& nf : ck.nodal) {
    Buf b;
    b.u64(static_cast<std::uint64_t>(nf.ndof));
    b.u64(nf.keys.size());
    for (const auto& k : nf.keys)
      for (int d = 0; d < DIM; ++d) b.u64(k[d]);
    for (Real v : nf.values) b.real(v);
    secs.push_back({kSecNodal, nf.name, std::move(b.b)});
  }
  for (const auto& cf : ck.cell) {
    Buf b;
    b.u64(cf.values.size());
    for (Real v : cf.values) b.real(v);
    secs.push_back({kSecCell, cf.name, std::move(b.b)});
  }
  if (!ck.meta.empty()) {
    Buf b;
    b.u64(ck.meta.size());
    for (const auto& [name, value] : ck.meta) {
      b.str(name);
      b.u64(static_cast<std::uint64_t>(value));
    }
    secs.push_back({kSecMeta, "", std::move(b.b)});
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.good())
      throw CheckpointError(
          CkStatus::fail(CkCode::kOpenFailed, "cannot open " + tmp));
    Buf h;
    h.u64(kCkMagicV2);
    h.u64(kCkVersion);
    h.u64(DIM);
    h.u64(static_cast<std::uint64_t>(ck.writerRanks));
    h.u64(secs.size());
    h.u64(crc32(h.b.data(), h.b.size()));
    os.write(h.b.data(), static_cast<std::streamsize>(h.b.size()));
    for (const auto& s : secs) {
      Buf sh;
      sh.u64(s.tag);
      sh.str(s.name);
      sh.u64(s.payload.size());
      sh.u64(sectionCrc(s.tag, s.name, s.payload.data(), s.payload.size()));
      os.write(sh.b.data(), static_cast<std::streamsize>(sh.b.size()));
      os.write(s.payload.data(),
               static_cast<std::streamsize>(s.payload.size()));
    }
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(tmp.c_str());
      throw CheckpointError(
          CkStatus::fail(CkCode::kWriteFailed, "write failed: " + tmp));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError(
        CkStatus::fail(CkCode::kWriteFailed, "rename failed: " + path));
  }
}

// ---------------------------------------------------------------------------
// Bounded deserialization
// ---------------------------------------------------------------------------

namespace ckdetail {

/// Reads a string with a bounded length prefix.
inline bool readName(Cursor& c, std::string& out, std::size_t maxLen) {
  std::uint64_t len = 0;
  if (!c.u64(len)) return false;
  if (len > maxLen || len > c.remaining()) return false;
  out.assign(reinterpret_cast<const char*>(c.p + c.pos),
             static_cast<std::size_t>(len));
  c.pos += static_cast<std::size_t>(len);
  return true;
}

template <int DIM>
CkStatus parseLeaves(Cursor& s, OctList<DIM>& leaves) {
  std::uint64_t cnt = 0;
  if (!s.u64(cnt)) return CkStatus::fail(CkCode::kTruncated, "leaf count");
  const std::size_t perLeaf = (DIM + 1) * 8;
  if (cnt > s.remaining() / perLeaf)
    return CkStatus::fail(CkCode::kBadCount,
                          "leaf count exceeds available bytes");
  leaves.resize(static_cast<std::size_t>(cnt));
  for (auto& o : leaves) {
    std::uint64_t v = 0;
    for (int d = 0; d < DIM; ++d) {
      if (!s.u64(v)) return CkStatus::fail(CkCode::kTruncated, "leaf anchor");
      if (v >= kMaxCoord)
        return CkStatus::fail(CkCode::kInvalidContent,
                              "leaf anchor out of range");
      o.x[d] = static_cast<std::uint32_t>(v);
    }
    if (!s.u64(v)) return CkStatus::fail(CkCode::kTruncated, "leaf level");
    if (v > kMaxLevel)
      return CkStatus::fail(CkCode::kInvalidContent, "leaf level out of range");
    o.level = static_cast<Level>(v);
  }
  return {};
}

template <int DIM>
CkStatus parseNodal(Cursor& s, typename Checkpoint<DIM>::NodalField& nf) {
  std::uint64_t ndof = 0, nk = 0;
  if (!s.u64(ndof) || !s.u64(nk))
    return CkStatus::fail(CkCode::kTruncated, "nodal field header");
  if (ndof < 1 || ndof > 64)
    return CkStatus::fail(CkCode::kBadCount, "nodal ndof out of range");
  nf.ndof = static_cast<int>(ndof);
  if (nk > s.remaining() / (DIM * 8))
    return CkStatus::fail(CkCode::kBadCount,
                          "node key count exceeds available bytes");
  nf.keys.resize(static_cast<std::size_t>(nk));
  for (auto& k : nf.keys) {
    std::uint64_t v = 0;
    for (int d = 0; d < DIM; ++d) {
      if (!s.u64(v)) return CkStatus::fail(CkCode::kTruncated, "node key");
      if (v > kMaxCoord)  // node keys may sit on the far domain boundary
        return CkStatus::fail(CkCode::kInvalidContent,
                              "node key out of range");
      k[d] = static_cast<std::uint32_t>(v);
    }
  }
  if (nk > s.remaining() / (sizeof(Real) * ndof))
    return CkStatus::fail(CkCode::kBadCount,
                          "nodal value count exceeds available bytes");
  nf.values.resize(static_cast<std::size_t>(nk * ndof));
  for (Real& v : nf.values)
    if (!s.real(v)) return CkStatus::fail(CkCode::kTruncated, "nodal value");
  return {};
}

inline CkStatus parseCellValues(Cursor& s, std::vector<Real>& values) {
  std::uint64_t cnt = 0;
  if (!s.u64(cnt))
    return CkStatus::fail(CkCode::kTruncated, "cell field count");
  if (cnt > s.remaining() / sizeof(Real))
    return CkStatus::fail(CkCode::kBadCount,
                          "cell value count exceeds available bytes");
  values.resize(static_cast<std::size_t>(cnt));
  for (Real& v : values)
    if (!s.real(v)) return CkStatus::fail(CkCode::kTruncated, "cell value");
  return {};
}

template <int DIM>
CkStatus parseV2(Cursor& c, Checkpoint<DIM>& ck) {
  std::uint64_t ver = 0, dim = 0, wr = 0, nsec = 0, hcrc = 0;
  if (!c.u64(ver) || !c.u64(dim) || !c.u64(wr) || !c.u64(nsec) ||
      !c.u64(hcrc))
    return CkStatus::fail(CkCode::kTruncated, "header");
  // The header CRC covers the five leading u64s (magic through nSections),
  // i.e. the first 40 bytes of the file. Compare at u64 width: the stored
  // field is 8 bytes, so corruption of its (always-zero) high bytes must
  // mismatch too.
  if (static_cast<std::uint64_t>(crc32(c.p, 40)) != hcrc)
    return CkStatus::fail(CkCode::kCrcMismatch, "header");
  if (ver != kCkVersion)
    return CkStatus::fail(CkCode::kUnsupportedVersion,
                          "format version " + std::to_string(ver));
  if (dim != static_cast<std::uint64_t>(DIM))
    return CkStatus::fail(CkCode::kDimMismatch,
                          "file DIM " + std::to_string(dim));
  if (wr < 1 || wr > (1u << 24))
    return CkStatus::fail(CkCode::kBadCount, "writerRanks out of range");
  ck.writerRanks = static_cast<int>(wr);
  // Each section costs at least 32 header bytes.
  if (nsec > c.remaining() / 32)
    return CkStatus::fail(CkCode::kBadCount,
                          "section count exceeds available bytes");
  bool haveLeaves = false;
  for (std::uint64_t i = 0; i < nsec; ++i) {
    std::uint64_t tag = 0;
    if (!c.u64(tag))
      return CkStatus::fail(CkCode::kTruncated, "section tag");
    std::string name;
    if (!readName(c, name, 4096))
      return CkStatus::fail(CkCode::kTruncated, "section name");
    std::uint64_t plen = 0, crc = 0;
    if (!c.u64(plen) || !c.u64(crc))
      return CkStatus::fail(CkCode::kTruncated, "section header");
    if (plen > c.remaining())
      return CkStatus::fail(CkCode::kTruncated,
                            "section '" + name + "' payload");
    const unsigned char* pay = c.p + c.pos;
    c.pos += static_cast<std::size_t>(plen);
    if (static_cast<std::uint64_t>(
            sectionCrc(tag, name, pay, static_cast<std::size_t>(plen))) != crc)
      return CkStatus::fail(CkCode::kCrcMismatch,
                            "section '" + name + "'");
    Cursor s{pay, static_cast<std::size_t>(plen), 0};
    CkStatus st;
    switch (tag) {
      case kSecLeaves:
        st = parseLeaves<DIM>(s, ck.leaves);
        haveLeaves = true;
        break;
      case kSecNodal: {
        typename Checkpoint<DIM>::NodalField nf;
        nf.name = name;
        st = parseNodal<DIM>(s, nf);
        if (st.ok()) ck.nodal.push_back(std::move(nf));
        break;
      }
      case kSecCell: {
        typename Checkpoint<DIM>::CellField cf;
        cf.name = name;
        st = parseCellValues(s, cf.values);
        if (st.ok()) ck.cell.push_back(std::move(cf));
        break;
      }
      case kSecMeta: {
        std::uint64_t cnt = 0;
        if (!s.u64(cnt)) {
          st = CkStatus::fail(CkCode::kTruncated, "meta count");
          break;
        }
        if (cnt > s.remaining() / 16) {
          st = CkStatus::fail(CkCode::kBadCount, "meta count");
          break;
        }
        for (std::uint64_t m = 0; m < cnt && st.ok(); ++m) {
          std::string key;
          std::uint64_t val = 0;
          if (!readName(s, key, 4096) || !s.u64(val))
            st = CkStatus::fail(CkCode::kTruncated, "meta entry");
          else
            ck.meta.emplace_back(std::move(key),
                                 static_cast<std::int64_t>(val));
        }
        break;
      }
      default:
        st = CkStatus::fail(CkCode::kBadSection,
                            "unknown section tag " + std::to_string(tag));
    }
    if (!st.ok()) return st;
    if (s.remaining() != 0)
      return CkStatus::fail(CkCode::kBadSection,
                            "trailing bytes in section '" + name + "'");
  }
  if (!haveLeaves)
    return CkStatus::fail(CkCode::kBadSection, "missing leaves section");
  if (c.remaining() != 0)
    return CkStatus::fail(CkCode::kBadSection, "trailing bytes after file");
  return {};
}

}  // namespace ckdetail

template <int DIM>
struct CkLoad {
  CkStatus status;
  Checkpoint<DIM> ck;
};

/// Loads a v2 checkpoint with every read bounded by the actual file size,
/// the header and section checksums verified, and the semantic
/// validation pass applied. Never throws on corrupt input — the status
/// carries the typed failure.
template <int DIM>
CkLoad<DIM> tryLoadCheckpointFile(const std::string& path) {
  using namespace ckdetail;
  CkLoad<DIM> out;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    out.status = CkStatus::fail(CkCode::kOpenFailed, "cannot open " + path);
    return out;
  }
  is.seekg(0, std::ios::end);
  const std::streamoff size = is.tellg();
  is.seekg(0, std::ios::beg);
  if (size < 0) {
    out.status = CkStatus::fail(CkCode::kOpenFailed, "cannot stat " + path);
    return out;
  }
  std::vector<unsigned char> buf(static_cast<std::size_t>(size));
  if (!buf.empty())
    is.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!is.good() && !is.eof()) {
    out.status = CkStatus::fail(CkCode::kOpenFailed, "read failed " + path);
    return out;
  }
  Cursor c{buf.data(), buf.size(), 0};
  std::uint64_t magic = 0;
  if (!c.u64(magic)) {
    out.status = CkStatus::fail(CkCode::kTruncated, "no magic");
    return out;
  }
  if (magic == kCkMagicV2)
    out.status = parseV2<DIM>(c, out.ck);
  else
    out.status = CkStatus::fail(CkCode::kBadMagic, path);
  if (out.status.ok()) out.status = validateCheckpoint<DIM>(out.ck);
  return out;
}

/// Throwing wrapper: loads or raises CheckpointError with the typed status.
template <int DIM>
Checkpoint<DIM> loadCheckpointFile(const std::string& path) {
  auto lr = tryLoadCheckpointFile<DIM>(path);
  if (!lr.status.ok()) throw CheckpointError(std::move(lr.status));
  return std::move(lr.ck);
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

/// Result of restoring a checkpoint onto a communicator.
template <int DIM>
struct Restored {
  DistTree<DIM> tree;
  std::unique_ptr<Mesh<DIM>> mesh;
  std::vector<std::pair<std::string, Field>> nodal;
  std::vector<std::pair<std::string, sim::PerRank<std::vector<Real>>>> cell;
  int activeRanks = 0;  ///< size of the active communicator at load
};

/// Restores a checkpoint on `comm` of any size. Data is loaded on the
/// active sub-communicator — the first min(writerRanks, comm.size()) ranks:
/// growing restarts leave the extra ranks empty until the repartition
/// activates them (paper Sec II-E); shrinking restarts re-block the stored
/// leaves over the smaller rank count directly. If `redistribute` is set,
/// the tree is repartitioned across the full communicator and the cell
/// fields are sliced to the tree's actual post-repartition leaf counts —
/// the tree is the single authoritative distribution, so cell values and
/// leaves cannot drift apart.
template <int DIM>
Restored<DIM> restoreCheckpoint(sim::SimComm& comm, const Checkpoint<DIM>& ck,
                                bool redistribute = true) {
  const int p = comm.size();
  {
    CkStatus st = validateCheckpoint<DIM>(ck);
    if (!st.ok()) throw CheckpointError(std::move(st));
  }
  const int active = std::min(p, ck.writerRanks);
  Restored<DIM> out{DistTree<DIM>(comm), nullptr, {}, {}, active};
  const std::size_t n = ck.leaves.size();
  // Load within the active communicator: block-distribute over the first
  // `active` ranks only; the rest stay empty (inactive).
  for (int r = 0; r < active; ++r) {
    const std::size_t lo = (n * r) / active;
    const std::size_t hi = (n * (r + 1)) / active;
    out.tree.localOf(r).assign(ck.leaves.begin() + lo, ck.leaves.begin() + hi);
  }
  // Cell fields follow the leaf distribution.
  for (const auto& cf : ck.cell) {
    sim::PerRank<std::vector<Real>> vals(p);
    for (int r = 0; r < active; ++r) {
      const std::size_t lo = (n * r) / active;
      const std::size_t hi = (n * (r + 1)) / active;
      vals[r].assign(cf.values.begin() + lo, cf.values.begin() + hi);
    }
    out.cell.emplace_back(cf.name, std::move(vals));
  }
  if (redistribute) {
    // The repartition activates the inactive ranks and is the single
    // authoritative distribution: cell values are sliced from the global
    // leaf-ordered array to the tree's *actual* per-rank leaf counts
    // afterwards, so alignment holds whatever the rebalance heuristics do.
    sim::PerRank<double> oldBytes(p, 0.0), newBytes(p, 0.0);
    for (int r = 0; r < p; ++r)
      oldBytes[r] =
          static_cast<double>(out.tree.localOf(r).size()) * sizeof(Real);
    out.tree.repartition();
    for (int r = 0; r < p; ++r)
      newBytes[r] =
          static_cast<double>(out.tree.localOf(r).size()) * sizeof(Real);
    for (std::size_t fi = 0; fi < out.cell.size(); ++fi) {
      const auto& src = ck.cell[fi].values;  // global leaf order
      auto& vals = out.cell[fi].second;
      std::size_t off = 0;
      for (int r = 0; r < p; ++r) {
        const std::size_t cnt = out.tree.localOf(r).size();
        vals[r].assign(src.begin() + off, src.begin() + off + cnt);
        off += cnt;
      }
      // Charge the value movement as one staged exchange per field.
      comm.chargeAlltoallv(oldBytes, newBytes, /*staged=*/true);
    }
  }
  out.mesh = std::make_unique<Mesh<DIM>>(Mesh<DIM>::build(comm, out.tree));
  // Nodal fields: match stored (key, value) pairs against the new mesh's
  // node keys (works for any partition since keys are global).
  for (const auto& nf : ck.nodal) {
    Field f = out.mesh->makeField(nf.ndof);
    for (int r = 0; r < p; ++r) {
      const RankMesh<DIM>& rm = out.mesh->rank(r);
      for (std::size_t li = 0; li < rm.nNodes(); ++li) {
        auto it = std::lower_bound(nf.keys.begin(), nf.keys.end(),
                                   rm.nodeKeys[li], NodeKeyLess<DIM>{});
        if (it == nf.keys.end() || !(*it == rm.nodeKeys[li]))
          throw CheckpointError(CkStatus::fail(
              CkCode::kInvalidContent,
              "checkpoint missing node key for field " + nf.name));
        const std::size_t idx = it - nf.keys.begin();
        for (int d = 0; d < nf.ndof; ++d)
          f[r][li * nf.ndof + d] = nf.values[idx * nf.ndof + d];
      }
    }
    out.nodal.emplace_back(nf.name, std::move(f));
  }
  return out;
}

}  // namespace pt::io
