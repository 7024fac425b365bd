#include "support/blob.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>

#include "support/failpoint.hpp"

namespace msptrsv::support {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'M', 'S', 'P', 'B'};

/// Slice-by-8 tables for the software CRC-32C path: table[0] is the
/// classic byte table; table[k] rolls the remainder k extra bytes
/// forward, letting the hot loop fold 8 input bytes per iteration.
std::array<std::array<std::uint32_t, 256>, 8> build_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;  // CRC-32C, reflected
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (int k = 1; k < 8; ++k) {
      c = t[0][c & 0xFFu] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

std::uint32_t crc32c_sw(std::span<const std::uint8_t> bytes,
                        std::uint32_t c) {
  static const std::array<std::array<std::uint32_t, 256>, 8> t =
      build_crc_tables();
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
        t[4][c >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__) || defined(__i386__)
#define MSPTRSV_HAS_HW_CRC 1
/// SSE4.2 crc32 instruction path: same CRC-32C function as the table
/// fallback, an order of magnitude faster. Guarded at runtime by cpuid so
/// one binary runs everywhere.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::uint8_t> bytes, std::uint32_t c) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t c64 = c;
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c64 = __builtin_ia32_crc32di(c64, v);
    p += 8;
    n -= 8;
  }
  c = static_cast<std::uint32_t>(c64);
  while (n-- > 0) {
    c = __builtin_ia32_crc32qi(c, *p++);
  }
  return c;
}

bool have_hw_crc() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
#ifdef MSPTRSV_HAS_HW_CRC
  if (have_hw_crc()) return crc32c_hw(bytes, c) ^ 0xFFFFFFFFu;
#endif
  return crc32c_sw(bytes, c) ^ 0xFFFFFFFFu;
}

std::uint8_t host_endian_tag() {
  return std::endian::native == std::endian::little ? 1 : 2;
}

// ---- BlobWriter ------------------------------------------------------------

BlobWriter::BlobWriter(std::uint16_t format_version) {
  buf_.reserve(256);
  buf_.insert(buf_.end(), kMagic.begin(), kMagic.end());
  buf_.push_back(static_cast<std::uint8_t>(format_version & 0xFFu));
  buf_.push_back(static_cast<std::uint8_t>(format_version >> 8));
  buf_.push_back(host_endian_tag());
  buf_.push_back(0);  // reserved
}

void BlobWriter::append(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + bytes);
}

void BlobWriter::write_u8(std::uint8_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_u16(std::uint16_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_u32(std::uint32_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_u64(std::uint64_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_i32(std::int32_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_i64(std::int64_t v) { append(&v, sizeof(v)); }
void BlobWriter::write_f64(double v) { append(&v, sizeof(v)); }

void BlobWriter::write_string(std::string_view s) {
  write_u64(s.size());
  append(s.data(), s.size());
}

std::vector<std::uint8_t> BlobWriter::finish() && {
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(buf_).subspan(kHeaderSize));
  append(&crc, sizeof(crc));
  return std::move(buf_);
}

// ---- BlobReader ------------------------------------------------------------

BlobReader::BlobReader(std::span<const std::uint8_t> bytes,
                       std::uint16_t expected_version)
    : bytes_(bytes) {
  constexpr std::size_t kHeaderSize = 8;
  constexpr std::size_t kTrailerSize = 4;
  if (MSPTRSV_FAILPOINT("blob.decode").kind == FailpointHit::Kind::kError) {
    fail("injected by failpoint blob.decode");
    return;
  }
  if (bytes_.size() < kHeaderSize + kTrailerSize) {
    fail("blob truncated: " + std::to_string(bytes_.size()) +
         " bytes is smaller than header + CRC trailer");
    return;
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes_.begin())) {
    fail("bad magic: not an msptrsv blob");
    return;
  }
  version_ = static_cast<std::uint16_t>(bytes_[4]) |
             static_cast<std::uint16_t>(bytes_[5]) << 8;
  if (bytes_[6] != host_endian_tag()) {
    fail("endianness mismatch: blob written on a different byte order");
    return;
  }
  if (version_ != expected_version) {
    fail("format version " + std::to_string(version_) +
         " is not the supported version " + std::to_string(expected_version));
    return;
  }
  pos_ = kHeaderSize;
  end_ = bytes_.size() - kTrailerSize;
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes_.data() + end_, sizeof(stored));
  const std::uint32_t actual = crc32(bytes_.subspan(kHeaderSize, end_ - kHeaderSize));
  if (stored != actual) {
    fail("CRC mismatch: blob corrupted or truncated mid-record");
  }
}

void BlobReader::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
  pos_ = end_ = 0;
}

void BlobReader::extract(void* out, std::size_t bytes) {
  if (!ok()) {
    std::memset(out, 0, bytes);
    return;
  }
  if (bytes > remaining()) {
    fail("read of " + std::to_string(bytes) + " bytes overruns the payload (" +
         std::to_string(remaining()) + " left)");
    std::memset(out, 0, bytes);
    return;
  }
  std::memcpy(out, bytes_.data() + pos_, bytes);
  pos_ += bytes;
}

std::uint8_t BlobReader::read_u8() {
  std::uint8_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::uint16_t BlobReader::read_u16() {
  std::uint16_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::uint32_t BlobReader::read_u32() {
  std::uint32_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::uint64_t BlobReader::read_u64() {
  std::uint64_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::int32_t BlobReader::read_i32() {
  std::int32_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
std::int64_t BlobReader::read_i64() {
  std::int64_t v = 0;
  extract(&v, sizeof(v));
  return v;
}
double BlobReader::read_f64() {
  double v = 0;
  extract(&v, sizeof(v));
  return v;
}

std::string BlobReader::read_string() {
  const std::uint64_t len = read_u64();
  if (!ok()) return {};
  if (len > remaining()) {
    fail("string of " + std::to_string(len) + " bytes exceeds the " +
         std::to_string(remaining()) + " payload bytes left");
    return {};
  }
  std::string out(static_cast<std::size_t>(len), '\0');
  extract(out.data(), out.size());
  return out;
}

// ---- file I/O --------------------------------------------------------------

bool write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  // (The pause action parks the caller HERE, before anything touches the
  // filesystem -- what the fsck-vs-writer race test uses to freeze a
  // writer at the seam.)
  if (const FailpointHit fp = MSPTRSV_FAILPOINT("cache.disk.write");
      fp.kind == FailpointHit::Kind::kError) {
    return false;
  } else if (fp.kind == FailpointHit::Kind::kPartial) {
    // Torn-write simulation: publish only the first `arg` bytes AT THE
    // FINAL PATH, skipping the tmp+rename discipline below -- the blob a
    // crashed pre-atomic-rename writer (or a dying disk) leaves behind,
    // which fsck must flag as CRC-corrupt.
    const std::size_t n =
        std::min(bytes.size(),
                 static_cast<std::size_t>(fp.arg > 0 ? fp.arg : 0));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      if (n > 0) std::fwrite(bytes.data(), 1, n, f);
      std::fclose(f);
    }
    return false;
  }
  // Write-to-temp + rename: concurrent writers of the same path each
  // publish a complete blob instead of interleaving into a CRC-invalid
  // file. The temp name must be unique across processes AND across
  // threads within one (two service threads missing on the same
  // PlanCache key save concurrently), hence pid + a process-wide counter.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  // An empty blob has no buffer (data() may be null, which fwrite must not
  // be handed); it still publishes an empty file through the rename.
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  out.clear();
  if (MSPTRSV_FAILPOINT("cache.disk.read").kind ==
      FailpointHit::Kind::kError) {
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  // Size the buffer up front and read in one call: plan blobs are tens of
  // megabytes and chunked append would re-touch every byte.
  bool ok = std::fseek(f, 0, SEEK_END) == 0;
  const long size = ok ? std::ftell(f) : -1;
  ok = ok && size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
  if (ok) {
    out.resize(static_cast<std::size_t>(size));
    ok = std::fread(out.data(), 1, out.size(), f) == out.size() &&
         std::ferror(f) == 0;
  }
  std::fclose(f);
  if (!ok) out.clear();
  return ok;
}

}  // namespace msptrsv::support
