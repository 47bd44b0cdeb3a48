#include "scale/shard_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/logging.h"
#include "util/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#define MSOPDS_SHARD_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace msopds {
namespace scale {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(const uint8_t* data, size_t n, uint64_t hash = kFnvOffset) {
  for (size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

int64_t PaddedNameBytes(int64_t name_len) { return (name_len + 7) & ~int64_t{7}; }

void AppendInt64(std::vector<uint8_t>* out, int64_t value) {
  uint8_t bytes[8];
  std::memcpy(bytes, &value, sizeof(value));
  out->insert(out->end(), bytes, bytes + 8);
}

void AppendSection(std::vector<uint8_t>* out, const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + bytes);
}

Status Corrupt(const std::string& path, int64_t offset, const std::string& what) {
  return Status::InvalidArgument(StrFormat(
      "%s: offset %lld: %s", path.c_str(), static_cast<long long>(offset),
      what.c_str()));
}

int64_t ReadInt64(const uint8_t* base, int64_t offset) {
  int64_t value = 0;
  std::memcpy(&value, base + offset, sizeof(value));
  return value;
}

// Byte offsets of the int64 header fields after the magic.
enum HeaderField : int64_t {
  kOffVersion = 8,
  kOffShardIndex = 16,
  kOffNumShards = 24,
  kOffUserBegin = 32,
  kOffUserEnd = 40,
  kOffItemBegin = 48,
  kOffItemEnd = 56,
  kOffNumUsers = 64,
  kOffNumItems = 72,
  kOffNumRatings = 80,
  kOffTotalRatings = 88,
  kOffSocialEntries = 96,
  kOffItemEntries = 104,
  kOffNameLen = 112,
  kOffHeaderChecksum = 120,
  kOffPayloadChecksum = 128,
};

}  // namespace

std::string ShardFileName(int64_t shard_index, int64_t num_shards) {
  return StrFormat("shard-%05lld-of-%05lld.msd",
                   static_cast<long long>(shard_index),
                   static_cast<long long>(num_shards));
}

ShardWriter::ShardWriter(std::string directory)
    : directory_(std::move(directory)) {}

StatusOr<std::string> ShardWriter::Write(const ShardContents& c) const {
  MSOPDS_CHECK_GE(c.shard_index, 0);
  MSOPDS_CHECK_LT(c.shard_index, c.num_shards);
  MSOPDS_CHECK_EQ(static_cast<int64_t>(c.rating_offsets.size()),
                  c.owned_users() + 1);
  MSOPDS_CHECK_EQ(static_cast<int64_t>(c.social_offsets.size()),
                  c.owned_users() + 1);
  MSOPDS_CHECK_EQ(static_cast<int64_t>(c.item_offsets.size()),
                  c.owned_items() + 1);
  MSOPDS_CHECK_EQ(c.rating_items.size(), c.rating_values.size());
  MSOPDS_CHECK_EQ(c.rating_items.size(), c.rating_seqs.size());

  const int64_t name_len = static_cast<int64_t>(c.name.size());

  std::vector<uint8_t> payload;
  payload.reserve(static_cast<size_t>(
      PaddedNameBytes(name_len) +
      8 * (static_cast<int64_t>(c.rating_offsets.size()) +
           3 * c.num_ratings() +
           static_cast<int64_t>(c.social_offsets.size()) +
           static_cast<int64_t>(c.social_neighbors.size()) +
           static_cast<int64_t>(c.item_offsets.size()) +
           static_cast<int64_t>(c.item_neighbors.size()))));
  AppendSection(&payload, c.name.data(), static_cast<size_t>(name_len));
  payload.resize(static_cast<size_t>(PaddedNameBytes(name_len)), 0);
  AppendSection(&payload, c.rating_offsets.data(),
                c.rating_offsets.size() * 8);
  AppendSection(&payload, c.rating_items.data(), c.rating_items.size() * 8);
  AppendSection(&payload, c.rating_values.data(), c.rating_values.size() * 8);
  AppendSection(&payload, c.rating_seqs.data(), c.rating_seqs.size() * 8);
  AppendSection(&payload, c.social_offsets.data(),
                c.social_offsets.size() * 8);
  AppendSection(&payload, c.social_neighbors.data(),
                c.social_neighbors.size() * 8);
  AppendSection(&payload, c.item_offsets.data(), c.item_offsets.size() * 8);
  AppendSection(&payload, c.item_neighbors.data(),
                c.item_neighbors.size() * 8);

  std::vector<uint8_t> header;
  header.reserve(static_cast<size_t>(kShardHeaderBytes));
  AppendSection(&header, kShardMagic, sizeof(kShardMagic));
  AppendInt64(&header, kShardFormatVersion);
  AppendInt64(&header, c.shard_index);
  AppendInt64(&header, c.num_shards);
  AppendInt64(&header, c.user_begin);
  AppendInt64(&header, c.user_end);
  AppendInt64(&header, c.item_begin);
  AppendInt64(&header, c.item_end);
  AppendInt64(&header, c.num_users);
  AppendInt64(&header, c.num_items);
  AppendInt64(&header, c.num_ratings());
  AppendInt64(&header, c.total_ratings);
  AppendInt64(&header, static_cast<int64_t>(c.social_neighbors.size()));
  AppendInt64(&header, static_cast<int64_t>(c.item_neighbors.size()));
  AppendInt64(&header, name_len);
  AppendInt64(&header,
              static_cast<int64_t>(Fnv1a(header.data(), header.size())));
  AppendInt64(&header,
              static_cast<int64_t>(Fnv1a(payload.data(), payload.size())));
  MSOPDS_CHECK_EQ(static_cast<int64_t>(header.size()), kShardHeaderBytes);

  const std::string path =
      directory_ + "/" + ShardFileName(c.shard_index, c.num_shards);
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::NotFound("cannot open " + tmp_path + " for writing");
    }
    out.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out.good()) {
      return Status::Internal("short write to " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp_path + " to " + path);
  }
  return path;
}

ShardReader::ShardReader(ShardReader&& other) noexcept {
  *this = std::move(other);
}

ShardReader& ShardReader::operator=(ShardReader&& other) noexcept {
  if (this == &other) return *this;
  Release();
  path_ = std::move(other.path_);
  shard_index_ = other.shard_index_;
  num_shards_ = other.num_shards_;
  user_begin_ = other.user_begin_;
  user_end_ = other.user_end_;
  item_begin_ = other.item_begin_;
  item_end_ = other.item_end_;
  num_users_ = other.num_users_;
  num_items_ = other.num_items_;
  num_ratings_ = other.num_ratings_;
  total_ratings_ = other.total_ratings_;
  social_entries_ = other.social_entries_;
  item_entries_ = other.item_entries_;
  file_bytes_ = other.file_bytes_;
  name_ = std::move(other.name_);
  rating_offsets_ = other.rating_offsets_;
  rating_items_ = other.rating_items_;
  rating_values_ = other.rating_values_;
  rating_seqs_ = other.rating_seqs_;
  social_offsets_ = other.social_offsets_;
  social_neighbors_ = other.social_neighbors_;
  item_offsets_ = other.item_offsets_;
  item_neighbors_ = other.item_neighbors_;
  mapped_addr_ = other.mapped_addr_;
  mapped_len_ = other.mapped_len_;
  heap_copy_ = std::move(other.heap_copy_);
  other.mapped_addr_ = nullptr;
  other.mapped_len_ = 0;
  other.rating_offsets_ = nullptr;
  return *this;
}

ShardReader::~ShardReader() { Release(); }

void ShardReader::Release() {
#if MSOPDS_SHARD_HAVE_MMAP
  if (mapped_addr_ != nullptr) {
    munmap(mapped_addr_, mapped_len_);
  }
#endif
  mapped_addr_ = nullptr;
  mapped_len_ = 0;
}

StatusOr<ShardReader> ShardReader::Open(const std::string& path) {
  ShardReader reader;
  reader.path_ = path;

  const uint8_t* base = nullptr;
  int64_t file_bytes = 0;
#if MSOPDS_SHARD_HAVE_MMAP
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::NotFound("cannot open " + path);
    struct stat st;
    if (fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Internal("cannot stat " + path);
    }
    file_bytes = static_cast<int64_t>(st.st_size);
    if (file_bytes > 0) {
      void* addr = mmap(nullptr, static_cast<size_t>(file_bytes), PROT_READ,
                        MAP_PRIVATE, fd, 0);
      if (addr != MAP_FAILED) {
        reader.mapped_addr_ = addr;
        reader.mapped_len_ = static_cast<size_t>(file_bytes);
        base = static_cast<const uint8_t*>(addr);
      }
    }
    ::close(fd);
  }
#endif
  if (base == nullptr) {
    // Portable fallback (and the mmap-failed path): read the whole file.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in.is_open()) return Status::NotFound("cannot open " + path);
    file_bytes = static_cast<int64_t>(in.tellg());
    in.seekg(0);
    reader.heap_copy_.resize(static_cast<size_t>(file_bytes));
    if (file_bytes > 0) {
      in.read(reinterpret_cast<char*>(reader.heap_copy_.data()), file_bytes);
      if (!in.good()) return Status::Internal("short read from " + path);
    }
    base = reader.heap_copy_.data();
  }
  reader.file_bytes_ = file_bytes;

  if (file_bytes < kShardHeaderBytes) {
    return Corrupt(path, 0,
                   StrFormat("truncated header (%lld bytes, need %lld)",
                             static_cast<long long>(file_bytes),
                             static_cast<long long>(kShardHeaderBytes)));
  }
  if (std::memcmp(base, kShardMagic, sizeof(kShardMagic)) != 0) {
    return Corrupt(path, 0, "bad magic (not a MSOPDS shard file)");
  }
  const int64_t version = ReadInt64(base, kOffVersion);
  if (version != kShardFormatVersion) {
    return Corrupt(path, kOffVersion,
                   StrFormat("unsupported shard format version %lld "
                             "(this build reads version %lld)",
                             static_cast<long long>(version),
                             static_cast<long long>(kShardFormatVersion)));
  }
  const uint64_t header_checksum =
      static_cast<uint64_t>(ReadInt64(base, kOffHeaderChecksum));
  if (Fnv1a(base, kOffHeaderChecksum) != header_checksum) {
    return Corrupt(path, kOffHeaderChecksum, "header checksum mismatch");
  }

  reader.shard_index_ = ReadInt64(base, kOffShardIndex);
  reader.num_shards_ = ReadInt64(base, kOffNumShards);
  reader.user_begin_ = ReadInt64(base, kOffUserBegin);
  reader.user_end_ = ReadInt64(base, kOffUserEnd);
  reader.item_begin_ = ReadInt64(base, kOffItemBegin);
  reader.item_end_ = ReadInt64(base, kOffItemEnd);
  reader.num_users_ = ReadInt64(base, kOffNumUsers);
  reader.num_items_ = ReadInt64(base, kOffNumItems);
  reader.num_ratings_ = ReadInt64(base, kOffNumRatings);
  reader.total_ratings_ = ReadInt64(base, kOffTotalRatings);
  reader.social_entries_ = ReadInt64(base, kOffSocialEntries);
  reader.item_entries_ = ReadInt64(base, kOffItemEntries);
  const int64_t name_len = ReadInt64(base, kOffNameLen);

  if (reader.num_shards_ <= 0 || reader.shard_index_ < 0 ||
      reader.shard_index_ >= reader.num_shards_) {
    return Corrupt(path, kOffShardIndex, "shard index out of range");
  }
  if (reader.user_begin_ < 0 || reader.user_begin_ > reader.user_end_ ||
      reader.user_end_ > reader.num_users_) {
    return Corrupt(path, kOffUserBegin, "user range out of bounds");
  }
  if (reader.item_begin_ < 0 || reader.item_begin_ > reader.item_end_ ||
      reader.item_end_ > reader.num_items_) {
    return Corrupt(path, kOffItemBegin, "item range out of bounds");
  }
  if (reader.num_ratings_ < 0 || reader.social_entries_ < 0 ||
      reader.item_entries_ < 0 || name_len < 0) {
    return Corrupt(path, kOffNumRatings, "negative section size");
  }

  const int64_t expected_payload =
      PaddedNameBytes(name_len) +
      8 * ((reader.owned_users() + 1) +      // rating_offsets
           3 * reader.num_ratings_ +         // items, values, seqs
           (reader.owned_users() + 1) +      // social_offsets
           reader.social_entries_ +          // social_neighbors
           (reader.owned_items() + 1) +      // item_offsets
           reader.item_entries_);            // item_neighbors
  if (file_bytes != kShardHeaderBytes + expected_payload) {
    return Corrupt(
        path, kShardHeaderBytes,
        StrFormat("payload is %lld bytes but the header implies %lld",
                  static_cast<long long>(file_bytes - kShardHeaderBytes),
                  static_cast<long long>(expected_payload)));
  }
  const uint64_t payload_checksum =
      static_cast<uint64_t>(ReadInt64(base, kOffPayloadChecksum));
  if (Fnv1a(base + kShardHeaderBytes,
            static_cast<size_t>(expected_payload)) != payload_checksum) {
    return Corrupt(path, kOffPayloadChecksum, "payload checksum mismatch");
  }

  const uint8_t* cursor = base + kShardHeaderBytes;
  reader.name_.assign(reinterpret_cast<const char*>(cursor),
                      static_cast<size_t>(name_len));
  cursor += PaddedNameBytes(name_len);
  auto take_i64 = [&cursor](int64_t count) {
    const int64_t* p = reinterpret_cast<const int64_t*>(cursor);
    cursor += 8 * count;
    return p;
  };
  reader.rating_offsets_ = take_i64(reader.owned_users() + 1);
  reader.rating_items_ = take_i64(reader.num_ratings_);
  reader.rating_values_ = reinterpret_cast<const double*>(cursor);
  cursor += 8 * reader.num_ratings_;
  reader.rating_seqs_ = take_i64(reader.num_ratings_);
  reader.social_offsets_ = take_i64(reader.owned_users() + 1);
  reader.social_neighbors_ = take_i64(reader.social_entries_);
  reader.item_offsets_ = take_i64(reader.owned_items() + 1);
  reader.item_neighbors_ = take_i64(reader.item_entries_);

  // Offsets must be monotone prefix sums ending at the section size, or
  // every downstream loop would read out of bounds.
  auto check_offsets = [&path](const int64_t* offsets, int64_t rows,
                               int64_t entries,
                               const char* section) -> Status {
    if (offsets[0] != 0) {
      return Corrupt(path, kShardHeaderBytes,
                     StrFormat("%s offsets do not start at 0", section));
    }
    for (int64_t i = 0; i < rows; ++i) {
      if (offsets[i + 1] < offsets[i]) {
        return Corrupt(path, kShardHeaderBytes,
                       StrFormat("%s offsets decrease at row %lld", section,
                                 static_cast<long long>(i)));
      }
    }
    if (offsets[rows] != entries) {
      return Corrupt(
          path, kShardHeaderBytes,
          StrFormat("%s offsets end at %lld, section has %lld entries",
                    section, static_cast<long long>(offsets[rows]),
                    static_cast<long long>(entries)));
    }
    return Status::Ok();
  };
  Status status = check_offsets(reader.rating_offsets_, reader.owned_users(),
                                reader.num_ratings_, "rating");
  if (!status.ok()) return status;
  status = check_offsets(reader.social_offsets_, reader.owned_users(),
                         reader.social_entries_, "social");
  if (!status.ok()) return status;
  status = check_offsets(reader.item_offsets_, reader.owned_items(),
                         reader.item_entries_, "item");
  if (!status.ok()) return status;
  return reader;
}

}  // namespace scale
}  // namespace msopds
