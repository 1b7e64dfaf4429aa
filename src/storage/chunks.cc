#include "src/storage/chunks.h"

#include "src/crypto/bytes.h"
#include "src/crypto/wire.h"

namespace bolted::storage {

crypto::Digest ChunkContentDigest(std::string_view image_name, uint64_t index,
                                  uint64_t chunk_bytes) {
  crypto::Bytes material = crypto::ToBytes(image_name);
  material.push_back(':');
  crypto::AppendU64(material, index);
  crypto::AppendU64(material, chunk_bytes);
  return crypto::Sha256::Hash(crypto::ByteView(material.data(), material.size()));
}

ObjectId ChunkObjectId(const crypto::Digest& digest) {
  ObjectId id;
  for (int i = 0; i < 8; ++i) {
    id.hi = (id.hi << 8) | digest[static_cast<size_t>(i)];
    id.lo = (id.lo << 8) | digest[static_cast<size_t>(i + 8)];
  }
  return id;
}

ChunkManifest ChunkManifest::ForImage(const std::string& image_name,
                                      uint64_t image_bytes, uint64_t chunk_bytes) {
  ChunkManifest manifest;
  manifest.image_name = image_name;
  manifest.chunk_bytes = chunk_bytes;
  manifest.image_bytes = image_bytes;
  const uint64_t count = (image_bytes + chunk_bytes - 1) / chunk_bytes;
  manifest.chunks.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    manifest.chunks.push_back(ChunkContentDigest(image_name, i, chunk_bytes));
  }
  return manifest;
}

uint64_t ChunkManifest::ChunkBytes(uint64_t index) const {
  if (index + 1 < chunks.size() || image_bytes % chunk_bytes == 0) {
    return chunk_bytes;
  }
  return image_bytes % chunk_bytes;
}

crypto::Bytes ChunkManifest::Encode() const {
  crypto::WireWriter writer;
  writer.Str(image_name).U64(chunk_bytes).U64(image_bytes);
  writer.U32(static_cast<uint32_t>(chunks.size()));
  for (const crypto::Digest& digest : chunks) {
    writer.Digest(digest);
  }
  return writer.Take();
}

std::optional<ChunkManifest> ChunkManifest::Decode(crypto::ByteView data) {
  crypto::WireReader reader(data);
  ChunkManifest manifest;
  manifest.image_name = reader.Str();
  manifest.chunk_bytes = reader.U64();
  manifest.image_bytes = reader.U64();
  const uint32_t count = reader.U32();
  manifest.chunks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    manifest.chunks.push_back(reader.Digest());
  }
  if (!reader.AtEnd() || manifest.chunk_bytes == 0) {
    return std::nullopt;
  }
  return manifest;
}

}  // namespace bolted::storage
