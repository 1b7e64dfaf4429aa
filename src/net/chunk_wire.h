// Wire protocol for content-addressed chunk distribution (DESIGN.md §14).
//
// Four RPC kinds move image chunks around a rack:
//   chunk.manifest  node -> BMI        image name -> chunk manifest
//   chunk.fetch     node -> rack cache digest -> inline serve or a peer
//                                      redirect (the cache decides)
//   chunk.get       node -> peer node  digest -> the peer echoes the
//                                      digest of what it actually serves;
//                                      the requester verifies it
//   chunk.have      node -> rack cache after a verified fetch, register
//                                      as a holder for peer exchange
//
// Responses model bulk content through Message::wire_bytes (the fabric
// charges NIC/uplink time for them); the digest echo is the verification
// surface — a corrupt peer echoes the digest of the garbage it served,
// which is exactly what recomputing SHA-256 over received content would
// yield.

#ifndef SRC_NET_CHUNK_WIRE_H_
#define SRC_NET_CHUNK_WIRE_H_

#include <cstdint>
#include <string_view>

#include "src/crypto/sha256.h"
#include "src/crypto/wire.h"
#include "src/net/message_pool.h"

namespace bolted::net {

inline constexpr std::string_view kRpcChunkManifest = "chunk.manifest";
inline constexpr std::string_view kRpcChunkFetch = "chunk.fetch";
inline constexpr std::string_view kRpcChunkGet = "chunk.get";
inline constexpr std::string_view kRpcChunkHave = "chunk.have";

// chunk.fetch request: which chunk, how big, and (on a retry after a bad
// peer serve) which peer to exclude and quarantine.
struct ChunkFetchRequest {
  crypto::Digest digest{};
  uint64_t bytes = 0;
  Address exclude_peer = 0;  // 0: none

  crypto::Bytes Encode() const {
    return crypto::WireWriter().Digest(digest).U64(bytes).U64(exclude_peer).Take();
  }
  static bool Decode(crypto::ByteView data, ChunkFetchRequest* out) {
    crypto::WireReader reader(data);
    out->digest = reader.Digest();
    out->bytes = reader.U64();
    out->exclude_peer = static_cast<Address>(reader.U64());
    return reader.AtEnd();
  }
};

// chunk.fetch response.  kInlineHit/kInlineOrigin carry the chunk bytes
// on the wire; kRedirect names a rack peer that holds the chunk.
enum class ChunkFetchStatus : uint32_t {
  kInlineHit = 0,
  kInlineOrigin = 1,
  kRedirect = 2,
};

struct ChunkFetchResponse {
  ChunkFetchStatus status = ChunkFetchStatus::kInlineHit;
  Address peer = 0;           // kRedirect only
  crypto::Digest served{};    // digest of the served content (echo)

  crypto::Bytes Encode() const {
    return crypto::WireWriter()
        .U32(static_cast<uint32_t>(status))
        .U64(peer)
        .Digest(served)
        .Take();
  }
  static bool Decode(crypto::ByteView data, ChunkFetchResponse* out) {
    crypto::WireReader reader(data);
    out->status = static_cast<ChunkFetchStatus>(reader.U32());
    out->peer = static_cast<Address>(reader.U64());
    out->served = reader.Digest();
    return reader.AtEnd();
  }
};

}  // namespace bolted::net

#endif  // SRC_NET_CHUNK_WIRE_H_
