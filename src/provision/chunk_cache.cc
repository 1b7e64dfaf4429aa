#include "src/provision/chunk_cache.h"

#include <algorithm>

#include "src/obs/obs.h"

namespace bolted::provision {

RackChunkCache::RackChunkCache(sim::Simulation& sim, net::Endpoint& endpoint,
                               storage::ObjectStore& origin, uint64_t capacity_bytes)
    : sim_(sim), node_(sim, endpoint), origin_(origin),
      capacity_bytes_(capacity_bytes) {
  node_.RegisterHandler(std::string(net::kRpcChunkFetch),
                        [this](const net::Message& req, net::Message* resp) {
                          return HandleFetch(req, resp);
                        });
  node_.RegisterHandler(std::string(net::kRpcChunkHave),
                        [this](const net::Message& req, net::Message* resp) {
                          return HandleHave(req, resp);
                        });
  node_.Start();
}

void RackChunkCache::Insert(const crypto::Digest& digest, uint64_t bytes) {
  auto& line = cache_[digest];
  if (line.bytes == 0) {
    cached_bytes_ += bytes;
  }
  line.bytes = bytes;
  line.lru = ++lru_tick_;
  while (cached_bytes_ > capacity_bytes_ && cache_.size() > 1) {
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->first != digest &&
          (victim == cache_.end() || it->second.lru < victim->second.lru)) {
        victim = it;
      }
    }
    if (victim == cache_.end()) {
      break;
    }
    cached_bytes_ -= victim->second.bytes;
    cache_.erase(victim);
  }
}

net::Address RackChunkCache::PickHolder(const crypto::Digest& digest,
                                        net::Address requester,
                                        net::Address exclude) const {
  const auto it = holders_.find(digest);
  if (it == holders_.end()) {
    return 0;
  }
  for (const net::Address holder : it->second) {
    if (holder == requester || holder == exclude ||
        quarantine_.contains({digest, holder})) {
      continue;
    }
    return holder;
  }
  return 0;
}

sim::Task RackChunkCache::HandleFetch(const net::Message& request,
                                      net::Message* response) {
  net::ChunkFetchRequest req;
  if (!net::ChunkFetchRequest::Decode(
          crypto::ByteView(request.payload.data(), request.payload.size()), &req)) {
    response->kind = "chunk.error";
    co_return;
  }
  if (req.exclude_peer != 0) {
    // The requester verified the peer's serve and it did not hash to the
    // chunk digest: poison that holder entry so nobody is sent there again.
    if (quarantine_.insert({req.digest, req.exclude_peer}).second) {
      ++stats_.quarantined;
      obs::Count(sim_, "chunks.quarantine");
    }
    auto holder_it = holders_.find(req.digest);
    if (holder_it != holders_.end()) {
      std::erase(holder_it->second, req.exclude_peer);
    }
  }

  net::ChunkFetchResponse resp;
  resp.served = req.digest;
  const auto cached = cache_.find(req.digest);
  if (cached != cache_.end()) {
    cached->second.lru = ++lru_tick_;
    ++stats_.hits;
    obs::Count(sim_, "chunks.rack_hit");
    resp.status = net::ChunkFetchStatus::kInlineHit;
    response->payload = resp.Encode();
    response->wire_bytes = req.bytes;
    co_return;
  }

  // Not cached: hand the requester to a rack peer that holds it (unless a
  // prior serve got that peer quarantined for this digest).
  const net::Address holder = PickHolder(req.digest, request.src, req.exclude_peer);
  if (holder != 0) {
    ++stats_.peer_redirects;
    obs::Count(sim_, "chunks.peer_redirect");
    resp.status = net::ChunkFetchStatus::kRedirect;
    resp.peer = holder;
    response->payload = resp.Encode();
    co_return;
  }

  // Cold miss: single-flight to the origin — concurrent fetchers of the
  // same chunk ride one object-store read.
  const auto flight = inflight_.find(req.digest);
  if (flight != inflight_.end()) {
    std::shared_ptr<sim::Event> done = flight->second;
    ++stats_.coalesced;
    obs::Count(sim_, "chunks.coalesced");
    co_await done->Wait();
    resp.status = net::ChunkFetchStatus::kInlineHit;
    response->payload = resp.Encode();
    response->wire_bytes = req.bytes;
    co_return;
  }
  std::shared_ptr<sim::Event> done = std::make_shared<sim::Event>(sim_);
  inflight_[req.digest] = done;
  co_await origin_.ReadObject(storage::ChunkObjectId(req.digest), req.bytes);
  Insert(req.digest, req.bytes);
  ++stats_.origin_fetches;
  stats_.origin_bytes += req.bytes;
  obs::Count(sim_, "chunks.origin_fetch");
  obs::Count(sim_, "chunks.origin_bytes", req.bytes);
  inflight_.erase(req.digest);
  done->Set();
  resp.status = net::ChunkFetchStatus::kInlineOrigin;
  response->payload = resp.Encode();
  response->wire_bytes = req.bytes;
}

sim::Task RackChunkCache::HandleHave(const net::Message& request,
                                     net::Message* response) {
  crypto::WireReader reader(request.payload);
  const crypto::Digest digest = reader.Digest();
  if (!reader.AtEnd()) {
    response->kind = "chunk.error";
    co_return;
  }
  if (!quarantine_.contains({digest, request.src})) {
    auto& list = holders_[digest];
    if (std::find(list.begin(), list.end(), request.src) == list.end()) {
      list.push_back(request.src);
    }
  }
  response->payload = crypto::WireWriter().U32(1).Take();
  co_return;
}

ChunkFetcher::ChunkFetcher(sim::Simulation& sim, net::RpcNode& rpc,
                           net::Address rack_cache, net::SharedResource* verify_cpu)
    : sim_(sim), rpc_(rpc), rack_cache_(rack_cache), verify_cpu_(verify_cpu) {}

void ChunkFetcher::Start() {
  rpc_.RegisterHandler(std::string(net::kRpcChunkGet),
                       [this](const net::Message& req, net::Message* resp) {
                         return HandleGet(req, resp);
                       });
}

sim::Task ChunkFetcher::HandleGet(const net::Message& request,
                                  net::Message* response) {
  crypto::WireReader reader(request.payload);
  const crypto::Digest digest = reader.Digest();
  const uint64_t bytes = reader.U64();
  if (!reader.AtEnd()) {
    response->kind = "chunk.error";
    co_return;
  }
  // Echo the digest of the content actually served.  A corrupt (or
  // chunk-less) peer sends garbage, whose hash cannot equal the requested
  // digest — that is exactly what the requester's verification sees.
  crypto::Digest served = digest;
  if (corrupt_serves_ || !held_.contains(digest)) {
    served[0] ^= 0x01;
  }
  response->payload = crypto::WireWriter().Digest(served).Take();
  response->wire_bytes = bytes;
  co_return;
}

sim::Task ChunkFetcher::CallFetch(crypto::Digest digest, uint64_t bytes,
                                  net::Address exclude,
                                  net::ChunkFetchResponse* out, bool* ok) {
  *ok = false;
  net::ChunkFetchRequest req;
  req.digest = digest;
  req.bytes = bytes;
  req.exclude_peer = exclude;
  net::Message request;
  request.kind = std::string(net::kRpcChunkFetch);
  request.payload = req.Encode();
  net::Message response;
  bool rpc_ok = false;
  co_await rpc_.Call(rack_cache_, std::move(request), &response, &rpc_ok);
  if (!rpc_ok || response.kind == "chunk.error") {
    co_return;
  }
  *ok = net::ChunkFetchResponse::Decode(
      crypto::ByteView(response.payload.data(), response.payload.size()), out);
}

sim::Task ChunkFetcher::VerifyServed(const crypto::Digest& expected,
                                     const crypto::Digest& served, uint64_t bytes,
                                     bool* ok) {
  // Recomputing SHA-256 over the received chunk rides the machine's
  // crypto core; the comparison itself is the digest echo check.
  if (verify_cpu_ != nullptr) {
    co_await verify_cpu_->Consume(static_cast<double>(bytes));
  }
  *ok = served == expected;
}

sim::Task ChunkFetcher::RegisterHave(crypto::Digest digest) {
  net::Message request;
  request.kind = std::string(net::kRpcChunkHave);
  request.payload = crypto::WireWriter().Digest(digest).Take();
  net::Message response;
  bool rpc_ok = false;
  co_await rpc_.Call(rack_cache_, std::move(request), &response, &rpc_ok);
}

sim::Task ChunkFetcher::FetchChunk(crypto::Digest digest, uint64_t bytes, bool* ok) {
  *ok = false;
  net::ChunkFetchResponse resp;
  bool fetch_ok = false;
  co_await CallFetch(digest, bytes, /*exclude=*/0, &resp, &fetch_ok);
  if (!fetch_ok) {
    co_return;
  }

  if (resp.status == net::ChunkFetchStatus::kRedirect) {
    const net::Address peer = resp.peer;
    net::Message request;
    request.kind = std::string(net::kRpcChunkGet);
    request.payload = crypto::WireWriter().Digest(digest).U64(bytes).Take();
    net::Message response;
    bool rpc_ok = false;
    co_await rpc_.Call(peer, std::move(request), &response, &rpc_ok);
    bool verified = false;
    if (rpc_ok && response.kind != "chunk.error") {
      crypto::WireReader reader(response.payload);
      const crypto::Digest served = reader.Digest();
      if (reader.AtEnd()) {
        co_await VerifyServed(digest, served, bytes, &verified);
      }
    }
    if (!verified) {
      // Bad (or missing) peer serve: report it so the cache quarantines
      // the holder entry, and take the fallback inline path.
      ++stats_.mismatches;
      obs::Count(sim_, "chunks.peer_mismatch");
      fetch_ok = false;
      co_await CallFetch(digest, bytes, /*exclude=*/peer, &resp, &fetch_ok);
      if (!fetch_ok || resp.status == net::ChunkFetchStatus::kRedirect) {
        co_return;
      }
      bool inline_ok = false;
      co_await VerifyServed(digest, resp.served, bytes, &inline_ok);
      if (!inline_ok) {
        co_return;
      }
    } else {
      ++stats_.peer_fetches;
    }
  } else {
    bool inline_ok = false;
    co_await VerifyServed(digest, resp.served, bytes, &inline_ok);
    if (!inline_ok) {
      co_return;
    }
  }

  held_.insert(digest);
  ++stats_.fetched;
  stats_.fetched_bytes += bytes;
  co_await RegisterHave(digest);
  *ok = true;
}

sim::Task ChunkFetcher::FetchPrefix(const storage::ChunkManifest& manifest,
                                    uint64_t bytes, bool* ok) {
  *ok = false;
  const uint64_t limit = std::min(bytes, manifest.image_bytes);
  uint64_t fetched = 0;
  for (uint64_t i = 0; i < manifest.chunks.size() && fetched < limit; ++i) {
    const uint64_t chunk_bytes = manifest.ChunkBytes(i);
    crypto::Digest digest = manifest.chunks[i];
    bool chunk_ok = false;
    co_await FetchChunk(digest, chunk_bytes, &chunk_ok);
    if (!chunk_ok) {
      co_return;
    }
    fetched += chunk_bytes;
  }
  *ok = true;
}

}  // namespace bolted::provision
