#include "src/bmi/bmi.h"

#include "src/crypto/wire.h"

namespace bolted::bmi {

BmiService::BmiService(sim::Simulation& sim, net::Endpoint& endpoint,
                       storage::ImageStore& images)
    : sim_(sim), node_(sim, endpoint), images_(images),
      iscsi_target_(sim, node_, images) {
  iscsi_target_.Register();
  node_.RegisterHandler(std::string(kRpcFetchArtifact),
                        [this](const net::Message& req, net::Message* resp) {
                          return HandleFetch(req, resp);
                        });
  node_.RegisterHandler(std::string(net::kRpcChunkManifest),
                        [this](const net::Message& req, net::Message* resp) {
                          return HandleManifest(req, resp);
                        });
  node_.Start();
}

storage::ImageId BmiService::RegisterGoldenImage(const std::string& name,
                                                 uint64_t size,
                                                 storage::BootInfo boot_info) {
  return images_.Create(name, size, std::move(boot_info));
}

std::optional<storage::ImageId> BmiService::CreateNodeImage(
    const std::string& node, storage::ImageId golden) {
  const auto clone = images_.Clone(golden, "node:" + node);
  if (clone) {
    node_images_[node] = *clone;
  }
  return clone;
}

bool BmiService::ReleaseNodeImage(const std::string& node, bool keep_snapshot) {
  const auto it = node_images_.find(node);
  if (it == node_images_.end()) {
    return false;
  }
  if (keep_snapshot) {
    images_.Snapshot(it->second,
                     "saved:" + node + ":" + std::to_string(snapshot_counter_++));
    // The clone itself stays alive as the snapshot's parent; it is no
    // longer exported for the node.
  } else {
    images_.Delete(it->second);
  }
  node_images_.erase(it);
  return true;
}

std::optional<storage::ImageId> BmiService::NodeImage(const std::string& node) const {
  const auto it = node_images_.find(node);
  if (it == node_images_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<storage::BootInfo> BmiService::ExtractBootInfo(
    storage::ImageId image) const {
  return images_.ExtractBootInfo(image);
}

void BmiService::PublishArtifact(const std::string& name, const Artifact& artifact) {
  artifacts_[name] = artifact;
}

std::optional<Artifact> BmiService::FindArtifact(const std::string& name) const {
  const auto it = artifacts_.find(name);
  if (it == artifacts_.end()) {
    return std::nullopt;
  }
  return it->second;
}

sim::Task BmiService::HandleFetch(const net::Message& request,
                                  net::Message* response) {
  crypto::WireReader reader(request.payload);
  const std::string name = reader.Str();
  const auto artifact = FindArtifact(name);
  if (!reader.AtEnd() || !artifact) {
    response->kind = "prov.error";
    co_return;
  }
  if (http_rate_ > 0) {
    co_await sim::Delay(sim_, sim::Duration::SecondsF(
                                  static_cast<double>(artifact->bytes) / http_rate_));
  }
  response->payload =
      crypto::WireWriter().U64(artifact->bytes).Digest(artifact->digest).Take();
  response->wire_bytes = artifact->bytes;  // the artifact body itself
}

void BmiService::RegisterChunkManifest(storage::ChunkManifest manifest) {
  std::string name = manifest.image_name;
  manifests_[std::move(name)] = std::move(manifest);
}

const storage::ChunkManifest* BmiService::FindChunkManifest(
    const std::string& image) const {
  const auto it = manifests_.find(image);
  return it == manifests_.end() ? nullptr : &it->second;
}

sim::Task BmiService::HandleManifest(const net::Message& request,
                                     net::Message* response) {
  crypto::WireReader reader(request.payload);
  const std::string image = reader.Str();
  const storage::ChunkManifest* manifest =
      reader.AtEnd() ? FindChunkManifest(image) : nullptr;
  if (manifest == nullptr) {
    response->kind = "prov.error";
    co_return;
  }
  response->payload = manifest->Encode();
  co_return;
}

sim::Task FetchArtifact(net::RpcNode& rpc, net::Address service,
                        const std::string& name, crypto::Digest* digest,
                        uint64_t* bytes, bool* ok) {
  *ok = false;
  net::Message request;
  request.kind = std::string(kRpcFetchArtifact);
  request.payload = crypto::WireWriter().Str(name).Take();
  net::Message response;
  bool rpc_ok = false;
  co_await rpc.Call(service, std::move(request), &response, &rpc_ok);
  if (!rpc_ok || response.kind == "prov.error") {
    co_return;
  }
  crypto::WireReader reader(response.payload);
  *bytes = reader.U64();
  *digest = reader.Digest();
  *ok = reader.AtEnd();
}

sim::Task FetchChunkManifest(net::RpcNode& rpc, net::Address service,
                             const std::string& image,
                             storage::ChunkManifest* manifest, bool* ok) {
  *ok = false;
  net::Message request;
  request.kind = std::string(net::kRpcChunkManifest);
  request.payload = crypto::WireWriter().Str(image).Take();
  net::Message response;
  bool rpc_ok = false;
  co_await rpc.Call(service, std::move(request), &response, &rpc_ok);
  if (!rpc_ok || response.kind == "prov.error") {
    co_return;
  }
  auto decoded = storage::ChunkManifest::Decode(
      crypto::ByteView(response.payload.data(), response.payload.size()));
  if (!decoded) {
    co_return;
  }
  *manifest = std::move(*decoded);
  *ok = true;
}

}  // namespace bolted::bmi
