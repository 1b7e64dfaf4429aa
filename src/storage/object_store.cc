#include "src/storage/object_store.h"

#include <cassert>
#include <utility>

namespace bolted::storage {

ObjectStore::ObjectStore(sim::Simulation& sim, const ObjectStoreConfig& config)
    : sim_(sim), config_(config) {
  assert(config.replication >= 1 && config.replication <= config.num_osd_hosts);
  const double host_bandwidth = config.spindle_bandwidth_bytes_per_second *
                                static_cast<double>(config.spindles_per_host);
  for (int i = 0; i < config.num_osd_hosts; ++i) {
    osds_.push_back(std::make_unique<net::SharedResource>(
        sim, host_bandwidth, "osd-" + std::to_string(i)));
  }
}

int ObjectStore::PrimaryOsdFor(ObjectId id) const {
  // Stand-in for CRUSH: deterministic mix of the object id.
  uint64_t h = id.hi * 0x9e3779b97f4a7c15u + id.lo;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdu;
  h ^= h >> 33;
  return static_cast<int>(h % static_cast<uint64_t>(config_.num_osd_hosts));
}

sim::Task ObjectStore::ReadObject(ObjectId id, uint64_t bytes) {
  assert(bytes <= config_.object_size);
  co_await sim::Delay(sim_, config_.op_latency);
  co_await osds_[static_cast<size_t>(PrimaryOsdFor(id))]->Consume(
      static_cast<double>(bytes + config_.per_op_overhead_bytes));
}

sim::Task ObjectStore::WriteObject(ObjectId id, uint64_t bytes) {
  assert(bytes <= config_.object_size);
  co_await sim::Delay(sim_, config_.op_latency);
  // Replicated write: the primary and replicas all absorb the bytes.
  sim::TaskGroup group(sim_);
  const int primary = PrimaryOsdFor(id);
  for (int r = 0; r < config_.replication; ++r) {
    const int host = (primary + r) % config_.num_osd_hosts;
    group.Spawn(osds_[static_cast<size_t>(host)]->Consume(
        static_cast<double>(bytes + config_.per_op_overhead_bytes)));
  }
  co_await group.WaitAll();
}

sim::Task ObjectStore::Put(ObjectId id, crypto::Bytes data) {
  assert(data.size() <= config_.object_size);
  co_await WriteObject(id, data.size());
  contents_[id] = std::move(data);
}

sim::Task ObjectStore::Get(ObjectId id, crypto::Bytes* out, bool* found) {
  const auto it = contents_.find(id);
  if (it == contents_.end()) {
    *found = false;
    co_return;
  }
  co_await ReadObject(id, it->second.size());
  *out = it->second;
  *found = true;
}

}  // namespace bolted::storage
