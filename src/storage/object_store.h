// Ceph-like replicated object store.
//
// The paper's BMI backend is a 3-host Ceph cluster with 27 spindles in
// total, storing 4 MB objects with 3-way replication.  We model each OSD
// host as a fluid bandwidth aggregate (spindles x per-spindle bandwidth)
// plus a per-operation latency; objects are placed by hash (a stand-in
// for CRUSH) and writes fan out to `replication` OSDs.  The aggregate
// spindle bandwidth is what saturates in the 16-server concurrent-boot
// experiment (Fig. 5, unattested curve).

#ifndef SRC_STORAGE_OBJECT_STORE_H_
#define SRC_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/bytes.h"
#include "src/net/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace bolted::storage {

struct ObjectId {
  uint64_t hi = 0;  // e.g. image id
  uint64_t lo = 0;  // e.g. object index within the image
  auto operator<=>(const ObjectId&) const = default;
};

struct ObjectStoreConfig {
  int num_osd_hosts = 3;
  int spindles_per_host = 9;  // 27 total, as in the paper
  double spindle_bandwidth_bytes_per_second = 110e6;
  sim::Duration op_latency = sim::Duration::Milliseconds(2);
  uint64_t object_size = 4 * 1024 * 1024;  // Ceph default
  int replication = 3;
  // Rotational overhead charged per object operation, expressed as
  // equivalent sequential bytes (seek+rotate time x spindle bandwidth).
  // This is what makes many small concurrent reads collapse the
  // aggregate — the paper's "small scale Ceph deployment" effect (Fig 5).
  uint64_t per_op_overhead_bytes = 500 * 1024;
};

class ObjectStore {
 public:
  ObjectStore(sim::Simulation& sim, const ObjectStoreConfig& config);

  const ObjectStoreConfig& config() const { return config_; }

  // Timing-only object I/O (bytes <= object_size).
  sim::Task ReadObject(ObjectId id, uint64_t bytes);
  sim::Task WriteObject(ObjectId id, uint64_t bytes);

  // Content-carrying I/O for small metadata objects.
  sim::Task Put(ObjectId id, crypto::Bytes data);
  // Sets *found=false when the object does not exist.
  sim::Task Get(ObjectId id, crypto::Bytes* out, bool* found);
  bool Exists(ObjectId id) const { return contents_.contains(id); }
  void Delete(ObjectId id) { contents_.erase(id); }

  int PrimaryOsdFor(ObjectId id) const;
  net::SharedResource& osd_resource(int host) { return *osds_[static_cast<size_t>(host)]; }

 private:
  sim::Simulation& sim_;
  ObjectStoreConfig config_;
  std::vector<std::unique_ptr<net::SharedResource>> osds_;
  std::map<ObjectId, crypto::Bytes> contents_;
};

}  // namespace bolted::storage

#endif  // SRC_STORAGE_OBJECT_STORE_H_
