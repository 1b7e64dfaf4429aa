// Merkle-tree integrity layer over any BlockDevice (DESIGN.md §14).
//
// The paper's storage stack encrypts tenant disks (LUKS over iSCSI) but
// never authenticates them: a malicious provider can flip bits in, or roll
// back, the network-mounted volume and the tenant decrypts garbage —
// silently.  MerkleBlockDevice closes that gap the way openenclave's
// merkleblkdev/cacheblkdev pair does: every data sector is leafed into a
// SHA-256 hash tree whose interior nodes live on the same (untrusted)
// backing device, while the 32-byte root stays in tenant memory.  Any
// provider-side modification is then detected at read time as a hard
// integrity fault instead of plausible-looking plaintext.
//
// Layout on the backing device (sector numbers):
//   [0, d)                      data sectors (the virtual disk)
//   [d, d+h)                    hash nodes, level 0 (leaves) upward; each
//                               4096-byte node holds 128 child digests
//   root sector                 the stored copy of the current tree root
//   journal header              commit record for crash-atomic flushes
//   journal index + slots       redo journal (see Flush)
//
// Caching and write-back: data and hash sectors share one LRU block
// cache.  Writes land in the cache dirty and are pinned (never evicted)
// until Flush, which recomputes the dirty leaf digests, propagates the
// dirty chain to a new root, and applies the whole dirty set through a
// redo journal — content slots first, then a checksummed commit header,
// then the in-place writes, then the header clear.  A crash at any sector
// boundary therefore leaves the device wholly old (header not committed)
// or wholly new (committed journal replayed on Open), never a mix.
//
// Failure semantics (all sticky; a faulted device fails closed — reads
// return zeros, writes are refused):
//   kDataMismatch      a data sector's content does not match its leaf
//   kHashNodeMismatch  an interior node does not match its parent entry
//   kRootTampered      the stored root matches neither the tenant's root
//                      nor the tree actually on disk
//   kRollback          the on-disk state is internally consistent but
//                      carries a root the tenant has already moved past
//
// The Account* byte paths work without Format/Open: they overlay the
// hash-verification throughput model on the backing device's timing, which
// is how the enclave boot path charges integrity costs for multi-gigabyte
// images without materialising a tree.

#ifndef SRC_STORAGE_MERKLE_DEVICE_H_
#define SRC_STORAGE_MERKLE_DEVICE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/storage/block_device.h"

namespace bolted::storage {

// SHA-256 verification throughput for the integrity data path.  SHA-NI
// hashes a sector far faster than AES-XTS decrypts it, so the verify leg
// overlaps the crypt leg and mostly hides.
struct MerkleCostModel {
  double hash_bytes_per_second = 3.0e9;
};

enum class IntegrityFault {
  kNone = 0,
  kDataMismatch,
  kHashNodeMismatch,
  kRootTampered,
  kRollback,
};

std::string_view IntegrityFaultName(IntegrityFault fault);

// Tree and journal layout derived from the data-sector count.  The
// journal is sized so the worst-case dirty set (every data and hash
// sector plus the root copy) commits in a single transaction — flush
// atomicity never depends on the write pattern.
struct MerkleGeometry {
  static constexpr uint64_t kArity = kSectorSize / crypto::Sha256::kDigestSize;
  static constexpr int kArityShift = 7;  // 128 == 1 << 7

  uint64_t data_sectors = 0;
  std::vector<uint64_t> level_nodes;    // nodes per level, leaves first
  std::vector<uint64_t> level_offsets;  // backing sector of each level
  uint64_t root_sector = 0;
  uint64_t journal_header_sector = 0;
  uint64_t journal_index_sectors = 0;
  uint64_t journal_slots = 0;
  uint64_t total_sectors = 0;  // full backing footprint

  static MerkleGeometry For(uint64_t data_sectors);

  int levels() const { return static_cast<int>(level_nodes.size()); }
  uint64_t hash_sectors() const;
  uint64_t NodeSector(int level, uint64_t index) const {
    return level_offsets[static_cast<size_t>(level)] + index;
  }
  uint64_t JournalIndexSector(uint64_t i) const {
    return journal_header_sector + 1 + i;
  }
  uint64_t JournalSlotSector(uint64_t i) const {
    return journal_header_sector + 1 + journal_index_sectors + i;
  }
};

class MerkleBlockDevice : public BlockDevice {
 public:
  // `backing` must span at least MerkleGeometry::For(data_sectors)
  // .total_sectors.  `cache_sectors` bounds the clean population of the
  // block cache; dirty sectors are pinned beyond it until Flush.
  MerkleBlockDevice(sim::Simulation& sim, BlockDevice* backing,
                    uint64_t data_sectors, size_t cache_sectors,
                    const MerkleCostModel& cost, std::string name);

  // Writes a fresh all-zeros device: zeroed data sectors, the matching
  // hash tree, the stored root, and an empty journal.  Returns the root
  // the tenant must hold to Open the device.
  static sim::Task Format(sim::Simulation& sim, BlockDevice& backing,
                          uint64_t data_sectors, crypto::Digest* root_out);

  // Replays any committed journal, then checks the stored root against
  // the tenant-held one.  On mismatch sets kRollback (disk is internally
  // consistent but old) or kRootTampered and fails closed.
  sim::Task Open(const crypto::Digest& expected_root, bool* ok);

  // Commits every dirty sector crash-atomically and advances the root.
  sim::Task Flush();

  uint64_t num_sectors() const override { return geometry_.data_sectors; }
  sim::Task ReadSectors(uint64_t first_sector, uint64_t count,
                        crypto::Bytes* out) override;
  sim::Task WriteSectors(uint64_t first_sector, const crypto::Bytes& data) override;
  sim::Task AccountRead(uint64_t bytes) override;
  sim::Task AccountWrite(uint64_t bytes) override;
  sim::Task AccountRandomRead(uint64_t bytes, uint64_t chunk_bytes) override;

  IntegrityFault fault() const { return fault_; }
  const crypto::Digest& root() const { return root_; }
  const MerkleGeometry& geometry() const { return geometry_; }

  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t cache_evictions() const { return cache_evictions_; }

 private:
  struct CacheEntry {
    crypto::Bytes data;
    bool dirty = false;
    uint64_t lru = 0;
  };

  // Verified top-down walk: loads the hash node at (level, index) into
  // *out, checking each uncached node on the path against its parent (the
  // top node against the in-memory root).  *ok=false flips the sticky
  // fault.
  sim::Task LoadHashNode(int level, uint64_t index, crypto::Bytes* out, bool* ok);
  // Loads and verifies one data sector.
  sim::Task LoadDataSector(uint64_t sector, crypto::Bytes* out, bool* ok);
  sim::Task ReadBackingSector(uint64_t sector, crypto::Bytes* out);

  void InsertCache(uint64_t sector, crypto::Bytes data, bool dirty);
  void EvictCleanOverflow();

  sim::Simulation& sim_;
  BlockDevice* backing_;
  MerkleGeometry geometry_;
  size_t cache_sectors_;
  net::SharedResource hash_resource_;
  std::string name_;

  crypto::Digest root_{};
  bool opened_ = false;
  IntegrityFault fault_ = IntegrityFault::kNone;

  std::map<uint64_t, CacheEntry> cache_;
  uint64_t lru_tick_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
};

}  // namespace bolted::storage

#endif  // SRC_STORAGE_MERKLE_DEVICE_H_
