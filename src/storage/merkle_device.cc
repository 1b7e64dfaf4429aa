#include "src/storage/merkle_device.h"

#include <algorithm>
#include <utility>

#include "src/crypto/bytes.h"

namespace bolted::storage {
namespace {

// "BLTMRKL1": a committed journal header.  Anything else (including the
// all-zeros sector a clear writes) is treated as "no transaction".
constexpr uint64_t kJournalMagic = 0x424c544d524b4c31ull;

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | p[i];
  }
  return v;
}

crypto::Digest SectorDigest(const crypto::Bytes& sector) {
  return crypto::Sha256::Hash(crypto::ByteView(sector.data(), sector.size()));
}

bool DigestAt(const crypto::Bytes& node, uint64_t entry, crypto::Digest* out) {
  const size_t offset = static_cast<size_t>(entry) * crypto::Sha256::kDigestSize;
  if (offset + crypto::Sha256::kDigestSize > node.size()) {
    return false;
  }
  std::copy(node.begin() + static_cast<ptrdiff_t>(offset),
            node.begin() + static_cast<ptrdiff_t>(offset + crypto::Sha256::kDigestSize),
            out->begin());
  return true;
}

void SetDigestAt(crypto::Bytes* node, uint64_t entry, const crypto::Digest& digest) {
  const size_t offset = static_cast<size_t>(entry) * crypto::Sha256::kDigestSize;
  std::copy(digest.begin(), digest.end(),
            node->begin() + static_cast<ptrdiff_t>(offset));
}

}  // namespace

std::string_view IntegrityFaultName(IntegrityFault fault) {
  switch (fault) {
    case IntegrityFault::kNone:
      return "none";
    case IntegrityFault::kDataMismatch:
      return "data sector mismatch";
    case IntegrityFault::kHashNodeMismatch:
      return "hash node mismatch";
    case IntegrityFault::kRootTampered:
      return "stored root tampered";
    case IntegrityFault::kRollback:
      return "rollback to stale root";
  }
  return "unknown";
}

MerkleGeometry MerkleGeometry::For(uint64_t data_sectors) {
  MerkleGeometry g;
  g.data_sectors = data_sectors;
  uint64_t nodes = (data_sectors + kArity - 1) / kArity;
  if (nodes == 0) {
    nodes = 1;
  }
  uint64_t offset = data_sectors;
  for (;;) {
    g.level_nodes.push_back(nodes);
    g.level_offsets.push_back(offset);
    offset += nodes;
    if (nodes == 1) {
      break;
    }
    nodes = (nodes + kArity - 1) / kArity;
  }
  g.root_sector = offset;
  g.journal_header_sector = offset + 1;
  // Worst-case single transaction: every data sector, every hash node,
  // and the root copy dirty at once.
  g.journal_slots = data_sectors + g.hash_sectors() + 1;
  g.journal_index_sectors = (g.journal_slots * 8 + kSectorSize - 1) / kSectorSize;
  g.total_sectors =
      g.journal_header_sector + 1 + g.journal_index_sectors + g.journal_slots;
  return g;
}

uint64_t MerkleGeometry::hash_sectors() const {
  uint64_t total = 0;
  for (const uint64_t n : level_nodes) {
    total += n;
  }
  return total;
}

MerkleBlockDevice::MerkleBlockDevice(sim::Simulation& sim, BlockDevice* backing,
                                     uint64_t data_sectors, size_t cache_sectors,
                                     const MerkleCostModel& cost, std::string name)
    : sim_(sim),
      backing_(backing),
      geometry_(MerkleGeometry::For(data_sectors)),
      cache_sectors_(cache_sectors == 0 ? 1 : cache_sectors),
      hash_resource_(sim, cost.hash_bytes_per_second, name + ".hash"),
      name_(std::move(name)) {}

sim::Task MerkleBlockDevice::Format(sim::Simulation& sim, BlockDevice& backing,
                                    uint64_t data_sectors, crypto::Digest* root_out) {
  (void)sim;
  const MerkleGeometry g = MerkleGeometry::For(data_sectors);

  // Zero the data region (batched writes keep the event count sane).
  constexpr uint64_t kBatch = 128;
  crypto::Bytes zeros(kBatch * kSectorSize, 0);
  for (uint64_t s = 0; s < data_sectors; s += kBatch) {
    const uint64_t count = std::min(kBatch, data_sectors - s);
    if (count != kBatch) {
      zeros.resize(count * kSectorSize);
    }
    co_await backing.WriteSectors(s, zeros);
  }

  // Build the tree bottom-up in memory; entries past the covered range
  // stay zero bytes (not zero-sector digests).
  const crypto::Bytes zero_sector(kSectorSize, 0);
  const crypto::Digest zero_digest = SectorDigest(zero_sector);
  std::vector<crypto::Digest> child_digests(data_sectors, zero_digest);
  crypto::Digest root{};
  for (int level = 0; level < g.levels(); ++level) {
    const uint64_t nodes = g.level_nodes[static_cast<size_t>(level)];
    std::vector<crypto::Digest> node_digests(nodes);
    for (uint64_t i = 0; i < nodes; ++i) {
      crypto::Bytes node(kSectorSize, 0);
      const uint64_t first = i * MerkleGeometry::kArity;
      const uint64_t last =
          std::min<uint64_t>(first + MerkleGeometry::kArity, child_digests.size());
      for (uint64_t c = first; c < last; ++c) {
        SetDigestAt(&node, c - first, child_digests[c]);
      }
      node_digests[i] = SectorDigest(node);
      co_await backing.WriteSectors(g.NodeSector(level, i), node);
    }
    if (level + 1 == g.levels()) {
      root = node_digests[0];
    }
    child_digests = std::move(node_digests);
  }

  crypto::Bytes root_sector(kSectorSize, 0);
  std::copy(root.begin(), root.end(), root_sector.begin());
  co_await backing.WriteSectors(g.root_sector, root_sector);
  crypto::Bytes empty_header(kSectorSize, 0);
  co_await backing.WriteSectors(g.journal_header_sector, empty_header);

  if (root_out != nullptr) {
    *root_out = root;
  }
}

sim::Task MerkleBlockDevice::ReadBackingSector(uint64_t sector, crypto::Bytes* out) {
  co_await backing_->ReadSectors(sector, 1, out);
}

void MerkleBlockDevice::InsertCache(uint64_t sector, crypto::Bytes data, bool dirty) {
  CacheEntry& entry = cache_[sector];
  entry.data = std::move(data);
  entry.dirty = entry.dirty || dirty;
  entry.lru = ++lru_tick_;
  EvictCleanOverflow();
}

void MerkleBlockDevice::EvictCleanOverflow() {
  while (cache_.size() > cache_sectors_) {
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.dirty) {
        continue;
      }
      if (victim == cache_.end() || it->second.lru < victim->second.lru) {
        victim = it;
      }
    }
    if (victim == cache_.end()) {
      return;  // everything dirty: pinned until the next Flush
    }
    cache_.erase(victim);
    ++cache_evictions_;
  }
}

sim::Task MerkleBlockDevice::LoadHashNode(int level, uint64_t index,
                                          crypto::Bytes* out, bool* ok) {
  *ok = false;
  const int top = geometry_.levels() - 1;
  crypto::Digest expected = root_;
  crypto::Bytes content;
  for (int l = top; l >= level; --l) {
    const int shift = MerkleGeometry::kArityShift * (l - level);
    const uint64_t idx = index >> shift;
    const uint64_t sector = geometry_.NodeSector(l, idx);
    const auto it = cache_.find(sector);
    if (it != cache_.end()) {
      ++cache_hits_;
      it->second.lru = ++lru_tick_;
      content = it->second.data;
    } else {
      ++cache_misses_;
      co_await ReadBackingSector(sector, &content);
      co_await hash_resource_.Consume(static_cast<double>(kSectorSize));
      if (SectorDigest(content) != expected) {
        fault_ = IntegrityFault::kHashNodeMismatch;
        co_return;
      }
      crypto::Bytes copy = content;
      InsertCache(sector, std::move(copy), /*dirty=*/false);
    }
    if (l > level) {
      const uint64_t child = index >> (MerkleGeometry::kArityShift * (l - 1 - level));
      if (!DigestAt(content, child & (MerkleGeometry::kArity - 1), &expected)) {
        fault_ = IntegrityFault::kHashNodeMismatch;
        co_return;
      }
    }
  }
  *out = std::move(content);
  *ok = true;
}

sim::Task MerkleBlockDevice::LoadDataSector(uint64_t sector, crypto::Bytes* out,
                                            bool* ok) {
  *ok = false;
  const auto it = cache_.find(sector);
  if (it != cache_.end()) {
    ++cache_hits_;
    it->second.lru = ++lru_tick_;
    *out = it->second.data;
    *ok = true;
    co_return;
  }
  ++cache_misses_;
  crypto::Bytes leaf_node;
  bool node_ok = false;
  co_await LoadHashNode(0, sector >> MerkleGeometry::kArityShift, &leaf_node,
                        &node_ok);
  if (!node_ok) {
    co_return;
  }
  crypto::Bytes data;
  co_await ReadBackingSector(sector, &data);
  co_await hash_resource_.Consume(static_cast<double>(kSectorSize));
  crypto::Digest expected{};
  DigestAt(leaf_node, sector & (MerkleGeometry::kArity - 1), &expected);
  if (SectorDigest(data) != expected) {
    fault_ = IntegrityFault::kDataMismatch;
    co_return;
  }
  crypto::Bytes copy = data;
  InsertCache(sector, std::move(copy), /*dirty=*/false);
  *out = std::move(data);
  *ok = true;
}

sim::Task MerkleBlockDevice::ReadSectors(uint64_t first_sector, uint64_t count,
                                         crypto::Bytes* out) {
  out->assign(count * kSectorSize, 0);
  if (fault_ != IntegrityFault::kNone) {
    co_return;  // fail closed: no backing I/O, zero output
  }
  for (uint64_t i = 0; i < count; ++i) {
    crypto::Bytes sector;
    bool ok = false;
    co_await LoadDataSector(first_sector + i, &sector, &ok);
    if (!ok) {
      std::fill(out->begin(), out->end(), 0);
      co_return;
    }
    std::copy(sector.begin(), sector.end(),
              out->begin() + static_cast<ptrdiff_t>(i * kSectorSize));
  }
}

sim::Task MerkleBlockDevice::WriteSectors(uint64_t first_sector,
                                          const crypto::Bytes& data) {
  if (fault_ != IntegrityFault::kNone) {
    co_return;  // refused
  }
  const uint64_t count = data.size() / kSectorSize;
  for (uint64_t i = 0; i < count; ++i) {
    crypto::Bytes sector(data.begin() + static_cast<ptrdiff_t>(i * kSectorSize),
                         data.begin() + static_cast<ptrdiff_t>((i + 1) * kSectorSize));
    InsertCache(first_sector + i, std::move(sector), /*dirty=*/true);
  }
  co_return;
}

sim::Task MerkleBlockDevice::Flush() {
  if (fault_ != IntegrityFault::kNone) {
    co_return;
  }

  // Recompute leaf digests for dirty data sectors, dirtying their leaf
  // nodes, then propagate level by level to a new root.  std::map keeps
  // every pass in ascending-sector order, so the resulting root (and the
  // journal image) is a pure function of content — identical across cache
  // sizes and write orders.
  std::vector<uint64_t> dirty_data;
  for (const auto& [sector, entry] : cache_) {
    if (entry.dirty && sector < geometry_.data_sectors) {
      dirty_data.push_back(sector);
    }
  }
  bool any_dirty = !dirty_data.empty();
  for (const auto& [sector, entry] : cache_) {
    any_dirty = any_dirty || entry.dirty;
  }
  if (!any_dirty) {
    co_return;
  }

  for (const uint64_t sector : dirty_data) {
    crypto::Bytes node;
    bool ok = false;
    co_await LoadHashNode(0, sector >> MerkleGeometry::kArityShift, &node, &ok);
    if (!ok) {
      co_return;
    }
    co_await hash_resource_.Consume(static_cast<double>(kSectorSize));
    SetDigestAt(&node, sector & (MerkleGeometry::kArity - 1),
                SectorDigest(cache_.at(sector).data));
    InsertCache(geometry_.NodeSector(0, sector >> MerkleGeometry::kArityShift),
                std::move(node), /*dirty=*/true);
  }

  crypto::Digest new_root = root_;
  for (int level = 0; level < geometry_.levels(); ++level) {
    std::vector<uint64_t> dirty_nodes;
    const uint64_t level_base = geometry_.level_offsets[static_cast<size_t>(level)];
    const uint64_t level_end =
        level_base + geometry_.level_nodes[static_cast<size_t>(level)];
    for (const auto& [sector, entry] : cache_) {
      if (entry.dirty && sector >= level_base && sector < level_end) {
        dirty_nodes.push_back(sector);
      }
    }
    for (const uint64_t sector : dirty_nodes) {
      co_await hash_resource_.Consume(static_cast<double>(kSectorSize));
      const crypto::Digest digest = SectorDigest(cache_.at(sector).data);
      const uint64_t index = sector - level_base;
      if (level + 1 == geometry_.levels()) {
        new_root = digest;
      } else {
        crypto::Bytes parent;
        bool ok = false;
        co_await LoadHashNode(level + 1, index >> MerkleGeometry::kArityShift,
                              &parent, &ok);
        if (!ok) {
          co_return;
        }
        SetDigestAt(&parent, index & (MerkleGeometry::kArity - 1), digest);
        InsertCache(geometry_.NodeSector(level + 1,
                                         index >> MerkleGeometry::kArityShift),
                    std::move(parent), /*dirty=*/true);
      }
    }
  }

  // Commit set: every dirty sector plus the stored-root update.
  std::vector<std::pair<uint64_t, crypto::Bytes>> commit;
  for (const auto& [sector, entry] : cache_) {
    if (entry.dirty) {
      commit.emplace_back(sector, entry.data);
    }
  }
  crypto::Bytes root_sector(kSectorSize, 0);
  std::copy(new_root.begin(), new_root.end(), root_sector.begin());
  commit.emplace_back(geometry_.root_sector, root_sector);

  // Redo journal: content slots, then the index table, then a checksummed
  // commit header.  Only the header write makes the transaction real.
  crypto::Bytes index_bytes;
  crypto::Sha256 checksum;
  crypto::Bytes count_bytes;
  crypto::AppendU64(count_bytes, commit.size());
  checksum.Update(crypto::ByteView(count_bytes.data(), count_bytes.size()));
  for (size_t i = 0; i < commit.size(); ++i) {
    crypto::AppendU64(index_bytes, commit[i].first);
    co_await backing_->WriteSectors(geometry_.JournalSlotSector(i), commit[i].second);
  }
  checksum.Update(crypto::ByteView(index_bytes.data(), index_bytes.size()));
  for (const auto& [sector, content] : commit) {
    (void)sector;
    checksum.Update(crypto::ByteView(content.data(), content.size()));
  }
  index_bytes.resize(geometry_.journal_index_sectors * kSectorSize, 0);
  for (uint64_t i = 0; i < geometry_.journal_index_sectors; ++i) {
    crypto::Bytes page(
        index_bytes.begin() + static_cast<ptrdiff_t>(i * kSectorSize),
        index_bytes.begin() + static_cast<ptrdiff_t>((i + 1) * kSectorSize));
    co_await backing_->WriteSectors(geometry_.JournalIndexSector(i), page);
  }
  crypto::Bytes header;
  crypto::AppendU64(header, kJournalMagic);
  crypto::AppendU64(header, commit.size());
  const crypto::Digest check = checksum.Finish();
  crypto::Append(header, crypto::DigestView(check));
  header.resize(kSectorSize, 0);
  co_await backing_->WriteSectors(geometry_.journal_header_sector, header);

  // Apply in place, then retire the transaction.
  for (const auto& [sector, content] : commit) {
    co_await backing_->WriteSectors(sector, content);
  }
  crypto::Bytes empty_header(kSectorSize, 0);
  co_await backing_->WriteSectors(geometry_.journal_header_sector, empty_header);

  for (auto& [sector, entry] : cache_) {
    (void)sector;
    entry.dirty = false;
  }
  root_ = new_root;
  opened_ = true;
  EvictCleanOverflow();
}

sim::Task MerkleBlockDevice::Open(const crypto::Digest& expected_root, bool* ok) {
  *ok = false;
  cache_.clear();
  fault_ = IntegrityFault::kNone;

  // Replay a committed journal (idempotent redo).  An absent, torn, or
  // corrupt header means the transaction never happened.
  crypto::Bytes header;
  co_await ReadBackingSector(geometry_.journal_header_sector, &header);
  const uint64_t magic = ReadU64(header.data());
  const uint64_t count = ReadU64(header.data() + 8);
  if (magic == kJournalMagic && count > 0 && count <= geometry_.journal_slots) {
    crypto::Digest stored_check{};
    std::copy(header.begin() + 16, header.begin() + 48, stored_check.begin());
    crypto::Bytes index_bytes;
    for (uint64_t i = 0; i < geometry_.journal_index_sectors; ++i) {
      crypto::Bytes page;
      co_await ReadBackingSector(geometry_.JournalIndexSector(i), &page);
      crypto::Append(index_bytes, crypto::ByteView(page.data(), page.size()));
    }
    std::vector<uint64_t> targets(count);
    for (uint64_t i = 0; i < count; ++i) {
      targets[i] = ReadU64(index_bytes.data() + i * 8);
    }
    std::vector<crypto::Bytes> contents(count);
    for (uint64_t i = 0; i < count; ++i) {
      co_await ReadBackingSector(geometry_.JournalSlotSector(i), &contents[i]);
    }
    crypto::Sha256 checksum;
    crypto::Bytes count_bytes;
    crypto::AppendU64(count_bytes, count);
    checksum.Update(crypto::ByteView(count_bytes.data(), count_bytes.size()));
    crypto::Bytes raw_targets;
    for (uint64_t i = 0; i < count; ++i) {
      crypto::AppendU64(raw_targets, targets[i]);
    }
    checksum.Update(crypto::ByteView(raw_targets.data(), raw_targets.size()));
    for (const crypto::Bytes& content : contents) {
      checksum.Update(crypto::ByteView(content.data(), content.size()));
    }
    if (checksum.Finish() == stored_check) {
      for (uint64_t i = 0; i < count; ++i) {
        co_await backing_->WriteSectors(targets[i], contents[i]);
      }
      crypto::Bytes empty_header(kSectorSize, 0);
      co_await backing_->WriteSectors(geometry_.journal_header_sector, empty_header);
    }
  }

  crypto::Bytes root_sector;
  co_await ReadBackingSector(geometry_.root_sector, &root_sector);
  crypto::Digest stored{};
  std::copy(root_sector.begin(), root_sector.begin() + 32, stored.begin());
  if (stored == expected_root) {
    root_ = expected_root;
    opened_ = true;
    *ok = true;
    co_return;
  }

  // The stored root disagrees with the tenant.  If it still matches the
  // tree actually on disk, the provider restored an older but internally
  // consistent snapshot (rollback); otherwise the root itself was
  // tampered with.
  crypto::Bytes top;
  co_await ReadBackingSector(geometry_.NodeSector(geometry_.levels() - 1, 0), &top);
  co_await hash_resource_.Consume(static_cast<double>(kSectorSize));
  fault_ = SectorDigest(top) == stored ? IntegrityFault::kRollback
                                       : IntegrityFault::kRootTampered;
}

sim::Task MerkleBlockDevice::AccountRead(uint64_t bytes) {
  sim::TaskGroup group(sim_);
  group.Spawn(backing_->AccountRead(bytes));
  group.Spawn(hash_resource_.Consume(static_cast<double>(bytes)));
  co_await group.WaitAll();
}

sim::Task MerkleBlockDevice::AccountWrite(uint64_t bytes) {
  sim::TaskGroup group(sim_);
  group.Spawn(backing_->AccountWrite(bytes));
  group.Spawn(hash_resource_.Consume(static_cast<double>(bytes)));
  co_await group.WaitAll();
}

sim::Task MerkleBlockDevice::AccountRandomRead(uint64_t bytes, uint64_t chunk_bytes) {
  sim::TaskGroup group(sim_);
  group.Spawn(backing_->AccountRandomRead(bytes, chunk_bytes));
  group.Spawn(hash_resource_.Consume(static_cast<double>(bytes)));
  co_await group.WaitAll();
}

}  // namespace bolted::storage
