// Storage substrate tests: block devices, the LUKS crypt layer, the
// replicated object store, copy-on-write images, and iSCSI with
// read-ahead.

#include <gtest/gtest.h>

#include "src/crypto/drbg.h"
#include "src/crypto/wire.h"
#include "src/net/network.h"
#include "src/net/rpc.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/storage/block_device.h"
#include "src/storage/crypt_device.h"
#include "src/storage/image.h"
#include "src/storage/iscsi.h"
#include "src/storage/object_store.h"

namespace bolted::storage {
namespace {

using crypto::Bytes;
using sim::Duration;
using sim::Simulation;
using sim::Task;

TEST(RamDiskTest, ReadWriteRoundTrip) {
  Simulation sim;
  RamDisk disk(sim, 1024, 5e9, 3.5e9, "ram");
  Bytes data(2 * kSectorSize, 0xab);
  Bytes read_back;
  auto flow = [&]() -> Task {
    co_await disk.WriteSectors(10, data);
    co_await disk.ReadSectors(10, 2, &read_back);
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_EQ(read_back, data);
}

TEST(RamDiskTest, UnwrittenSectorsReadZero) {
  Simulation sim;
  RamDisk disk(sim, 1024, 5e9, 3.5e9, "ram");
  Bytes read_back;
  auto flow = [&]() -> Task { co_await disk.ReadSectors(100, 1, &read_back); };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_EQ(read_back, Bytes(kSectorSize, 0));
}

TEST(RamDiskTest, ThroughputMatchesModel) {
  Simulation sim;
  RamDisk disk(sim, 1 << 20, 5e9, 2.5e9, "ram");
  double read_done = -1;
  auto reader = [&]() -> Task {
    co_await disk.AccountRead(5'000'000'000);
    read_done = sim.now().ToSecondsF();
  };
  sim.Spawn(reader());
  sim.Run();
  EXPECT_NEAR(read_done, 1.0, 1e-6);

  Simulation sim2;
  RamDisk disk2(sim2, 1 << 20, 5e9, 2.5e9, "ram");
  double write_done = -1;
  auto writer = [&]() -> Task {
    co_await disk2.AccountWrite(5'000'000'000);
    write_done = sim2.now().ToSecondsF();
  };
  sim2.Spawn(writer());
  sim2.Run();
  EXPECT_NEAR(write_done, 2.0, 1e-6);
}

TEST(DiskModelTest, SeekPenaltyForRandomAccess) {
  Simulation sim;
  DiskModel disk(sim, 1 << 20, 100e6, Duration::Milliseconds(8), "hdd");
  double done = -1;
  auto flow = [&]() -> Task {
    Bytes out;
    // Head starts at sector 0, so the first read is seek-free; the jump
    // to sector 1000 seeks.
    co_await disk.ReadSectors(0, 1, &out);
    co_await disk.ReadSectors(1000, 1, &out);
    done = sim.now().ToSecondsF();
  };
  sim.Spawn(flow());
  sim.Run();
  // 1 seek (8ms) + 2 * 4096/100e6 (~0.08ms).
  EXPECT_NEAR(done, 0.008 + 2 * 4096 / 100e6, 1e-5);
}

TEST(DiskModelTest, SequentialAccessAvoidsSeeks) {
  Simulation sim;
  DiskModel disk(sim, 1 << 20, 100e6, Duration::Milliseconds(8), "hdd");
  double done = -1;
  auto flow = [&]() -> Task {
    Bytes out;
    co_await disk.ReadSectors(0, 1, &out);
    co_await disk.ReadSectors(1, 1, &out);  // contiguous: no seek at all
    done = sim.now().ToSecondsF();
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_NEAR(done, 2 * 4096 / 100e6, 1e-5);
}

TEST(CryptDeviceTest, DataIsEncryptedOnBackingDevice) {
  Simulation sim;
  RamDisk backing(sim, 1024, 5e9, 3.5e9, "ram");
  const Bytes master_key(64, 0x5a);
  CryptDevice crypt(sim, &backing, master_key, CryptCostModel{}, "luks");

  const Bytes plaintext(kSectorSize, 0x77);
  Bytes on_disk;
  Bytes through_crypt;
  auto flow = [&]() -> Task {
    co_await crypt.WriteSectors(3, plaintext);
    co_await backing.ReadSectors(3, 1, &on_disk);
    co_await crypt.ReadSectors(3, 1, &through_crypt);
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_NE(on_disk, plaintext);  // provider sees ciphertext
  EXPECT_EQ(through_crypt, plaintext);
}

TEST(CryptDeviceTest, ReadThroughputIsCryptoBound) {
  Simulation sim;
  RamDisk backing(sim, 1 << 20, 5e9, 3.5e9, "ram");
  const Bytes master_key(64, 0x5a);
  const CryptCostModel cost{.decrypt_bytes_per_second = 1.0e9,
                            .encrypt_bytes_per_second = 0.8e9};
  CryptDevice crypt(sim, &backing, master_key, cost, "luks");
  double read_done = -1;
  auto flow = [&]() -> Task {
    co_await crypt.AccountRead(1'000'000'000);
    read_done = sim.now().ToSecondsF();
  };
  sim.Spawn(flow());
  sim.Run();
  // RAM is 5 GB/s but XTS caps at 1 GB/s: crypto bound.
  EXPECT_NEAR(read_done, 1.0, 1e-6);
}

TEST(LuksVolumeTest, UnlockWithCorrectSecretOnly) {
  crypto::Drbg drbg(uint64_t{42});
  const LuksVolume volume = LuksVolume::Format(crypto::ToBytes("passphrase"), drbg);
  EXPECT_TRUE(volume.Unlock(crypto::ToBytes("passphrase")).has_value());
  EXPECT_FALSE(volume.Unlock(crypto::ToBytes("wrong")).has_value());
}

TEST(LuksVolumeTest, MultipleKeySlots) {
  crypto::Drbg drbg(uint64_t{43});
  LuksVolume volume = LuksVolume::Format(crypto::ToBytes("tenant-key"), drbg);
  ASSERT_TRUE(volume.AddKeySlot(crypto::ToBytes("tenant-key"),
                                crypto::ToBytes("keylime-delivered-key"), drbg));
  EXPECT_EQ(volume.key_slot_count(), 2u);

  const auto via_first = volume.Unlock(crypto::ToBytes("tenant-key"));
  const auto via_second = volume.Unlock(crypto::ToBytes("keylime-delivered-key"));
  ASSERT_TRUE(via_first.has_value());
  ASSERT_TRUE(via_second.has_value());
  EXPECT_EQ(*via_first, *via_second);  // same master key

  // Adding a slot requires a valid existing secret.
  EXPECT_FALSE(volume.AddKeySlot(crypto::ToBytes("nope"), crypto::ToBytes("x"), drbg));
}

TEST(LuksVolumeTest, OpenYieldsWorkingDevice) {
  Simulation sim;
  RamDisk backing(sim, 1024, 5e9, 3.5e9, "ram");
  crypto::Drbg drbg(uint64_t{44});
  const LuksVolume volume = LuksVolume::Format(crypto::ToBytes("k"), drbg);

  auto device = volume.Open(sim, &backing, crypto::ToBytes("k"), CryptCostModel{}, "c");
  ASSERT_TRUE(device.has_value());
  EXPECT_FALSE(
      volume.Open(sim, &backing, crypto::ToBytes("bad"), CryptCostModel{}, "c")
          .has_value());
}

ObjectStoreConfig SmallStoreConfig() {
  ObjectStoreConfig config;
  config.num_osd_hosts = 3;
  config.spindles_per_host = 9;
  config.spindle_bandwidth_bytes_per_second = 100e6;
  config.op_latency = Duration::Milliseconds(2);
  config.replication = 3;
  return config;
}

TEST(ObjectStoreTest, PlacementIsDeterministicAndSpread) {
  Simulation sim;
  ObjectStore store(sim, SmallStoreConfig());
  std::array<int, 3> counts = {0, 0, 0};
  for (uint64_t i = 0; i < 300; ++i) {
    const int osd = store.PrimaryOsdFor(ObjectId{1, i});
    EXPECT_EQ(osd, store.PrimaryOsdFor(ObjectId{1, i}));
    counts[static_cast<size_t>(osd)]++;
  }
  for (int count : counts) {
    EXPECT_GT(count, 50);  // roughly uniform
  }
}

TEST(ObjectStoreTest, PutGetRoundTrip) {
  Simulation sim;
  ObjectStore store(sim, SmallStoreConfig());
  Bytes out;
  bool found = false;
  auto flow = [&]() -> Task {
    co_await store.Put(ObjectId{7, 1}, crypto::ToBytes("metadata"));
    co_await store.Get(ObjectId{7, 1}, &out, &found);
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_TRUE(found);
  EXPECT_EQ(out, crypto::ToBytes("metadata"));

  bool missing_found = true;
  Bytes ignored;
  auto flow2 = [&]() -> Task {
    co_await store.Get(ObjectId{7, 2}, &ignored, &missing_found);
  };
  sim.Spawn(flow2());
  sim.Run();
  EXPECT_FALSE(missing_found);
}

TEST(ObjectStoreTest, ReplicatedWritesFanOut) {
  Simulation sim;
  ObjectStore store(sim, SmallStoreConfig());
  auto writer = [&]() -> Task {
    co_await store.WriteObject(ObjectId{1, 0}, 4 * 1024 * 1024);
  };
  sim.Spawn(writer());
  sim.Run();
  double total_written = 0;
  for (int i = 0; i < 3; ++i) {
    total_written += store.osd_resource(i).total_served();
  }
  // 3-way replication: three hosts each absorb the object plus the
  // per-operation rotational overhead.
  const double per_host =
      4.0 * 1024 * 1024 + static_cast<double>(SmallStoreConfig().per_op_overhead_bytes);
  EXPECT_NEAR(total_written, 3.0 * per_host, 1.0);
}

TEST(ImageStoreTest, CreateCloneSnapshotDelete) {
  Simulation sim;
  ObjectStore objects(sim, SmallStoreConfig());
  ImageStore images(sim, objects);

  BootInfo boot{.kernel_bytes = 8 << 20, .initrd_bytes = 40 << 20,
                .kernel_cmdline = "root=/dev/sda1"};
  const ImageId golden = images.Create("fedora28", 20ull << 30, boot);
  EXPECT_TRUE(images.Exists(golden));
  EXPECT_EQ(images.VirtualSize(golden), 20ull << 30);
  EXPECT_EQ(images.ExtractBootInfo(golden), boot);
  EXPECT_EQ(images.FindByName("fedora28"), golden);

  const auto clone = images.Clone(golden, "tenant-1");
  ASSERT_TRUE(clone.has_value());
  EXPECT_EQ(images.VirtualSize(*clone), 20ull << 30);

  // Parent with children cannot be deleted; child can.
  EXPECT_FALSE(images.Delete(golden));
  EXPECT_TRUE(images.Delete(*clone));
  EXPECT_TRUE(images.Delete(golden));

  EXPECT_FALSE(images.Clone(9999, "missing").has_value());
}

TEST(ImageStoreTest, CopyOnWriteSharing) {
  Simulation sim;
  ObjectStore objects(sim, SmallStoreConfig());
  ImageStore images(sim, objects);
  const uint64_t object_size = objects.config().object_size;

  const ImageId golden = images.Create("golden", 1ull << 30, BootInfo{});
  auto flow = [&]() -> Task {
    // Populate two objects in the golden image.
    co_await images.WriteRange(golden, 0, 2 * object_size);
  };
  sim.Spawn(flow());
  sim.Run();
  EXPECT_EQ(images.OwnedObjectCount(golden), 2u);

  const auto clone = images.Clone(golden, "clone");
  ASSERT_TRUE(clone.has_value());
  EXPECT_EQ(images.OwnedObjectCount(*clone), 0u);  // shares everything

  // Writing one object in the clone owns just that object.
  auto flow2 = [&]() -> Task { co_await images.WriteRange(*clone, 0, object_size); };
  sim.Spawn(flow2());
  sim.Run();
  EXPECT_EQ(images.OwnedObjectCount(*clone), 1u);
  EXPECT_TRUE(images.RangeOwnedLocally(*clone, 0));
  EXPECT_FALSE(images.RangeOwnedLocally(*clone, object_size));
  // Golden unchanged.
  EXPECT_EQ(images.OwnedObjectCount(golden), 2u);
}

struct IscsiFixture {
  Simulation sim;
  net::Network net{sim, Duration::Microseconds(10), 1.25e9};
  ObjectStore objects{sim, SmallStoreConfig()};
  ImageStore images{sim, objects};
  net::Endpoint& server_ep{net.CreateEndpoint("iscsi-server")};
  net::Endpoint& client_ep{net.CreateEndpoint("client")};
  net::RpcNode server{sim, server_ep};
  net::RpcNode client{sim, client_ep};
  IscsiTarget target{sim, server, images};
  ImageId image = 0;

  IscsiFixture() {
    net.AttachToVlan(server_ep.address(), 10);
    net.AttachToVlan(client_ep.address(), 10);
    target.Register();
    server.Start();
    client.Start();
    image = images.Create("img", 4ull << 30, BootInfo{});
    // Pre-populate the image so reads hit real objects.
    auto fill = [this]() -> Task {
      co_await images.WriteRange(image, 0, 1ull << 30);
    };
    sim.Spawn(fill());
    sim.Run();
  }
};

TEST(IscsiTest, SequentialReadThroughputImprovesWithReadAhead) {
  auto run = [](uint64_t read_ahead) {
    IscsiFixture fx;
    IscsiInitiator::Options options;
    options.read_ahead_bytes = read_ahead;
    IscsiInitiator initiator(fx.sim, fx.client, fx.server_ep.address(), fx.image,
                             4ull << 30, options);
    const double start = fx.sim.now().ToSecondsF();
    double done = -1;
    auto flow = [&]() -> Task {
      co_await initiator.AccountRead(512ull << 20);  // 512 MB
      done = fx.sim.now().ToSecondsF();
    };
    fx.sim.Spawn(flow());
    fx.sim.Run();
    return (512.0 * (1 << 20)) / (done - start);
  };

  const double slow = run(kDefaultReadAhead);
  const double fast = run(kTunedReadAhead);
  // The paper found the 8 MB read-ahead critical: large improvement.
  EXPECT_GT(fast / slow, 3.0);
  EXPECT_GT(fast, 300e6);  // hundreds of MB/s when tuned
  EXPECT_LT(slow, 150e6);  // an order of magnitude down at the 128 KB default
}

TEST(IscsiTest, ReadsAreServedByTarget) {
  IscsiFixture fx;
  IscsiInitiator::Options options;
  options.read_ahead_bytes = kTunedReadAhead;
  IscsiInitiator initiator(fx.sim, fx.client, fx.server_ep.address(), fx.image,
                           4ull << 30, options);
  Bytes out;
  auto flow = [&]() -> Task { co_await initiator.ReadSectors(0, 4, &out); };
  fx.sim.Spawn(flow());
  fx.sim.Run();
  EXPECT_EQ(out.size(), 4 * kSectorSize);
  EXPECT_FALSE(initiator.last_op_failed());
  EXPECT_GE(fx.target.reads_served(), 1u);
}

TEST(IscsiTest, CacheHitsDoNotReissueRequests) {
  IscsiFixture fx;
  IscsiInitiator::Options options;
  options.read_ahead_bytes = kTunedReadAhead;
  IscsiInitiator initiator(fx.sim, fx.client, fx.server_ep.address(), fx.image,
                           4ull << 30, options);
  auto flow = [&]() -> Task {
    Bytes out;
    co_await initiator.ReadSectors(0, 1, &out);
    const uint64_t after_first = initiator.requests_issued();
    // Within the 8 MB prefetch window: free.
    co_await initiator.ReadSectors(1, 1, &out);
    co_await initiator.ReadSectors(100, 1, &out);
    EXPECT_EQ(initiator.requests_issued(), after_first);
  };
  fx.sim.Spawn(flow());
  fx.sim.Run();
}

// The target decodes the 24-byte (image, offset, bytes) request header
// fail-closed: every truncation of a well-formed request, and the request
// plus one trailing byte, is answered with iscsi.error and serves nothing.
TEST(IscsiTest, TruncatedOrExtendedRequestsGetErrors) {
  IscsiFixture fx;
  const Bytes well_formed =
      crypto::WireWriter().U64(fx.image).U64(0).U64(kSectorSize).Take();
  ASSERT_EQ(well_formed.size(), 24u);
  std::vector<Bytes> malformed;
  for (size_t cut = 0; cut < well_formed.size(); ++cut) {
    malformed.emplace_back(well_formed.begin(),
                           well_formed.begin() + static_cast<ptrdiff_t>(cut));
  }
  malformed.push_back(well_formed);
  malformed.back().push_back(0);

  const std::vector<std::string> kinds = {"iscsi.read", "iscsi.write"};
  std::vector<std::string> answers;
  // By value: the coroutine outlives its caller's temporaries.
  auto send = [&](std::string kind, Bytes payload) -> Task {
    net::Message request;
    request.kind = std::move(kind);
    request.payload = std::move(payload);
    net::Message response;
    bool ok = false;
    co_await fx.client.Call(fx.server_ep.address(), std::move(request), &response, &ok);
    answers.push_back(ok ? response.kind : "timeout");
  };
  auto flow = [&]() -> Task {
    for (const std::string& kind : kinds) {
      for (const Bytes& payload : malformed) {
        co_await send(kind, payload);
      }
    }
  };
  fx.sim.Spawn(flow());
  fx.sim.Run();
  ASSERT_EQ(answers.size(), kinds.size() * malformed.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], "iscsi.error") << kinds[i / malformed.size()] << " with "
                                         << malformed[i % malformed.size()].size()
                                         << " bytes";
  }
  EXPECT_EQ(fx.target.reads_served(), 0u);
  EXPECT_EQ(fx.target.writes_served(), 0u);

  // The well-formed request itself is served.
  answers.clear();
  fx.sim.Spawn(send("iscsi.read", well_formed));
  fx.sim.Run();
  EXPECT_EQ(answers, std::vector<std::string>{"iscsi.data"});
  EXPECT_EQ(fx.target.reads_served(), 1u);
}

TEST(IscsiTest, IsolationMakesTargetUnreachable) {
  IscsiFixture fx;
  IscsiInitiator::Options options;
  IscsiInitiator initiator(fx.sim, fx.client, fx.server_ep.address(), fx.image,
                           4ull << 30, options);
  // HIL moves the client off the provisioning VLAN.
  fx.net.DetachFromAllVlans(fx.client_ep.address());
  auto flow = [&]() -> Task {
    Bytes out;
    co_await initiator.ReadSectors(0, 1, &out);
  };
  fx.sim.Spawn(flow());
  fx.sim.Run();
  EXPECT_TRUE(initiator.last_op_failed());
}

TEST(IscsiTest, IpsecSlowsTheDataPath) {
  auto run = [](bool ipsec) {
    IscsiFixture fx;
    net::SharedResource client_cpu(fx.sim, 2.6e9, "client-cpu");
    net::SharedResource server_cpu(fx.sim, 2.6e9, "server-cpu");
    IscsiInitiator::Options options;
    options.read_ahead_bytes = kTunedReadAhead;
    options.ipsec.enabled = ipsec;
    options.ipsec.hardware_aes = true;
    options.ipsec.mtu = 9000;
    options.local_crypto_cpu = &client_cpu;
    options.remote_crypto_cpu = &server_cpu;
    IscsiInitiator initiator(fx.sim, fx.client, fx.server_ep.address(), fx.image,
                             4ull << 30, options);
    const double start = fx.sim.now().ToSecondsF();
    double done = -1;
    auto flow = [&]() -> Task {
      co_await initiator.AccountRead(512ull << 20);
      done = fx.sim.now().ToSecondsF();
    };
    fx.sim.Spawn(flow());
    fx.sim.Run();
    return done - start;
  };
  const double plain = run(false);
  const double encrypted = run(true);
  EXPECT_GT(encrypted / plain, 1.3);
}

}  // namespace
}  // namespace bolted::storage
