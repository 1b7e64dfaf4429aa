// Calibration constants for the simulated testbed (§7.1 of the paper).
//
// Every number here is sourced from the paper's text or chosen to land in
// the same regime as the authors' hardware; benches sweep the interesting
// ones.  Changing a constant changes the simulated testbed, not the
// system logic.

#ifndef SRC_CORE_CALIBRATION_H_
#define SRC_CORE_CALIBRATION_H_

#include "src/net/ipsec.h"
#include "src/sim/time.h"
#include "src/storage/crypt_device.h"
#include "src/storage/merkle_device.h"
#include "src/storage/object_store.h"
#include "src/tpm/tpm.h"

namespace bolted::core {

struct Calibration {
  // --- Network (10 Gbit switch, §7.1) ------------------------------------
  double nic_bandwidth_bytes_per_second = 1.25e9;
  sim::Duration network_latency = sim::Duration::Microseconds(30);
  net::IpsecCostModel ipsec;

  // --- Servers (Dell M620: 2x8 cores E5-2650v2 @ 2.6 GHz, 64 GB) ---------
  int cores = 16;
  double core_hz = 2.6e9;
  uint64_t memory_bytes = 64ull << 30;
  double memory_scrub_bytes_per_second = 8e9;
  tpm::TpmLatencyModel tpm_latency;

  // --- Storage (Ceph: 3 OSD hosts, 27 spindles; LUKS ceilings, Fig 3a) ---
  storage::ObjectStoreConfig ceph;
  storage::CryptCostModel luks;
  storage::MerkleCostModel merkle;
  double ram_disk_read_bytes_per_second = 5.2e9;
  double ram_disk_write_bytes_per_second = 3.6e9;
  uint64_t iscsi_read_ahead_bytes = storage::kTunedReadAhead;

  // --- Images and boot (Fedora 28 image, §7.1; Fig 4 phases) -------------
  uint64_t image_virtual_bytes = 20ull << 30;
  // "less than 1% of the image is typically used" during a network boot.
  uint64_t boot_read_bytes = 500ull << 20;
  // Mostly scattered small reads during kernel+userspace boot.
  uint64_t boot_random_chunk_bytes = 32 * 1024;
  double boot_sequential_fraction = 0.15;
  uint64_t kernel_bytes = 8ull << 20;
  uint64_t initrd_bytes = 45ull << 20;
  uint64_t keylime_agent_bytes = 30ull << 20;
  // The prototype serves artifacts over plain single-stream HTTP (the
  // paper calls this out as an optimisation opportunity).
  double artifact_http_bytes_per_second = 20e6;
  // Content-addressed distribution (DESIGN.md §14): chunk granularity and
  // the per-rack cache budget.  8 GB comfortably holds a fleet's boot
  // working set (~500 MB) many images over.
  uint64_t chunk_bytes = 4ull << 20;
  uint64_t rack_chunk_cache_bytes = 8ull << 30;
  sim::Duration linuxboot_init_time = sim::Duration::Seconds(15);
  sim::Duration agent_start_time = sim::Duration::Seconds(3);
  sim::Duration kexec_time = sim::Duration::Seconds(2);
  // Kernel + userspace service start, excluding root-disk reads.
  sim::Duration kernel_init_time = sim::Duration::Seconds(20);

  // --- HIL / switch reconfiguration time ----------------------------------
  sim::Duration switch_reconfig_time = sim::Duration::Seconds(3);
  sim::Duration bmc_power_cycle_time = sim::Duration::Seconds(10);

  // --- Keylime ------------------------------------------------------------
  sim::Duration continuous_attestation_interval = sim::Duration::Seconds(2);

  // The paper's prototype supports a single airlock at a time, which
  // serializes attested provisioning (Fig. 5's attested curve).
  int max_concurrent_airlocks = 1;
};

}  // namespace bolted::core

#endif  // SRC_CORE_CALIBRATION_H_
