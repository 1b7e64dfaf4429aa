#include "src/machine/machine.h"

#include "src/crypto/bytes.h"

namespace bolted::machine {

Machine::Machine(sim::Simulation& sim, net::Network& network, std::string name,
                 const MachineConfig& config)
    : sim_(sim),
      name_(std::move(name)),
      config_(config),
      endpoint_(network.CreateEndpoint(name_, config.nic_bandwidth_bytes_per_second)),
      rpc_(sim, endpoint_),
      cpu_(sim, static_cast<double>(config.cores) * config.core_hz, name_ + ".cpu"),
      crypto_cpu_(sim, config.core_hz, name_ + ".crypto"),
      ipsec_(endpoint_.address()),
      tpm_(crypto::ToBytes(name_ + ".tpm"), config.tpm_latency),
      local_disk_(std::make_unique<storage::DiskModel>(
          sim, config.local_disk_sectors,
          config.local_disk_bandwidth_bytes_per_second,
          sim::Duration::Milliseconds(8), name_ + ".disk")),
      peripherals_(PeripheralSet::StandardComplement(name_)) {
  rpc_.Start();
}

void Machine::PowerCycleReset() {
  tpm_.Reset();
  boot_log_.Clear();
  power_state_ = PowerState::kOff;
  memory_dirty_ = true;  // DRAM retains the previous occupant's data
}

void Machine::ReflashFirmware(const firmware::FirmwareImage& image) {
  config_.flash_firmware = image;
}

sim::Task Machine::PowerOnSelfTest() {
  power_state_ = PowerState::kFirmware;
  // SRTM: the platform root of trust measures the flash firmware before
  // executing it.
  MeasureIntoPcr(tpm::kPcrFirmware, config_.flash_firmware.digest,
                 "flash:" + config_.flash_firmware.name);
  // Measurement-capable peripherals (rare; SP 800-193-style) join the
  // chain; everything else is the documented attestation blind spot (§6).
  for (const crypto::Digest& digest : peripherals_.MeasurableDigests()) {
    MeasureIntoPcr(tpm::kPcrFirmwareConfig, digest, "peripheral-fw");
  }
  co_await sim::Delay(sim_, config_.flash_firmware.post_time);
  if (config_.flash_firmware.scrubs_memory && memory_dirty_) {
    co_await ScrubMemory();
  }
}

sim::Task Machine::ScrubMemory() {
  const double seconds = static_cast<double>(config_.memory_bytes) /
                         config_.memory_scrub_bytes_per_second;
  co_await sim::Delay(sim_, sim::Duration::SecondsF(seconds));
  memory_dirty_ = false;
}

void Machine::MeasureIntoPcr(int pcr, const crypto::Digest& digest,
                             const std::string& description) {
  boot_log_.Add(pcr, digest, description);
  tpm_.ExtendPcr(pcr, digest);
}

sim::Task Machine::KexecInto(const crypto::Digest& kernel_digest,
                             const crypto::Digest& initrd_digest) {
  MeasureIntoPcr(tpm::kPcrKernel, kernel_digest, "kexec:kernel");
  MeasureIntoPcr(tpm::kPcrKernel, initrd_digest, "kexec:initrd");
  // kexec itself is fast; the kernel's own boot time is modelled by the
  // boot flow (it depends on where the root disk lives).
  co_await sim::Delay(sim_, sim::Duration::Seconds(2));
  power_state_ = PowerState::kTenantOs;
}

}  // namespace bolted::machine
