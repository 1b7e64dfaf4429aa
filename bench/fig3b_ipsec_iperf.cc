// Figure 3b: IPsec overhead between two servers (iperf-style bulk flow)
// for hardware (AES-NI) and software AES at MTU 1500 and 9000.
//
// Paper shape: even the best case (HW + jumbo frames) is ~2x below the
// plain 10 Gbit line; software AES and MTU 1500 degrade further; ESP
// processing burns 60-80 % of one core in the HW case.

#include <cinttypes>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/net/ipsec.h"
#include "src/net/network.h"
#include "src/net/pcap.h"
#include "src/net/resource.h"

namespace bolted {
namespace {

struct Row {
  std::string label;
  double gbit;
  double core_utilisation;
};

Row RunIperf(const std::string& label, const net::IpsecParams& params) {
  sim::Simulation simu;
  const net::IpsecCostModel model;
  net::SharedResource src_nic(simu, 1.25e9, "src.nic");
  net::SharedResource dst_nic(simu, 1.25e9, "dst.nic");
  net::SharedResource src_cpu(simu, model.cpu_hz, "src.crypto");
  net::SharedResource dst_cpu(simu, model.cpu_hz, "dst.crypto");

  const double bytes = 20e9;  // 20 GB flow
  double seconds = 0;
  auto flow = [&]() -> sim::Task {
    const double t0 = simu.now().ToSecondsF();
    co_await net::BulkTransfer(simu, {&src_nic, &src_cpu}, {&dst_nic, &dst_cpu},
                               bytes, params, model);
    seconds = simu.now().ToSecondsF() - t0;
  };
  simu.Spawn(flow());
  simu.Run();

  const double core = params.enabled
                          ? src_cpu.total_served() / (model.cpu_hz * seconds)
                          : 0.0;
  return Row{label, bytes * 8.0 / seconds / 1e9, core};
}

// A real ESP exchange over the simulated fabric: two switch ports on a
// shared VLAN, every frame sealed with AES-256-GCM and opened (replay
// check included) on the far side.  Optionally taps one port into a pcap
// capture (--pcap=client:/tmp/esp.pcap) so the framing is inspectable
// with wireshark/tcpdump — the capture is deterministic: same build, same
// bytes.
sim::Task EspReceiver(net::Endpoint& server, net::IpsecContext& sa,
                      int frames, uint64_t* verified) {
  for (int i = 0; i < frames; ++i) {
    net::Message m = co_await server.inbox().Recv();
    if (sa.Open(m.src, m.payload).has_value()) {
      ++*verified;
    }
  }
}

void RunEspExchange(const std::string& pcap_spec) {
  sim::Simulation simu;
  net::Network network(simu, sim::Duration::Microseconds(5), 1.25e9);
  net::Endpoint& client = network.CreateEndpoint("client");
  net::Endpoint& server = network.CreateEndpoint("server");
  network.AttachToVlan(client.address(), 2);
  network.AttachToVlan(server.address(), 2);

  net::PcapWriter writer;
  if (!pcap_spec.empty()) {
    const size_t colon = pcap_spec.find(':');
    const std::string link = pcap_spec.substr(0, colon);
    const std::string path =
        colon == std::string::npos ? "" : pcap_spec.substr(colon + 1);
    net::Endpoint* tap = network.FindByName(link);
    if (tap == nullptr || path.empty() || !writer.Open(path)) {
      std::fprintf(stderr,
                   "--pcap wants <link>:<file> with link in {client, server}; "
                   "got \"%s\"\n",
                   pcap_spec.c_str());
      std::exit(2);
    }
    network.AttachPcapTap(tap->address(), &writer);
  }

  net::IpsecContext client_sa(client.address());
  net::IpsecContext server_sa(server.address());
  const crypto::Bytes key(32, 0x42);
  client_sa.InstallSa(server.address(), key);
  server_sa.InstallSa(client.address(), key);

  constexpr int kFrames = 64;
  uint64_t verified = 0;
  simu.Spawn(EspReceiver(server, server_sa, kFrames, &verified));
  for (int i = 0; i < kFrames; ++i) {
    crypto::Bytes plain(1427, static_cast<uint8_t>(i));
    net::Message m;
    m.kind = "esp";
    m.payload = *client_sa.Seal(server.address(), plain);
    client.Post(server.address(), std::move(m));
  }
  simu.Run();

  std::printf("fabric ESP exchange: %d frames, %" PRIu64
              " opened+replay-checked, digest %016" PRIx64 "\n",
              kFrames, verified, network.frame_digest());
  if (!pcap_spec.empty()) {
    const uint64_t frames = writer.frames_written();
    const uint64_t bytes = writer.bytes_written();
    const bool clean = writer.Close();
    std::printf("pcap capture: %" PRIu64 " frames, %" PRIu64 " bytes%s\n",
                frames, bytes, clean ? "" : " (WRITE FAILED)");
  }
}

}  // namespace
}  // namespace bolted

int main(int argc, char** argv) {
  using bolted::bench::PrintHeader;

  std::string pcap_spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pcap=", 7) == 0) {
      pcap_spec = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: fig3b_ipsec_iperf [--pcap=<link>:<file>]\n");
      return 2;
    }
  }

  PrintHeader("Figure 3b: IPsec overhead (iperf, 10 Gbit link, 20 GB flow)");
  const bolted::Row rows[] = {
      bolted::RunIperf("plain MTU 9000", {.enabled = false, .mtu = 9000}),
      bolted::RunIperf("plain MTU 1500", {.enabled = false, .mtu = 1500}),
      bolted::RunIperf("IPsec HW MTU 9000",
                       {.enabled = true, .hardware_aes = true, .mtu = 9000}),
      bolted::RunIperf("IPsec HW MTU 1500",
                       {.enabled = true, .hardware_aes = true, .mtu = 1500}),
      bolted::RunIperf("IPsec SW MTU 9000",
                       {.enabled = true, .hardware_aes = false, .mtu = 9000}),
      bolted::RunIperf("IPsec SW MTU 1500",
                       {.enabled = true, .hardware_aes = false, .mtu = 1500}),
  };
  std::printf("%-20s %12s %18s\n", "config", "Gbit/s", "crypto core util");
  for (const auto& row : rows) {
    std::printf("%-20s %12.2f %17.0f%%\n", row.label.c_str(), row.gbit,
                row.core_utilisation * 100.0);
  }

  PrintHeader("Figure 3b: headline checks");
  std::printf("plain / IPsec-HW-9000 degradation: %.2fx (paper ~2x)\n",
              rows[0].gbit / rows[2].gbit);
  std::printf("HW crypto core utilisation: %.0f%% (paper 60-80%% of one core)\n",
              rows[2].core_utilisation * 100.0);

  PrintHeader("Figure 3b: ESP frames on the simulated fabric");
  bolted::RunEspExchange(pcap_spec);
  return 0;
}
