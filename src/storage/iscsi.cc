#include "src/storage/iscsi.h"

#include <cassert>

#include "src/crypto/wire.h"

namespace bolted::storage {
namespace {

struct IoRequest {
  ImageId image = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

crypto::Bytes EncodeRequest(const IoRequest& request) {
  crypto::Bytes out;
  out.reserve(24);
  crypto::AppendU64(out, request.image);
  crypto::AppendU64(out, request.offset);
  crypto::AppendU64(out, request.bytes);
  return out;
}

std::optional<IoRequest> DecodeRequest(crypto::ByteView payload) {
  crypto::WireReader reader(payload);
  IoRequest request;
  request.image = reader.U64();
  request.offset = reader.U64();
  request.bytes = reader.U64();
  if (!reader.AtEnd()) {
    return std::nullopt;
  }
  return request;
}

}  // namespace

IscsiTarget::IscsiTarget(sim::Simulation& sim, net::RpcNode& node, ImageStore& images)
    : sim_(sim), node_(node), images_(images) {}

void IscsiTarget::Register() {
  node_.RegisterHandler("iscsi.read",
                        [this](const net::Message& request, net::Message* response) {
                          return HandleRead(request, response);
                        });
  node_.RegisterHandler("iscsi.write",
                        [this](const net::Message& request, net::Message* response) {
                          return HandleWrite(request, response);
                        });
}

void IscsiTarget::SetProcessingModel(net::SharedResource* cpu,
                                     double cycles_per_request,
                                     double cycles_per_byte) {
  processing_cpu_ = cpu;
  cycles_per_request_ = cycles_per_request;
  cycles_per_byte_ = cycles_per_byte;
}

sim::Task IscsiTarget::ChargeProcessing(uint64_t bytes) {
  if (processing_cpu_ != nullptr) {
    co_await processing_cpu_->Consume(cycles_per_request_ +
                                      cycles_per_byte_ * static_cast<double>(bytes));
  }
}

sim::Task IscsiTarget::HandleRead(const net::Message& request,
                                  net::Message* response) {
  const auto io = DecodeRequest(request.payload);
  if (!io || !images_.Exists(io->image)) {
    response->kind = "iscsi.error";
    co_return;
  }
  co_await ChargeProcessing(io->bytes);
  co_await images_.ReadRange(io->image, io->offset, io->bytes);
  ++reads_served_;
  response->kind = "iscsi.data";
  response->wire_bytes = io->bytes;  // the data travels back to the client
}

sim::Task IscsiTarget::HandleWrite(const net::Message& request,
                                   net::Message* response) {
  const auto io = DecodeRequest(request.payload);
  if (!io || !images_.Exists(io->image)) {
    response->kind = "iscsi.error";
    co_return;
  }
  co_await ChargeProcessing(io->bytes);
  co_await images_.WriteRange(io->image, io->offset, io->bytes);
  ++writes_served_;
  response->kind = "iscsi.ack";
}

IscsiInitiator::IscsiInitiator(sim::Simulation& sim, net::RpcNode& node,
                               net::Address target, ImageId image,
                               uint64_t virtual_size, const Options& options)
    : sim_(sim),
      node_(node),
      target_(target),
      image_(image),
      virtual_size_(virtual_size),
      options_(options) {}

sim::Task IscsiInitiator::WithIpsec(uint64_t bytes, sim::Task transfer) {
  if (!options_.ipsec.enabled) {
    co_await transfer;
    co_return;
  }
  const double payload = static_cast<double>(bytes);
  const double cycles = net::IpsecCryptoCycles(
      options_.ipsec_model, options_.ipsec.hardware_aes, options_.ipsec.mtu, payload);
  // Server-side ESP streams concurrently with the transfer...
  sim::TaskGroup group(sim_);
  group.Spawn(std::move(transfer));
  if (options_.remote_crypto_cpu != nullptr) {
    group.Spawn(options_.remote_crypto_cpu->Consume(cycles));
  }
  co_await group.WaitAll();
  // ...but the client cannot hand data to the filesystem until it has
  // decrypted the response, so the local ESP work is serial with the
  // request (the paper's "slower disk accessed over IPsec").  Pipelined
  // sequential readers overlap this across in-flight requests; synchronous
  // random readers (OS boot, Filebench-in-a-VM) eat it per request,
  // together with a fixed kernel-xfrm per-operation overhead.
  if (options_.local_crypto_cpu != nullptr) {
    co_await options_.local_crypto_cpu->Consume(cycles);
  }
  co_await sim::Delay(sim_, sim::Duration::SecondsF(1.5e-3));
}

sim::Task IscsiInitiator::Fetch(uint64_t offset, uint64_t bytes, bool write) {
  ++requests_issued_;
  net::Message request;
  request.kind = write ? "iscsi.write" : "iscsi.read";
  request.payload = EncodeRequest(IoRequest{image_, offset, bytes});
  if (write) {
    request.wire_bytes = bytes;  // the data travels with the request
  }
  net::Message response;
  bool ok = false;
  co_await WithIpsec(bytes,
                     node_.Call(target_, std::move(request), &response, &ok));
  last_op_failed_ = !ok || response.kind == "iscsi.error";
}

sim::Task IscsiInitiator::ReadAt(uint64_t offset, uint64_t bytes) {
  const uint64_t end = offset + bytes;
  assert(end <= virtual_size_);
  if (offset >= prefetch_start_ && end <= prefetched_until_) {
    co_return;  // satisfied by the read-ahead window
  }
  if (offset < prefetch_start_ || offset > prefetched_until_) {
    // Random jump: restart the sequential window here.
    prefetch_start_ = offset;
    prefetched_until_ = offset;
  }
  // Kernel read-ahead keeps a small pipeline of outstanding requests so
  // the target's storage reads overlap response transfers.
  constexpr int kPipelineDepth = 2;
  sim::Semaphore window(sim_, kPipelineDepth);
  sim::TaskGroup group(sim_);
  auto fetch_one = [this, &window](uint64_t at, uint64_t len) -> sim::Task {
    co_await window.Acquire();
    sim::SemaphoreGuard guard(window);
    co_await Fetch(at, len, /*write=*/false);
  };
  while (prefetched_until_ < end) {
    const uint64_t chunk =
        std::min(options_.read_ahead_bytes, virtual_size_ - prefetched_until_);
    group.Spawn(fetch_one(prefetched_until_, chunk));
    prefetched_until_ += chunk;
  }
  co_await group.WaitAll();
}

sim::Task IscsiInitiator::ReadSectors(uint64_t first_sector, uint64_t count,
                                      crypto::Bytes* out) {
  const uint64_t offset = first_sector * kSectorSize;
  const uint64_t bytes = count * kSectorSize;
  co_await ReadAt(offset, bytes);
  // Image content is timing-modelled; remote reads return zero-fill.
  out->assign(bytes, 0);
}

sim::Task IscsiInitiator::WriteSectors(uint64_t first_sector,
                                       const crypto::Bytes& data) {
  co_await Fetch(first_sector * kSectorSize, data.size(), /*write=*/true);
}

sim::Task IscsiInitiator::AccountRead(uint64_t bytes) {
  // Sequential read continuing from the window's high-water mark.
  const uint64_t offset = prefetched_until_;
  assert(offset + bytes <= virtual_size_);
  co_await ReadAt(offset, bytes);
}

sim::Task IscsiInitiator::AccountRandomRead(uint64_t bytes, uint64_t chunk_bytes) {
  // Random access defeats read-ahead: each chunk is its own request.  A
  // large odd stride makes every access miss the window.
  const uint64_t chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
  uint64_t offset = 0;
  const uint64_t stride = 37 * chunk_bytes + storage::kSectorSize;
  for (uint64_t i = 0; i < chunks; ++i) {
    offset = (offset + stride) % (virtual_size_ - chunk_bytes);
    co_await Fetch(offset, std::min(chunk_bytes, bytes - i * chunk_bytes),
                   /*write=*/false);
  }
  prefetch_start_ = 0;
  prefetched_until_ = 0;
}

sim::Task IscsiInitiator::AccountWrite(uint64_t bytes) {
  uint64_t remaining = bytes;
  uint64_t position = 0;
  while (remaining > 0) {
    const uint64_t chunk = std::min(remaining, options_.read_ahead_bytes);
    co_await Fetch(position % virtual_size_, chunk, /*write=*/true);
    position += chunk;
    remaining -= chunk;
  }
}

}  // namespace bolted::storage
