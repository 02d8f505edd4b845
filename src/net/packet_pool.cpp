#include "net/packet_pool.hpp"

#include <atomic>

#include "util/env.hpp"

namespace manet::net {

namespace {

thread_local PacketPool* tlsPool = nullptr;

// Atomic for the same reason as obs::forceCollection: differential tests
// flip it on the main thread while sweep workers consult it; relaxed is
// enough (it only gates which allocator a fresh World installs).
std::atomic<bool> gEnabled{true};

bool enabledFromEnv() {
  static const bool fromEnv = util::envBool("MANET_PACKET_POOL", true);
  return fromEnv;
}

}  // namespace

PacketPool* PacketPool::current() { return tlsPool; }

bool PacketPool::enabled() {
  return enabledFromEnv() && gEnabled.load(std::memory_order_relaxed);
}

void PacketPool::setEnabled(bool on) {
  gEnabled.store(on, std::memory_order_relaxed);
}

PacketPool::Scope::Scope(PacketPool* pool) : previous_(tlsPool) {
  tlsPool = pool;
}

PacketPool::Scope::~Scope() { tlsPool = previous_; }

std::shared_ptr<Packet> makePacket() {
  if (PacketPool* pool = PacketPool::current()) return pool->make();
  return std::make_shared<Packet>();
}

std::shared_ptr<Packet> makePacket(const Packet& proto) {
  if (PacketPool* pool = PacketPool::current()) return pool->make(proto);
  return std::make_shared<Packet>(proto);
}

}  // namespace manet::net
