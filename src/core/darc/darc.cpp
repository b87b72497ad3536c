#include "core/darc/darc.hpp"

#include "core/am/am_engine.hpp"
#include "core/world/world.hpp"

namespace lamellar {

// ---- internal protocol AMs ------------------------------------------------

namespace darc_protocol {

struct DropAm {
  static constexpr bool kRuntimeInternal = true;
  darc_id id = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(id);
  }
  void exec(AmContext& ctx) { ctx.world().darc_manager().on_drop(id); }
};

struct ReviveAm {
  static constexpr bool kRuntimeInternal = true;
  darc_id id = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(id);
  }
  void exec(AmContext& ctx) { ctx.world().darc_manager().on_revive(id); }
};

struct CheckAm {
  static constexpr bool kRuntimeInternal = true;
  darc_id id = 0;
  std::uint64_t epoch = 0;
  pe_id root = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(id, epoch, root);
  }
  void exec(AmContext& ctx) {
    ctx.world().darc_manager().on_check(id, epoch, root);
  }
};

struct CheckReplyAm {
  static constexpr bool kRuntimeInternal = true;
  darc_id id = 0;
  std::uint64_t epoch = 0;
  bool ok = false;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(id, epoch, ok);
  }
  void exec(AmContext& ctx) {
    ctx.world().darc_manager().on_check_reply(id, epoch, ok);
  }
};

struct DestroyAm {
  static constexpr bool kRuntimeInternal = true;
  darc_id id = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(id);
  }
  void exec(AmContext& ctx) { ctx.world().darc_manager().on_destroy(id); }
};

struct TransferAckAm {
  static constexpr bool kRuntimeInternal = true;
  darc_id id = 0;
  template <class Ar>
  void serialize(Ar& ar) {
    ar(id);
  }
  void exec(AmContext& ctx) { ctx.world().darc_manager().on_transfer_ack(id); }
};

}  // namespace darc_protocol

}  // namespace lamellar

LAMELLAR_REGISTER_AM(lamellar::darc_protocol::DropAm);
LAMELLAR_REGISTER_AM(lamellar::darc_protocol::ReviveAm);
LAMELLAR_REGISTER_AM(lamellar::darc_protocol::CheckAm);
LAMELLAR_REGISTER_AM(lamellar::darc_protocol::CheckReplyAm);
LAMELLAR_REGISTER_AM(lamellar::darc_protocol::DestroyAm);
LAMELLAR_REGISTER_AM(lamellar::darc_protocol::TransferAckAm);

namespace lamellar {

// ---- DarcManager -----------------------------------------------------------

void DarcManager::install(darc_id id, std::shared_ptr<void> instance,
                          pe_id root_pe) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = entries_.try_emplace(id);
  if (!inserted) throw Error("DarcManager: duplicate install");
  it->second.instance = std::move(instance);
  it->second.handle_count = 1;
  it->second.root_pe = root_pe;
}

void DarcManager::install_root(darc_id id, std::vector<pe_id> member_pes) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = roots_.try_emplace(id);
  if (!inserted) throw Error("DarcManager: duplicate root install");
  it->second.live_pes = static_cast<std::int64_t>(member_pes.size());
  it->second.members = std::move(member_pes);
}

std::shared_ptr<void> DarcManager::instance(darc_id id) {
  std::lock_guard lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw Error("DarcManager: unknown darc " + std::to_string(id) +
                " (sent to a PE outside its team, or already destroyed?)");
  }
  return it->second.instance;
}

void DarcManager::add_ref(darc_id id) {
  std::vector<Action> actions;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) throw Error("DarcManager: add_ref unknown darc");
    LocalEntry& e = it->second;
    if (e.handle_count++ == 0 && e.reported_dropped) {
      e.reported_dropped = false;
      actions.push_back(Action{Act::kRevive, id, e.root_pe, 0, {}});
    }
  }
  for (const auto& a : actions) perform(a);
}

void DarcManager::release_ref(darc_id id) {
  std::vector<Action> actions;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      throw Error("DarcManager: release_ref unknown darc");
    }
    LocalEntry& e = it->second;
    if (e.handle_count == 0) throw Error("DarcManager: ref underflow");
    if (--e.handle_count == 0 && !e.reported_dropped) {
      e.reported_dropped = true;
      actions.push_back(Action{Act::kDrop, id, e.root_pe, 0, {}});
    }
  }
  for (const auto& a : actions) perform(a);
}

void DarcManager::transfer_out(darc_id id) {
  // The serialized handle exists, so handle_count >= 1: a plain increment.
  std::lock_guard lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    throw Error("DarcManager: transfer of unknown darc");
  }
  ++it->second.handle_count;
  ++it->second.in_flight;
}

void DarcManager::transfer_in(darc_id id, pe_id from) {
  add_ref(id);
  perform(Action{Act::kAck, id, from, 0, {}});
}

void DarcManager::on_drop(darc_id id) {
  std::vector<Action> actions;
  {
    std::lock_guard lock(mu_);
    auto it = roots_.find(id);
    if (it == roots_.end()) throw Error("DarcManager: drop at non-root");
    RootEntry& root = it->second;
    --root.live_pes;
    maybe_start_check(id, root, actions);
  }
  for (const auto& a : actions) perform(a);
}

void DarcManager::on_revive(darc_id id) {
  std::lock_guard lock(mu_);
  auto it = roots_.find(id);
  if (it == roots_.end()) throw Error("DarcManager: revive at non-root");
  RootEntry& root = it->second;
  ++root.live_pes;
  ++root.epoch;  // invalidates any in-flight check
}

void DarcManager::on_check(darc_id id, std::uint64_t epoch, pe_id root) {
  bool ok = false;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    ok = it != entries_.end() && it->second.handle_count == 0;
  }
  auto& world = *engine_.world();
  world.exec_am_pe(root, darc_protocol::CheckReplyAm{id, epoch, ok});
}

void DarcManager::on_check_reply(darc_id id, std::uint64_t epoch, bool ok) {
  std::vector<Action> actions;
  {
    std::lock_guard lock(mu_);
    auto it = roots_.find(id);
    if (it == roots_.end()) throw Error("DarcManager: check reply at non-root");
    RootEntry& root = it->second;
    if (!root.checking || epoch != root.check_epoch) return;  // stale
    root.check_ok = root.check_ok && ok;
    if (++root.check_replies == root.members.size()) {
      root.checking = false;
      if (root.check_ok && root.live_pes == 0 && root.epoch == epoch) {
        actions.push_back(
            Action{Act::kDestroyBroadcast, id, 0, 0, root.members});
        roots_.erase(it);
      }
      // On failure a revive is in flight (the only way a member can hold a
      // reference while live_pes == 0): the revive will raise live_pes, and
      // the next drop restarts the check.  No retry here.
    }
  }
  for (const auto& a : actions) perform(a);
}

void DarcManager::on_destroy(darc_id id) {
  std::shared_ptr<void> doomed;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) throw Error("DarcManager: destroy unknown darc");
    if (it->second.handle_count != 0) {
      throw Error("DarcManager: destroy with live local references");
    }
    doomed = std::move(it->second.instance);
    entries_.erase(it);
  }
  // `doomed` runs the pointee destructor here, outside the lock.
}

void DarcManager::on_transfer_ack(darc_id id) {
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.in_flight == 0) {
      throw Error("DarcManager: transfer-ack without a transfer");
    }
    --it->second.in_flight;
  }
  release_ref(id);
}

void DarcManager::maybe_start_check(darc_id id, RootEntry& root,
                                    std::vector<Action>& actions) {
  if (root.live_pes != 0 || root.checking) return;
  root.checking = true;
  root.check_replies = 0;
  root.check_ok = true;
  root.check_epoch = root.epoch;
  actions.push_back(
      Action{Act::kCheckBroadcast, id, 0, root.epoch, root.members});
}

void DarcManager::perform(const Action& action) {
  World& world = *engine_.world();
  const pe_id me = world.my_pe();
  switch (action.kind) {
    case Act::kDrop:
      world.exec_am_pe(action.target, darc_protocol::DropAm{action.id});
      break;
    case Act::kRevive:
      world.exec_am_pe(action.target, darc_protocol::ReviveAm{action.id});
      break;
    case Act::kAck:
      world.exec_am_pe(action.target,
                       darc_protocol::TransferAckAm{action.id});
      break;
    case Act::kCheckBroadcast:
      for (pe_id pe : action.targets) {
        world.exec_am_pe(pe,
                         darc_protocol::CheckAm{action.id, action.epoch, me});
      }
      break;
    case Act::kDestroyBroadcast:
      for (pe_id pe : action.targets) {
        world.exec_am_pe(pe, darc_protocol::DestroyAm{action.id});
      }
      break;
  }
}

std::size_t DarcManager::live_entries() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

std::uint64_t DarcManager::local_refs(darc_id id) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.handle_count;
}

std::uint64_t DarcManager::in_flight_refs(darc_id id) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.in_flight;
}

bool DarcManager::has(darc_id id) const {
  std::lock_guard lock(mu_);
  return entries_.contains(id);
}

}  // namespace lamellar
