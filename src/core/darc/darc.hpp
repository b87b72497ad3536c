// Darc — Distributed Atomically Reference Counted pointers (paper Sec. III-E).
//
// A Darc<T> is created collectively: every PE of the team supplies its own
// instance of T, and the runtime guarantees each instance stays alive until
// *every* PE agrees no references remain.  Reference movements:
//   * clone/drop of handles adjust the local count;
//   * serializing a handle into an AM takes an in-flight reference on the
//     sender; deserializing on the receiver adopts a fresh local reference
//     and sends a (batched) transfer-ack releasing the sender's in-flight
//     reference — the paper's "serialization and deserialization is used to
//     track the transfer of Darcs";
//   * a PE whose count reaches zero reports a drop to the root PE; a count
//     reviving from zero (a handle arriving after the report) reports a
//     revive;
//   * when the root has collected drops from every PE it runs a two-phase
//     confirmation (check/ack with an epoch that revives invalidate) and
//     then broadcasts the destroy AM that deallocates on every PE —
//    "Destruction of a Darc is asynchronous and occurs once every PE agrees
//     that no further references to the object exist".
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "core/am/am_context.hpp"

namespace lamellar {

class AmEngine;

/// Per-PE manager of Darc instances and the distributed lifetime protocol.
class DarcManager {
 public:
  explicit DarcManager(AmEngine& engine) : engine_(engine) {}

  // ---- installation (called from collective creation) ----

  /// Register this PE's instance with one initial handle reference.
  void install(darc_id id, std::shared_ptr<void> instance, pe_id root_pe);

  /// Register root-side tracking state (root PE only).
  void install_root(darc_id id, std::vector<pe_id> member_pes);

  // ---- handle reference movement ----
  void add_ref(darc_id id);
  void release_ref(darc_id id);

  /// Serialization hooks: sender takes an in-flight ref; receiver adopts a
  /// ref and acks the sender.
  void transfer_out(darc_id id);
  void transfer_in(darc_id id, pe_id from);

  /// Raw access to the local instance (the handle caches the typed pointer).
  [[nodiscard]] std::shared_ptr<void> instance(darc_id id);

  // ---- protocol message entry points (invoked by internal AMs) ----
  void on_drop(darc_id id);
  void on_revive(darc_id id);
  void on_check(darc_id id, std::uint64_t epoch, pe_id root);
  void on_check_reply(darc_id id, std::uint64_t epoch, bool ok);
  void on_destroy(darc_id id);
  void on_transfer_ack(darc_id id);

  // ---- introspection (tests / world teardown) ----
  [[nodiscard]] std::size_t live_entries() const;
  [[nodiscard]] std::uint64_t local_refs(darc_id id) const;
  /// The part of local_refs() held by serialized handles still awaiting the
  /// receiver's transfer-ack.
  [[nodiscard]] std::uint64_t in_flight_refs(darc_id id) const;
  [[nodiscard]] bool has(darc_id id) const;

  AmEngine& engine() { return engine_; }

 private:
  struct LocalEntry {
    std::shared_ptr<void> instance;
    std::uint64_t handle_count = 0;
    std::uint64_t in_flight = 0;  // transfer_out refs not yet acked
    bool reported_dropped = false;
    pe_id root_pe = 0;
  };

  struct RootEntry {
    std::vector<pe_id> members;
    // Signed: drop/revive AMs from one PE may be reordered by task
    // scheduling at the root, so the count can transiently go negative;
    // only the two-phase check authorizes destruction.
    std::int64_t live_pes = 0;
    std::uint64_t epoch = 0;
    bool checking = false;
    std::size_t check_replies = 0;
    bool check_ok = true;
    std::uint64_t check_epoch = 0;
  };

  // Deferred sends are performed after the lock is released.
  enum class Act { kDrop, kRevive, kCheckBroadcast, kDestroyBroadcast, kAck };
  struct Action {
    Act kind;
    darc_id id;
    pe_id target = 0;
    std::uint64_t epoch = 0;
    std::vector<pe_id> targets;
  };

  void perform(const Action& action);
  void maybe_start_check(darc_id id, RootEntry& root,
                         std::vector<Action>& actions);

  AmEngine& engine_;
  mutable std::mutex mu_;
  std::unordered_map<darc_id, LocalEntry> entries_;
  std::unordered_map<darc_id, RootEntry> roots_;
};

/// The user-facing distributed smart pointer.  Inner mutability is the
/// user's responsibility exactly as in the paper: wrap the pointee's mutable
/// state in std::mutex / std::atomic members (the analogue of Mutex/RwLock/
/// atomics behind an Arc in Rust).
template <typename T>
class Darc {
 public:
  Darc() = default;

  /// Used by World::new_darc after collective installation.
  Darc(DarcManager* mgr, darc_id id, T* ptr)
      : mgr_(mgr), id_(id), ptr_(ptr) {}

  Darc(const Darc& other)
      : mgr_(other.mgr_), id_(other.id_), ptr_(other.ptr_) {
    if (mgr_ != nullptr) mgr_->add_ref(id_);
  }

  Darc& operator=(const Darc& other) {
    if (this != &other) {
      reset();
      mgr_ = other.mgr_;
      id_ = other.id_;
      ptr_ = other.ptr_;
      if (mgr_ != nullptr) mgr_->add_ref(id_);
    }
    return *this;
  }

  Darc(Darc&& other) noexcept
      : mgr_(other.mgr_), id_(other.id_), ptr_(other.ptr_) {
    other.mgr_ = nullptr;
    other.ptr_ = nullptr;
  }

  Darc& operator=(Darc&& other) noexcept {
    if (this != &other) {
      reset();
      mgr_ = other.mgr_;
      id_ = other.id_;
      ptr_ = other.ptr_;
      other.mgr_ = nullptr;
      other.ptr_ = nullptr;
    }
    return *this;
  }

  ~Darc() { reset(); }

  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
  [[nodiscard]] darc_id id() const { return id_; }

  T* get() const { return ptr_; }
  T& operator*() const { return *ptr_; }
  T* operator->() const { return ptr_; }

  /// Symmetric serialization: writing takes an in-flight reference on the
  /// sending PE; reading adopts a reference on the receiving PE (possibly
  /// reviving it) and acks the sender.  Requires a bound world context.
  template <class Archive>
  void serialize(Archive& ar) {
    if constexpr (Archive::is_writing) {
      if (mgr_ == nullptr) throw Error("Darc: serializing an empty handle");
      mgr_->transfer_out(id_);
      ar(id_);
    } else {
      ar(id_);
      adopt_from_context();
    }
  }

 private:
  void reset() {
    if (mgr_ != nullptr) {
      mgr_->release_ref(id_);
      mgr_ = nullptr;
      ptr_ = nullptr;
    }
  }

  void adopt_from_context();

  DarcManager* mgr_ = nullptr;
  darc_id id_ = 0;
  T* ptr_ = nullptr;
};

/// Internal: resolve the deserialization context (defined in world.hpp to
/// break the include cycle).
DarcManager& current_darc_manager();
pe_id current_am_src();

template <typename T>
void Darc<T>::adopt_from_context() {
  mgr_ = &current_darc_manager();
  mgr_->transfer_in(id_, current_am_src());
  ptr_ = static_cast<T*>(mgr_->instance(id_).get());
}

}  // namespace lamellar
