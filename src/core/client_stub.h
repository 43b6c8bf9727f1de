// The pub/sub stub layer of a client (Sec. 3.2/4.2 of the paper): its state
// machine (Fig. 4), its subscription/advertisement profile, the notification
// buffer used while moving, and the exactly-once delivery guard.
//
// Client states (source side):
//   init -> created -> started <-> pause_oper
//   started|pause_oper --[move]--> pause_move
//   pause_move --reject--> started          (movement refused; resume)
//   pause_move --approve--> prepare_stop    (hand-off in progress)
//   prepare_stop --ack--> clean             (copy destroyed)
// Target side: init -> created -> started (commit) | clean (abort).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "pubsub/publication.h"
#include "pubsub/subscription.h"

namespace tmps {

enum class ClientState {
  Init,
  Created,
  Started,
  PauseOper,    // paused by the application; notifications buffer
  PauseMove,    // movement initiated; notifications buffer
  PrepareStop,  // approve received; stopped, buffer ready for hand-off
  Clean,        // copy dismantled
};

const char* to_string(ClientState s);

/// Thrown on a transition Fig. 4 does not allow — protocol bugs surface
/// loudly instead of corrupting client state.
class IllegalTransition : public std::logic_error {
 public:
  IllegalTransition(ClientState from, const char* op);
};

/// Caps on the disconnected-operation buffer (session layer). Zero means
/// unlimited — the default, preserving plain movement-buffering semantics.
/// Byte accounting uses the publication's encoded wire size.
struct BufferLimits {
  std::size_t max_count = 0;
  std::size_t max_bytes = 0;
  double max_age = 0;  ///< seconds a notification may sit buffered
};

class ClientStub {
 public:
  /// Application-level delivery callback.
  using DeliveryFn = std::function<void(const Publication&)>;
  /// Invoked for every buffered notification discarded to honour the caps;
  /// `reason` is "overflow" (count/byte cap) or "expiry" (age cap). Each
  /// dropped publication is reported exactly once.
  using DropFn = std::function<void(const Publication&, const char* reason)>;
  using ClockFn = std::function<double()>;

  explicit ClientStub(ClientId id);

  ClientId id() const { return id_; }
  ClientState state() const { return state_; }

  void set_delivery_fn(DeliveryFn fn) { deliver_ = std::move(fn); }

  /// Bounds the notification buffer; entries beyond the caps are dropped
  /// oldest-first and reported through the drop callback. The clock stamps
  /// buffered entries for the age cap (defaults to 0 when unset).
  void set_buffer_limits(BufferLimits limits) { limits_ = limits; }
  void set_buffer_clock(ClockFn clock) { clock_ = std::move(clock); }
  void set_drop_fn(DropFn fn) { drop_ = std::move(fn); }
  const BufferLimits& buffer_limits() const { return limits_; }

  /// Drops buffered notifications older than the age cap. Called
  /// periodically by the session layer; returns how many were dropped.
  std::size_t expire_buffer();

  // --- profile -------------------------------------------------------------

  /// Allocates the next entity id for this client (subscriptions,
  /// advertisements and publications share the sequence).
  EntityId allocate_id() { return {id_, next_seq_++}; }
  std::uint32_t next_seq() const { return next_seq_; }
  void set_next_seq(std::uint32_t s) { next_seq_ = s; }

  void remember_subscription(const Subscription& sub);
  void remember_advertisement(const Advertisement& adv);
  bool forget_subscription(const SubscriptionId& id);
  bool forget_advertisement(const AdvertisementId& id);
  /// Replaces a subscription's id in the profile (traditional protocol
  /// re-issues with fresh incarnations).
  const std::vector<Subscription>& subscriptions() const { return subs_; }
  const std::vector<Advertisement>& advertisements() const { return advs_; }

  // --- Fig. 4 transitions ----------------------------------------------------

  void create();              // Init -> Created
  void start();               // Created -> Started
  void pause();               // Started -> PauseOper (application pause)
  void resume();              // PauseOper -> Started
  void begin_move();          // Started|PauseOper -> PauseMove
  void resume_from_reject();  // PauseMove -> Started (movement refused)
  void resume_from_abort();   // PauseMove|PrepareStop -> Started (txn abort)
  void prepare_stop();        // PauseMove -> PrepareStop (approve received)
  void clean();               // PrepareStop|Created|PauseMove -> Clean

  bool can_publish() const { return state_ == ClientState::Started; }

  // --- notifications ---------------------------------------------------------

  /// Routes a notification: delivered to the application when Started,
  /// buffered in any paused/forming state, dropped when Clean. Duplicates
  /// (same publication id) are suppressed — the exactly-once guard.
  void on_notification(const Publication& pub);

  /// Hands over and clears the buffered notifications (source side, sent in
  /// the `state` message).
  std::vector<Publication> take_buffer();

  /// Merges notifications shipped from the peer copy with those buffered
  /// locally, preserving exactly-once, then delivers everything if Started.
  void merge_notifications(const std::vector<Publication>& shipped);

  /// Queues an application publish command while the client cannot publish;
  /// drained by the engine on resume/start.
  void queue_command(Publication pub) { pending_pubs_.push_back(std::move(pub)); }
  std::vector<Publication> take_commands();

  std::size_t buffered_count() const { return buffer_.size(); }
  std::size_t buffered_bytes() const { return buffered_bytes_; }
  std::size_t queued_commands() const { return pending_pubs_.size(); }

 private:
  struct Buffered {
    Publication pub;
    double at = 0;          ///< buffering time (clock), for the age cap
    std::size_t bytes = 0;  ///< encoded wire size (0 unless byte-capped)
  };

  void deliver(const Publication& pub);
  void flush_buffer();
  void buffer_push(Publication pub);
  void enforce_limits();
  void drop_front(const char* reason);
  double clock_now() const { return clock_ ? clock_() : 0.0; }

  ClientId id_;
  ClientState state_ = ClientState::Init;
  std::uint32_t next_seq_ = 1;
  std::vector<Subscription> subs_;
  std::vector<Advertisement> advs_;
  DeliveryFn deliver_;
  DropFn drop_;
  ClockFn clock_;
  BufferLimits limits_;
  std::deque<Buffered> buffer_;
  std::size_t buffered_bytes_ = 0;
  std::unordered_set<PublicationId> seen_;
  std::deque<Publication> pending_pubs_;
};

}  // namespace tmps
