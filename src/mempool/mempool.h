#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "eth/account.h"
#include "eth/transaction.h"
#include "mempool/flat_index.h"
#include "mempool/policy.h"
#include "obs/metrics.h"
#include "util/cow.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace topo::mempool {

/// Interned observability handles shared by every pool of one world (the
/// registry aggregates across nodes; per-node metrics would explode
/// cardinality at network scale). All pointers may be null; a pool without
/// obs wiring pays only one branch per operation.
struct PoolObs {
  obs::Counter* admits_pending = nullptr;
  obs::Counter* admits_future = nullptr;
  obs::Counter* replacements = nullptr;
  obs::Counter* rejects = nullptr;
  obs::Counter* evictions = nullptr;            ///< all removals below, summed
  obs::Counter* evictions_price = nullptr;      ///< displaced by a pricier incomer
  obs::Counter* evictions_truncated = nullptr;  ///< future-subpool truncation
  obs::Counter* evictions_expired = nullptr;    ///< lifetime `e` exceeded
  obs::Counter* evictions_basefee = nullptr;    ///< EIP-1559 underpriced drop
  obs::Counter* drops_mined = nullptr;          ///< consumed by a block
  obs::Histogram* occupancy = nullptr;          ///< size/capacity at maintenance
  obs::Counter* index_compactions = nullptr;    ///< flat-index tombstone rebuilds
  obs::Gauge* index_tombstone_peak = nullptr;   ///< deepest tombstone heap (high-water only)
  obs::TraceRing* trace = nullptr;

  /// Interns the `mempool.*` handles in `reg` (idempotent).
  static PoolObs wire(obs::MetricsRegistry& reg);
};

/// Outcome of offering a transaction to the pool.
enum class AdmitCode {
  kAddedPending,                   ///< admitted, executable, will be propagated
  kAddedFuture,                    ///< admitted with a nonce gap, not propagated
  kReplaced,                       ///< replaced a same-sender same-nonce entry
  kRejectedDuplicate,              ///< hash already known
  kRejectedStaleNonce,             ///< nonce already confirmed on chain
  kRejectedUnderpricedReplacement, ///< bump below R
  kRejectedPoolFull,               ///< full and incoming price <= cheapest entry
  kRejectedEvictionForbidden,      ///< full, future incomer, pending count < P
  kRejectedFutureLimit,            ///< sender already has U futures
  kRejectedUnderBaseFee,           ///< EIP-1559 max fee below current base fee
};

const char* admit_code_name(AdmitCode code);

/// Result of Mempool::add. `evicted`/`replaced` let the owning node account
/// for what left the pool; `promoted` lists futures that this admission made
/// executable (the node must propagate those too, as real clients do).
struct AdmitResult {
  AdmitCode code = AdmitCode::kRejectedDuplicate;
  std::vector<eth::Transaction> evicted;
  std::optional<eth::Transaction> replaced;
  std::vector<eth::Transaction> promoted;

  /// True if the transaction now sits in the pool as pending (and should be
  /// propagated).
  bool admitted_pending() const {
    return code == AdmitCode::kAddedPending || code == AdmitCode::kReplaced;
  }
  bool admitted() const { return admitted_pending() || code == AdmitCode::kAddedFuture; }
};

/// Changes made by maintenance or a block commit.
struct PoolUpdate {
  std::vector<eth::Transaction> dropped;   ///< truncated / expired / mined / stale
  std::vector<eth::Transaction> promoted;  ///< future -> pending transitions
};

/// The parameterized unconfirmed-transaction buffer of paper §2/§5.1.
///
/// Semantics implemented:
///  - pending/future classification against a StateView (consecutive nonce
///    run from the confirmed next nonce);
///  - replacement: same (sender, nonce), price bump >= R;
///  - eviction: a full pool admits a higher-priced transaction by evicting
///    the policy's victim, gated by P (future incomers) and U (future count
///    per sender);
///  - deferred maintenance: future-subpool truncation to `future_cap`,
///    expiry after `e` seconds, EIP-1559 underpriced drops;
///  - block commits prune mined/stale entries and promote unblocked futures.
///
/// Storage layout: all bulk state (account queues, price indexes, lookup
/// maps, occupancy counters) lives in one `State` blob behind a
/// copy-on-write handle (util::Cow). `snapshot()` captures the pool in O(1);
/// a restored pool shares the blob with its base until the first mutation,
/// which clones it once. Account queues are struct-of-arrays: parallel
/// `slot_addr`/`slot_queue` vectors with a LIFO free list, so account
/// iteration (snapshots, maintenance sweeps, random picks) runs in slot
/// order — deterministic across standard libraries and identical between a
/// forked world and a rebuilt one, unlike hash-map order.
///
/// The pool never owns the StateView; callers guarantee it outlives the pool.
class Mempool {
 public:
  Mempool(MempoolPolicy policy, const eth::StateView* state);

  /// Offers a transaction at simulation time `now`.
  AdmitResult add(const eth::Transaction& tx, double now);

  /// Attaches shared observability handles (null detaches). The pointee
  /// must outlive the pool; typically owned by the p2p::Network. Obs
  /// handles live outside the copy-on-write state on purpose: a forked
  /// world re-wires its own registry without touching shared pages.
  void set_obs(const PoolObs* o) { obs_ = o; }

  /// Deferred maintenance (Geth's reorg loop): truncates the future subpool,
  /// drops expired entries, and (EIP-1559) drops entries priced under the
  /// base fee.
  PoolUpdate maintain(double now);

  /// Reacts to a committed block: drops entries whose nonce the chain has
  /// consumed and promotes newly executable futures. The StateView must
  /// already reflect the block.
  PoolUpdate on_block();

  /// Updates the base fee used for EIP-1559 admission (no-op otherwise).
  void set_base_fee(eth::Wei base_fee) { base_fee_ = base_fee; }
  eth::Wei base_fee() const { return base_fee_; }

  bool contains(eth::TxHash h) const { return st_->by_hash.contains(h); }

  /// Duplicate verdict without the transaction body: when `h` is already
  /// buffered, counts the rejection exactly as add() would for the same
  /// transaction (one `mempool.rejects`, no trace record) and returns true;
  /// otherwise leaves every tally alone and returns false. Lets a delivery
  /// decide "already known" before copying the payload out of the arena.
  bool reject_if_known(eth::TxHash h) {
    if (!contains(h)) return false;
    if (obs_ != nullptr) obs_->rejects->inc();
    return true;
  }
  const eth::Transaction* find(eth::Address sender, eth::Nonce nonce) const;
  const eth::Transaction* find_hash(eth::TxHash h) const;

  size_t size() const { return st_->size; }
  size_t pending_count() const { return st_->pending_count; }
  size_t future_count() const { return st_->size - st_->pending_count; }
  size_t futures_of(eth::Address sender) const;
  bool full() const { return st_->size >= policy_.capacity; }

  /// Cheapest pool price currently buffered (0 when empty). Physically
  /// const (slot-order scan), so it is safe on a state shared with forks.
  eth::Wei lowest_price() const;

  /// Median pool price of pending entries — the paper's Y estimator (§5.2.1).
  eth::Wei median_pending_price() const;

  /// Snapshot of pending transactions (miner candidates).
  std::vector<eth::Transaction> pending_snapshot() const;

  /// One uniformly random pending transaction, or nullptr when none are
  /// buffered. Draws a single index and walks to it in pending_snapshot()
  /// order, so `random_pending(rng)` selects exactly the transaction
  /// `pending_snapshot()[rng.index(pending_count())]` would — without
  /// copying the whole pool (the per-tick re-gossip path used to pay
  /// O(pool) copies for one pick). The pointer is invalidated by the next
  /// mutating call.
  const eth::Transaction* random_pending(util::Rng& rng) const;

  /// Drops every buffered transaction (a node crash/restart: real clients
  /// come back with an empty pool). Base-fee state is chain-derived and
  /// survives.
  void clear();

  /// Snapshot of future (queued) transactions.
  std::vector<eth::Transaction> future_snapshot() const;

  /// Snapshot of everything buffered.
  std::vector<eth::Transaction> all_snapshot() const;

  const MempoolPolicy& policy() const { return policy_; }

 private:
  struct Entry {
    eth::Transaction tx;
    double added_at = 0.0;
    bool pending = false;
  };

  struct AccountQueue {
    /// Nonce-ascending flat queue. Accounts buffer a handful of entries at
    /// a time, so a sorted vector beats the former std::map on every nonce
    /// walk while keeping the same iteration order.
    std::vector<std::pair<eth::Nonce, Entry>> txs;
    size_t futures = 0;

    std::vector<std::pair<eth::Nonce, Entry>>::iterator lower_bound(eth::Nonce n) {
      return std::lower_bound(txs.begin(), txs.end(), n,
                              [](const auto& e, eth::Nonce v) { return e.first < v; });
    }
    std::vector<std::pair<eth::Nonce, Entry>>::iterator find(eth::Nonce n) {
      auto it = lower_bound(n);
      return (it != txs.end() && it->first == n) ? it : txs.end();
    }
    std::vector<std::pair<eth::Nonce, Entry>>::const_iterator find(eth::Nonce n) const {
      auto it = std::lower_bound(txs.begin(), txs.end(), n,
                                 [](const auto& e, eth::Nonce v) { return e.first < v; });
      return (it != txs.end() && it->first == n) ? it : txs.end();
    }
  };

  /// Everything the pool buffers, in one copy-on-write blob. Mutating
  /// methods reach it through st_.mutate() exactly once, after every
  /// read-only early-out has passed, so pools that a forked world never
  /// writes to keep sharing the base world's pages.
  struct State {
    // Struct-of-arrays account storage. slot_addr[i] == kNoAddress marks a
    // free slot (recycled LIFO via free_slots); slot_of maps an address to
    // its slot for O(1) lookup. Iteration happens in slot order; the flat
    // hash indexes below are only ever probed, never walked.
    std::vector<eth::Address> slot_addr;
    std::vector<AccountQueue> slot_queue;
    std::vector<uint32_t> free_slots;
    util::FlatMap64<uint32_t> slot_of;

    // (pool price, tx id), cheapest-first for eviction (see flat_index.h).
    FlatPriceIndex price_index;
    // Subset of price_index holding only future entries (truncation order).
    FlatPriceIndex future_index;
    util::FlatMap64<std::pair<eth::Address, eth::Nonce>> by_id;
    util::FlatMap64<uint64_t> by_hash;  ///< tx hash -> tx id
    size_t size = 0;
    size_t pending_count = 0;
    // Cheap guards so maintain() skips full scans (and, post-fork, the
    // copy-on-write clone) when nothing can have expired / the base fee
    // has not moved.
    double min_added_at = 0.0;
    bool min_added_valid = false;
    eth::Wei last_pruned_base_fee = 0;
  };

 public:
  /// O(1) capture of the pool's buffered content. The snapshot shares the
  /// state blob; either side clones lazily on its next write.
  struct Snapshot {
    util::Cow<State> state;
    eth::Wei base_fee = 0;
  };
  Snapshot snapshot() const { return Snapshot{st_, base_fee_}; }
  void restore(const Snapshot& snap) {
    st_ = snap.state;
    base_fee_ = snap.base_fee;
  }

 private:
  /// add() minus the accounting: the instrumented wrapper stays off the
  /// profile when obs_ is null.
  AdmitResult add_impl(const eth::Transaction& tx, double now);
  void record_admit(const eth::Transaction& tx, const AdmitResult& result, double now);

  static const AccountQueue* account(const State& s, eth::Address sender);
  static AccountQueue* account(State& s, eth::Address sender);
  /// Finds or allocates the slot for `sender`.
  static AccountQueue& ensure_account(State& s, eth::Address sender);
  /// Returns `sender`'s slot to the free list (queue must be empty).
  static void release_account(State& s, eth::Address sender);

  /// Recomputes pending flags for one account; appends promotions to `out`
  /// when non-null. Maintains pending_count and the account future count.
  void reclassify(State& s, eth::Address sender, std::vector<eth::Transaction>* promoted);

  /// Removes one entry (must exist); does not reclassify.
  eth::Transaction remove_entry(State& s, eth::Address sender, eth::Nonce nonce);

  /// Chooses the eviction victim per policy; nullopt if no entry is cheaper
  /// than `incoming_price` (or, under futures-only eviction, no future is).
  std::optional<std::pair<eth::Address, eth::Nonce>> pick_victim(State& s,
                                                                 eth::Wei incoming_price,
                                                                 bool incoming_is_pending);

  /// Records an insertion time for the O(1) expiry guard.
  static void track_added_at(State& s, double now);

  // Flat-index tallies, passed per call (the indexes live inside the
  // copy-on-write state and hold no obs pointers of their own).
  obs::Counter* index_compactions() const {
    return obs_ != nullptr ? obs_->index_compactions : nullptr;
  }
  obs::Gauge* index_tombstone_peak() const {
    return obs_ != nullptr ? obs_->index_tombstone_peak : nullptr;
  }

  MempoolPolicy policy_;
  const eth::StateView* state_;
  const PoolObs* obs_ = nullptr;
  eth::Wei base_fee_ = 0;

  util::Cow<State> st_;
};

}  // namespace topo::mempool
