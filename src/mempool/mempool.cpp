#include "mempool/mempool.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace topo::mempool {

const char* admit_code_name(AdmitCode code) {
  switch (code) {
    case AdmitCode::kAddedPending: return "added-pending";
    case AdmitCode::kAddedFuture: return "added-future";
    case AdmitCode::kReplaced: return "replaced";
    case AdmitCode::kRejectedDuplicate: return "rejected-duplicate";
    case AdmitCode::kRejectedStaleNonce: return "rejected-stale-nonce";
    case AdmitCode::kRejectedUnderpricedReplacement: return "rejected-underpriced-replacement";
    case AdmitCode::kRejectedPoolFull: return "rejected-pool-full";
    case AdmitCode::kRejectedEvictionForbidden: return "rejected-eviction-forbidden";
    case AdmitCode::kRejectedFutureLimit: return "rejected-future-limit";
    case AdmitCode::kRejectedUnderBaseFee: return "rejected-under-base-fee";
  }
  return "?";
}

PoolObs PoolObs::wire(obs::MetricsRegistry& reg) {
  PoolObs o;
  o.admits_pending = &reg.counter("mempool.admits.pending");
  o.admits_future = &reg.counter("mempool.admits.future");
  o.replacements = &reg.counter("mempool.replacements");
  o.rejects = &reg.counter("mempool.rejects");
  o.evictions = &reg.counter("mempool.evictions");
  o.evictions_price = &reg.counter("mempool.evictions.price");
  o.evictions_truncated = &reg.counter("mempool.evictions.truncated");
  o.evictions_expired = &reg.counter("mempool.evictions.expired");
  o.evictions_basefee = &reg.counter("mempool.evictions.basefee");
  o.drops_mined = &reg.counter("mempool.drops.mined");
  o.occupancy = &reg.histogram("mempool.occupancy", obs::fraction_bounds());
  o.index_compactions = &reg.counter("mempool.index.compactions");
  o.index_tombstone_peak = &reg.gauge("mempool.index.tombstone_peak");
  o.trace = &reg.trace();
  return o;
}

Mempool::Mempool(MempoolPolicy policy, const eth::StateView* state)
    : policy_(policy), state_(state) {
  assert(state_ != nullptr);
}

const Mempool::AccountQueue* Mempool::account(const State& s, eth::Address sender) {
  const uint32_t* slot = s.slot_of.find(sender);
  return slot == nullptr ? nullptr : &s.slot_queue[*slot];
}

Mempool::AccountQueue* Mempool::account(State& s, eth::Address sender) {
  const uint32_t* slot = s.slot_of.find(sender);
  return slot == nullptr ? nullptr : &s.slot_queue[*slot];
}

Mempool::AccountQueue& Mempool::ensure_account(State& s, eth::Address sender) {
  if (const uint32_t* found = s.slot_of.find(sender)) return s.slot_queue[*found];
  uint32_t slot;
  if (!s.free_slots.empty()) {
    slot = s.free_slots.back();
    s.free_slots.pop_back();
    s.slot_addr[slot] = sender;
  } else {
    slot = static_cast<uint32_t>(s.slot_addr.size());
    s.slot_addr.push_back(sender);
    s.slot_queue.emplace_back();
  }
  s.slot_of.try_emplace(sender, slot);
  return s.slot_queue[slot];
}

void Mempool::release_account(State& s, eth::Address sender) {
  const uint32_t slot = s.slot_of.at(sender);
  assert(s.slot_queue[slot].txs.empty());
  s.slot_addr[slot] = eth::kNoAddress;
  s.slot_queue[slot] = AccountQueue{};  // release the queue's allocation
  s.free_slots.push_back(slot);
  s.slot_of.erase(sender);
}

void Mempool::reclassify(State& s, eth::Address sender,
                         std::vector<eth::Transaction>* promoted) {
  AccountQueue* qp = account(s, sender);
  if (qp == nullptr) return;
  AccountQueue& q = *qp;
  eth::Nonce expected = state_->next_nonce(sender);
  size_t futures = 0;
  for (auto& [nonce, entry] : q.txs) {
    const bool now_pending = (nonce == expected);
    if (now_pending) ++expected;
    if (now_pending && !entry.pending) {
      entry.pending = true;
      ++s.pending_count;
      s.future_index.erase({entry.tx.pool_price(), entry.tx.id}, index_compactions(),
                           index_tombstone_peak());
      if (promoted) promoted->push_back(entry.tx);
    } else if (!now_pending && entry.pending) {
      entry.pending = false;
      --s.pending_count;
      s.future_index.insert({entry.tx.pool_price(), entry.tx.id});
    }
    if (!entry.pending) ++futures;
  }
  q.futures = futures;
}

eth::Transaction Mempool::remove_entry(State& s, eth::Address sender, eth::Nonce nonce) {
  AccountQueue* qp = account(s, sender);
  assert(qp != nullptr);
  auto eit = qp->find(nonce);
  assert(eit != qp->txs.end());
  Entry entry = std::move(eit->second);
  if (entry.pending) --s.pending_count;
  if (!entry.pending && qp->futures > 0) --qp->futures;
  if (!entry.pending) {
    s.future_index.erase({entry.tx.pool_price(), entry.tx.id}, index_compactions(),
                         index_tombstone_peak());
  }
  s.price_index.erase({entry.tx.pool_price(), entry.tx.id}, index_compactions(),
                      index_tombstone_peak());
  s.by_id.erase(entry.tx.id);
  s.by_hash.erase(entry.tx.hash());
  qp->txs.erase(eit);
  if (qp->txs.empty()) release_account(s, sender);
  --s.size;
  return entry.tx;
}

std::optional<std::pair<eth::Address, eth::Nonce>> Mempool::pick_victim(
    State& s, eth::Wei incoming_price, bool incoming_is_pending) {
  auto cheaper = [&](const std::pair<eth::Wei, uint64_t>& key) {
    return key.first < incoming_price;
  };
  if (policy_.victim == EvictionVictim::kFuturesFirst && !incoming_is_pending) {
    // Futures-only eviction: a future incomer may never displace a pending
    // transaction (the DETER countermeasure; defeats TopoShot's flood).
    if (s.future_index.empty()) return std::nullopt;
    const auto key = s.future_index.min();
    if (!cheaper(key)) return std::nullopt;
    return s.by_id.at(key.second);
  }
  if (s.price_index.empty()) return std::nullopt;
  const auto key = s.price_index.min();
  if (!cheaper(key)) return std::nullopt;
  return s.by_id.at(key.second);
}

AdmitResult Mempool::add(const eth::Transaction& tx, double now) {
  AdmitResult result = add_impl(tx, now);
  if (obs_ != nullptr) record_admit(tx, result, now);
  return result;
}

void Mempool::record_admit(const eth::Transaction& tx, const AdmitResult& result, double now) {
  switch (result.code) {
    case AdmitCode::kAddedPending: obs_->admits_pending->inc(); break;
    case AdmitCode::kAddedFuture: obs_->admits_future->inc(); break;
    case AdmitCode::kReplaced: obs_->replacements->inc(); break;
    default: obs_->rejects->inc(); break;
  }
  if (result.replaced && obs_->trace != nullptr) {
    obs_->trace->push(now, obs::TraceKind::kTxReplaced, tx.id, result.replaced->id);
  }
  if (!result.evicted.empty()) {
    obs_->evictions->inc(result.evicted.size());
    obs_->evictions_price->inc(result.evicted.size());
    if (obs_->trace != nullptr) {
      for (const auto& e : result.evicted)
        obs_->trace->push(now, obs::TraceKind::kTxEvicted, e.id);
    }
  }
}

AdmitResult Mempool::add_impl(const eth::Transaction& tx, double now) {
  AdmitResult result;

  // Read-only early-outs run against the shared state: a forked pool that
  // only ever rejects duplicates/stale nonces never clones its base.
  const State& cs = *st_;
  const eth::TxHash hash = tx.hash();
  if (cs.by_hash.contains(hash)) {
    result.code = AdmitCode::kRejectedDuplicate;
    return result;
  }
  if (policy_.eip1559 && tx.fee1559 && tx.fee1559->max_fee < base_fee_) {
    result.code = AdmitCode::kRejectedUnderBaseFee;
    return result;
  }
  const eth::Nonce chain_next = state_->next_nonce(tx.sender);
  if (tx.nonce < chain_next) {
    result.code = AdmitCode::kRejectedStaleNonce;
    return result;
  }

  const AccountQueue* cq = account(cs, tx.sender);
  if (cq != nullptr) {
    auto eit = cq->find(tx.nonce);
    if (eit != cq->txs.end()) {
      // Replacement path: same sender and nonce (§2 event 1b).
      if (!policy_.accepts_replacement(eit->second.tx.pool_price(), tx.pool_price())) {
        result.code = AdmitCode::kRejectedUnderpricedReplacement;
        return result;
      }
      State& s = st_.mutate();
      Entry& old = account(s, tx.sender)->find(tx.nonce)->second;
      result.replaced = old.tx;
      s.price_index.erase({old.tx.pool_price(), old.tx.id}, index_compactions(),
                          index_tombstone_peak());
      if (!old.pending) {
        s.future_index.erase({old.tx.pool_price(), old.tx.id}, index_compactions(),
                             index_tombstone_peak());
      }
      s.by_id.erase(old.tx.id);
      s.by_hash.erase(old.tx.hash());
      old.tx = tx;
      old.added_at = now;
      s.price_index.insert({tx.pool_price(), tx.id});
      if (!old.pending) s.future_index.insert({tx.pool_price(), tx.id});
      s.by_id.insert_or_assign(tx.id, {tx.sender, tx.nonce});
      s.by_hash.insert_or_assign(hash, tx.id);
      track_added_at(s, now);
      result.code = AdmitCode::kReplaced;
      return result;
    }
  }

  // Fresh entry: decide pending vs future by the consecutive-nonce rule.
  bool is_pending = (tx.nonce == chain_next);
  if (!is_pending && cq != nullptr) {
    // Pending if every nonce in [chain_next, tx.nonce) is already buffered.
    eth::Nonce expected = chain_next;
    auto it = std::lower_bound(cq->txs.begin(), cq->txs.end(), chain_next,
                               [](const auto& e, eth::Nonce v) { return e.first < v; });
    for (; it != cq->txs.end() && it->first == expected && expected < tx.nonce; ++it) {
      ++expected;
    }
    is_pending = (expected == tx.nonce);
  }

  if (!is_pending) {
    const size_t have = cq != nullptr ? cq->futures : 0;
    if (have >= policy_.max_futures_per_account) {
      result.code = AdmitCode::kRejectedFutureLimit;
      return result;
    }
  }
  if (cs.size >= policy_.capacity && !is_pending &&
      cs.pending_count < policy_.min_pending_for_eviction) {
    // Eviction gate (§2 event 1a): a future incomer additionally requires
    // at least P pending transactions in the pool.
    result.code = AdmitCode::kRejectedEvictionForbidden;
    return result;
  }

  // Every remaining outcome mutates (victim selection reads the price
  // heaps, which settle lazy deletions — a physical write).
  State& s = st_.mutate();
  if (s.size >= policy_.capacity) {
    auto victim = pick_victim(s, tx.pool_price(), is_pending);
    if (!victim && is_pending && !s.future_index.empty()) {
      // Executable transactions outrank queued ones: when the pool is full
      // and nothing is cheaper, a pending incomer still displaces the
      // cheapest *future* (Geth's pending/queue split — the queue is
      // second-class and would be truncated by the next reorg anyway).
      victim = s.by_id.at(s.future_index.min().second);
    }
    if (!victim) {
      result.code = AdmitCode::kRejectedPoolFull;
      return result;
    }
    result.evicted.push_back(remove_entry(s, victim->first, victim->second));
    // Removing a mid-queue pending entry demotes its followers.
    if (victim->first != tx.sender) reclassify(s, victim->first, nullptr);
  }

  Entry entry;
  entry.tx = tx;
  entry.added_at = now;
  entry.pending = false;  // reclassify() sets the final flag
  AccountQueue& q = ensure_account(s, tx.sender);
  q.txs.insert(q.lower_bound(tx.nonce), {tx.nonce, std::move(entry)});
  ++q.futures;  // provisional; fixed by reclassify
  s.price_index.insert({tx.pool_price(), tx.id});
  s.future_index.insert({tx.pool_price(), tx.id});  // reclassify removes if pending
  s.by_id.insert_or_assign(tx.id, {tx.sender, tx.nonce});
  s.by_hash.insert_or_assign(hash, tx.id);
  ++s.size;
  track_added_at(s, now);

  std::vector<eth::Transaction> promoted;
  reclassify(s, tx.sender, &promoted);

  // The incoming tx itself is not a "promotion"; separate it out.
  bool self_pending = false;
  for (auto it = promoted.begin(); it != promoted.end();) {
    if (it->hash() == hash) {
      self_pending = true;
      it = promoted.erase(it);
    } else {
      ++it;
    }
  }
  result.promoted = std::move(promoted);
  result.code = self_pending ? AdmitCode::kAddedPending : AdmitCode::kAddedFuture;
  return result;
}

void Mempool::track_added_at(State& s, double now) {
  if (!s.min_added_valid || now < s.min_added_at) {
    s.min_added_at = now;
    s.min_added_valid = true;
  }
}

PoolUpdate Mempool::maintain(double now) {
  PoolUpdate update;
  const State& cs = *st_;
  if (obs_ != nullptr && obs_->occupancy != nullptr && policy_.capacity > 0) {
    obs_->occupancy->observe(static_cast<double>(cs.size) /
                             static_cast<double>(policy_.capacity));
  }

  // Each phase checks its guard against the shared state first; the idle
  // maintenance tick of an untouched forked pool stays read-only (no
  // copy-on-write clone).

  // 1. Expiry (Geth drops unconfirmed transactions after e hours). The
  // min_added_at guard makes the common no-expiry call O(1).
  if (policy_.expiry_seconds > 0.0 && cs.min_added_valid &&
      cs.min_added_at + policy_.expiry_seconds <= now) {
    State& s = st_.mutate();
    std::vector<std::pair<eth::Address, eth::Nonce>> expired;
    double oldest_remaining = now;
    for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
      if (s.slot_addr[slot] == eth::kNoAddress) continue;
      for (const auto& [nonce, entry] : s.slot_queue[slot].txs) {
        if (entry.added_at + policy_.expiry_seconds <= now) {
          expired.emplace_back(s.slot_addr[slot], nonce);
        } else {
          oldest_remaining = std::min(oldest_remaining, entry.added_at);
        }
      }
    }
    for (const auto& [sender, nonce] : expired) {
      update.dropped.push_back(remove_entry(s, sender, nonce));
      reclassify(s, sender, nullptr);
    }
    if (obs_ != nullptr && !expired.empty()) {
      obs_->evictions->inc(expired.size());
      obs_->evictions_expired->inc(expired.size());
    }
    s.min_added_at = oldest_remaining;
    s.min_added_valid = s.size > 0;
  }

  // 2. EIP-1559: entries whose max fee fell below the base fee are dropped.
  // Only rescanned when the base fee actually moved.
  if (policy_.eip1559 && base_fee_ > 0 && base_fee_ != cs.last_pruned_base_fee) {
    State& s = st_.mutate();
    std::vector<std::pair<eth::Address, eth::Nonce>> under;
    for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
      if (s.slot_addr[slot] == eth::kNoAddress) continue;
      for (const auto& [nonce, entry] : s.slot_queue[slot].txs) {
        if (entry.tx.fee1559 && entry.tx.fee1559->max_fee < base_fee_)
          under.emplace_back(s.slot_addr[slot], nonce);
      }
    }
    for (const auto& [sender, nonce] : under) {
      update.dropped.push_back(remove_entry(s, sender, nonce));
      reclassify(s, sender, nullptr);
    }
    if (obs_ != nullptr && !under.empty()) {
      obs_->evictions->inc(under.size());
      obs_->evictions_basefee->inc(under.size());
    }
    s.last_pruned_base_fee = base_fee_;
  }

  // 3. Future-subpool truncation to future_cap, cheapest first.
  size_t truncated = 0;
  if (st_->size - st_->pending_count > policy_.future_cap && !st_->future_index.empty()) {
    State& s = st_.mutate();
    while (s.size - s.pending_count > policy_.future_cap && !s.future_index.empty()) {
      const auto key = s.future_index.min();
      const auto loc = s.by_id.at(key.second);
      update.dropped.push_back(remove_entry(s, loc.first, loc.second));
      reclassify(s, loc.first, nullptr);
      ++truncated;
    }
  }
  if (obs_ != nullptr && truncated > 0) {
    obs_->evictions->inc(truncated);
    obs_->evictions_truncated->inc(truncated);
    if (obs_->trace != nullptr) {
      for (auto it = update.dropped.end() - static_cast<ptrdiff_t>(truncated);
           it != update.dropped.end(); ++it) {
        obs_->trace->push(now, obs::TraceKind::kTxEvicted, it->id);
      }
    }
  }

  return update;
}

PoolUpdate Mempool::on_block() {
  PoolUpdate update;

  // Read-only pre-scan: does the committed block touch this pool at all?
  // Pools on nodes the block's senders never reached skip the
  // copy-on-write clone entirely.
  const State& cs = *st_;
  bool dirty = false;
  for (size_t slot = 0; slot < cs.slot_addr.size() && !dirty; ++slot) {
    if (cs.slot_addr[slot] == eth::kNoAddress) continue;
    eth::Nonce expected = state_->next_nonce(cs.slot_addr[slot]);
    for (const auto& [nonce, entry] : cs.slot_queue[slot].txs) {
      if (nonce < expected) {
        dirty = true;  // stale entry to drop
        break;
      }
      const bool now_pending = (nonce == expected);
      if (now_pending) ++expected;
      if (now_pending != entry.pending) {
        dirty = true;  // classification change (promotion/demotion)
        break;
      }
    }
  }
  if (!dirty) return update;

  // Drop entries the chain has consumed (mined or made stale), account by
  // account, then re-run classification to promote unblocked futures.
  State& s = st_.mutate();
  std::vector<eth::Address> senders;
  senders.reserve(s.slot_of.size());
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] != eth::kNoAddress) senders.push_back(s.slot_addr[slot]);
  }
  for (eth::Address sender : senders) {
    const eth::Nonce next = state_->next_nonce(sender);
    AccountQueue* qp = account(s, sender);
    if (qp == nullptr) continue;
    std::vector<eth::Nonce> stale;
    for (const auto& [nonce, entry] : qp->txs) {
      if (nonce < next) stale.push_back(nonce);
      else break;  // queue is nonce-ordered
    }
    for (eth::Nonce n : stale) update.dropped.push_back(remove_entry(s, sender, n));
    reclassify(s, sender, &update.promoted);
  }
  if (obs_ != nullptr && !update.dropped.empty()) obs_->drops_mined->inc(update.dropped.size());
  return update;
}

const eth::Transaction* Mempool::find(eth::Address sender, eth::Nonce nonce) const {
  const AccountQueue* q = account(*st_, sender);
  if (q == nullptr) return nullptr;
  auto eit = q->find(nonce);
  return eit == q->txs.end() ? nullptr : &eit->second.tx;
}

const eth::Transaction* Mempool::find_hash(eth::TxHash h) const {
  const State& s = *st_;
  const uint64_t* id = s.by_hash.find(h);
  if (id == nullptr) return nullptr;
  const auto loc = s.by_id.at(*id);
  return find(loc.first, loc.second);
}

size_t Mempool::futures_of(eth::Address sender) const {
  const AccountQueue* q = account(*st_, sender);
  return q == nullptr ? 0 : q->futures;
}

eth::Wei Mempool::lowest_price() const {
  // Slot-order scan instead of price_index.min(): reading the heap settles
  // lazy deletions, which would physically write through the shared
  // copy-on-write handle.
  const State& s = *st_;
  if (s.size == 0) return 0;
  eth::Wei best = 0;
  bool found = false;
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const auto& [nonce, entry] : s.slot_queue[slot].txs) {
      const eth::Wei p = entry.tx.pool_price();
      if (!found || p < best) {
        best = p;
        found = true;
      }
    }
  }
  return best;
}

eth::Wei Mempool::median_pending_price() const {
  const State& s = *st_;
  std::vector<eth::Wei> prices;
  prices.reserve(s.pending_count);
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const auto& [nonce, entry] : s.slot_queue[slot].txs) {
      if (entry.pending) prices.push_back(entry.tx.pool_price());
    }
  }
  if (prices.empty()) return 0;
  std::sort(prices.begin(), prices.end());
  return prices[prices.size() / 2];
}

std::vector<eth::Transaction> Mempool::pending_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.pending_count);
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const auto& [nonce, entry] : s.slot_queue[slot].txs) {
      if (entry.pending) out.push_back(entry.tx);
    }
  }
  return out;
}

const eth::Transaction* Mempool::random_pending(util::Rng& rng) const {
  const State& s = *st_;
  if (s.pending_count == 0) return nullptr;
  size_t k = rng.index(s.pending_count);
  // Same iteration order as pending_snapshot(), so the k-th pending entry
  // here is the entry snapshot[k] would hold.
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const auto& [nonce, entry] : s.slot_queue[slot].txs) {
      if (!entry.pending) continue;
      if (k == 0) return &entry.tx;
      --k;
    }
  }
  return nullptr;  // unreachable while pending_count is consistent
}

void Mempool::clear() {
  // A fresh handle instead of clearing in place: drops the shared base
  // world's pages instantly and releases every allocation.
  st_ = util::Cow<State>();
}

std::vector<eth::Transaction> Mempool::future_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.size - s.pending_count);
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const auto& [nonce, entry] : s.slot_queue[slot].txs) {
      if (!entry.pending) out.push_back(entry.tx);
    }
  }
  return out;
}

std::vector<eth::Transaction> Mempool::all_snapshot() const {
  const State& s = *st_;
  std::vector<eth::Transaction> out;
  out.reserve(s.size);
  for (size_t slot = 0; slot < s.slot_addr.size(); ++slot) {
    if (s.slot_addr[slot] == eth::kNoAddress) continue;
    for (const auto& [nonce, entry] : s.slot_queue[slot].txs) out.push_back(entry.tx);
  }
  return out;
}

}  // namespace topo::mempool
