// Tests for the RLP codec and devp2p message layer: spec vectors,
// round-trips, canonicality rejection, and the arithmetic size twin.

#include <gtest/gtest.h>

#include "util/rng.h"
#include "wire/messages.h"
#include "wire/rlp.h"

namespace topo::wire {
namespace {

Bytes bytes_of(std::initializer_list<int> xs) {
  Bytes out;
  for (int x : xs) out.push_back(static_cast<uint8_t>(x));
  return out;
}

// -- RLP spec vectors (from the Ethereum wiki / Yellow Paper) ---------------

TEST(Rlp, SpecVectors) {
  // "dog" -> [0x83, 'd', 'o', 'g']
  EXPECT_EQ(rlp_encode(RlpItem::str("dog")), bytes_of({0x83, 'd', 'o', 'g'}));
  // ["cat", "dog"] -> [0xc8, 0x83,'c','a','t', 0x83,'d','o','g']
  EXPECT_EQ(rlp_encode(RlpItem::list({RlpItem::str("cat"), RlpItem::str("dog")})),
            bytes_of({0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'}));
  // empty string -> 0x80
  EXPECT_EQ(rlp_encode(RlpItem::str(Bytes{})), bytes_of({0x80}));
  // empty list -> 0xc0
  EXPECT_EQ(rlp_encode(RlpItem::list({})), bytes_of({0xc0}));
  // integer 0 -> 0x80 (empty string)
  EXPECT_EQ(rlp_encode(RlpItem::uint(0)), bytes_of({0x80}));
  // integer 15 -> single byte 0x0f
  EXPECT_EQ(rlp_encode(RlpItem::uint(15)), bytes_of({0x0f}));
  // integer 1024 -> [0x82, 0x04, 0x00]
  EXPECT_EQ(rlp_encode(RlpItem::uint(1024)), bytes_of({0x82, 0x04, 0x00}));
  // set-theoretic representation of 3: [ [], [[]], [ [], [[]] ] ]
  const auto three = RlpItem::list({
      RlpItem::list({}),
      RlpItem::list({RlpItem::list({})}),
      RlpItem::list({RlpItem::list({}), RlpItem::list({RlpItem::list({})})}),
  });
  EXPECT_EQ(rlp_encode(three),
            bytes_of({0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0}));
}

TEST(Rlp, LongStringUsesLengthOfLength) {
  // The 56-byte string "Lorem ipsum ..." begins with 0xb8 0x38 per spec.
  std::string lorem = "Lorem ipsum dolor sit amet, consectetur adipisicing elit";
  ASSERT_GT(lorem.size(), 55u);
  const auto enc = rlp_encode(RlpItem::str(lorem));
  EXPECT_EQ(enc[0], 0xb8);
  EXPECT_EQ(enc[1], lorem.size());
  EXPECT_EQ(enc.size(), 2 + lorem.size());
}

TEST(Rlp, RoundTripRandomStructures) {
  util::Rng rng(1);
  for (int round = 0; round < 200; ++round) {
    // Random tree of depth <= 3.
    std::function<RlpItem(int)> gen = [&](int depth) -> RlpItem {
      if (depth == 0 || rng.chance(0.6)) {
        Bytes b(rng.index(70));
        for (auto& x : b) x = static_cast<uint8_t>(rng.uniform_int(0, 255));
        return RlpItem::str(std::move(b));
      }
      std::vector<RlpItem> items;
      const size_t n = rng.index(5);
      for (size_t i = 0; i < n; ++i) items.push_back(gen(depth - 1));
      return RlpItem::list(std::move(items));
    };
    const RlpItem item = gen(3);
    const Bytes enc = rlp_encode(item);
    EXPECT_EQ(enc.size(), rlp_encoded_size(item));
    const auto back = rlp_decode(enc);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == item);
  }
}

TEST(Rlp, RejectsNonCanonicalAndTruncated) {
  // Single byte wrapped in an unnecessary prefix: 0x81 0x05 is invalid
  // (0x05 encodes itself).
  EXPECT_FALSE(rlp_decode(bytes_of({0x81, 0x05})).has_value());
  // Long form used for a short length.
  EXPECT_FALSE(rlp_decode(bytes_of({0xb8, 0x01, 0x41})).has_value());
  // Truncated payloads.
  EXPECT_FALSE(rlp_decode(bytes_of({0x83, 'd', 'o'})).has_value());
  EXPECT_FALSE(rlp_decode(bytes_of({0xc8, 0x83, 'c', 'a', 't'})).has_value());
  // Trailing garbage.
  EXPECT_FALSE(rlp_decode(bytes_of({0x80, 0x00})).has_value());
  // Leading zero in a long length.
  EXPECT_FALSE(rlp_decode(bytes_of({0xb9, 0x00, 0x38})).has_value());
  // Empty input.
  EXPECT_FALSE(rlp_decode(Bytes{}).has_value());
}

/// `depth` canonically nested lists around an empty innermost list, built
/// without recursion (outermost prefix first).
Bytes nested_lists(size_t depth) {
  std::vector<Bytes> prefixes;  // innermost first
  size_t payload = 0;
  for (size_t d = 0; d < depth; ++d) {
    Bytes prefix;
    if (payload <= 55) {
      prefix.push_back(static_cast<uint8_t>(0xc0 + payload));
    } else {
      Bytes len;
      for (size_t v = payload; v > 0; v >>= 8) len.insert(len.begin(), static_cast<uint8_t>(v));
      prefix.push_back(static_cast<uint8_t>(0xf7 + len.size()));
      prefix.insert(prefix.end(), len.begin(), len.end());
    }
    payload += prefix.size();
    prefixes.push_back(std::move(prefix));
  }
  Bytes out;
  out.reserve(payload);
  for (auto it = prefixes.rbegin(); it != prefixes.rend(); ++it) {
    out.insert(out.end(), it->begin(), it->end());
  }
  return out;
}

TEST(Rlp, NestingDepthIsBounded) {
  // Decoding recurses per list level; before the bound, 100 000 nested
  // lists blew the stack (SIGSEGV) instead of failing.
  const Bytes deep = nested_lists(1000);
  const auto item = rlp_decode(deep);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(rlp_encode(*item), deep);
  EXPECT_TRUE(rlp_decode(nested_lists(kRlpMaxDepth)).has_value());
  EXPECT_FALSE(rlp_decode(nested_lists(kRlpMaxDepth + 1)).has_value());
  EXPECT_FALSE(rlp_decode(nested_lists(100000)).has_value());
}

TEST(Rlp, UintDecoding) {
  EXPECT_EQ(RlpItem::uint(0).to_uint(), 0u);
  EXPECT_EQ(RlpItem::uint(0x1234).to_uint(), 0x1234u);
  EXPECT_EQ(RlpItem::uint(UINT64_MAX).to_uint(), UINT64_MAX);
  EXPECT_FALSE(RlpItem::list({}).to_uint().has_value());
  // Non-minimal (leading zero) rejected.
  EXPECT_FALSE(RlpItem::str(bytes_of({0x00, 0x01})).to_uint().has_value());
}

// -- Message layer ----------------------------------------------------------

TEST(Messages, LegacyTransactionRoundTrip) {
  eth::TxFactory f;
  const auto tx = f.make(0xabcdef, 7, 123'456'789, 0x42, 1'000'000);
  const Bytes enc = encode_transaction(tx);
  const auto back = decode_transaction(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sender, tx.sender);
  EXPECT_EQ(back->nonce, tx.nonce);
  EXPECT_EQ(back->gas_price, tx.gas_price);
  EXPECT_EQ(back->to, tx.to);
  EXPECT_EQ(back->value, tx.value);
  EXPECT_EQ(back->id, tx.id);
  EXPECT_EQ(back->hash(), tx.hash()) << "same fields -> same simulated hash";
  EXPECT_FALSE(back->fee1559.has_value());
}

TEST(Messages, Eip1559TransactionRoundTrip) {
  eth::TxFactory f;
  const auto tx = f.make1559(5, 3, eth::gwei(30), eth::gwei(2), 9, 55);
  const Bytes enc = encode_transaction(tx);
  EXPECT_EQ(enc[0], 0x02) << "EIP-2718 type byte";
  const auto back = decode_transaction(enc);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->fee1559.has_value());
  EXPECT_EQ(back->fee1559->max_fee, eth::gwei(30));
  EXPECT_EQ(back->fee1559->priority_fee, eth::gwei(2));
  EXPECT_EQ(back->hash(), tx.hash());
}

TEST(Messages, TransactionsBatchRoundTrip) {
  eth::TxFactory f;
  std::vector<eth::Transaction> txs;
  for (int i = 0; i < 20; ++i) txs.push_back(f.make(1 + i, i, 100 + i));
  const Bytes frame = encode_transactions(txs);
  const auto back = decode_transactions(frame);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), txs.size());
  for (size_t i = 0; i < txs.size(); ++i) EXPECT_EQ((*back)[i].hash(), txs[i].hash());
}

TEST(Messages, HashAnnouncementRoundTrip) {
  std::vector<eth::TxHash> hashes{0x1, 0xdeadbeef, UINT64_MAX};
  const Bytes frame = encode_hashes(hashes, MsgId::kNewPooledTransactionHashes);
  const auto unwrapped = unwrap_message(frame);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(unwrapped->first, MsgId::kNewPooledTransactionHashes);
  const auto back = decode_hashes(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, hashes);
}

TEST(Messages, StatusRoundTrip) {
  StatusMessage s;
  s.protocol_version = 66;
  s.network_id = 3;  // Ropsten
  s.head_block = 11'000'000;
  s.client_version = "Geth/v1.10.3-stable/linux-amd64/go1.16";
  const auto back = decode_status(encode_status(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->network_id, 3u);
  EXPECT_EQ(back->client_version, s.client_version);
}

TEST(Messages, UnwrapRejectsUnknownIds) {
  const Bytes bogus = wrap_message(static_cast<MsgId>(0x02), Bytes{0x80});
  EXPECT_TRUE(unwrap_message(bogus).has_value());
  const Bytes frame = rlp_encode(
      RlpItem::list({RlpItem::uint(0x7f), RlpItem::str(Bytes{0x80})}));
  EXPECT_FALSE(unwrap_message(frame).has_value());
  EXPECT_FALSE(decode_transactions(Bytes{0x01, 0x02}).has_value());
}

TEST(Messages, WireSizeTwinMatchesRealEncoding) {
  // The arithmetic size used in the hot path must equal the actual frame
  // size across a price/nonce/field sweep, for both fee formats.
  eth::TxFactory f;
  util::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    eth::Transaction tx;
    if (rng.chance(0.5)) {
      tx = f.make(rng.next() >> rng.index(60), rng.next() >> rng.index(60),
                  rng.next() >> rng.index(60), rng.index(1000), rng.next() >> rng.index(60));
    } else {
      tx = f.make1559(rng.next() >> rng.index(60), rng.next() >> rng.index(60),
                      rng.next() >> rng.index(60), rng.next() >> rng.index(60),
                      rng.index(1000), rng.next() >> rng.index(60));
    }
    const Bytes frame = wrap_message(MsgId::kTransactions, encode_transaction(tx));
    ASSERT_EQ(transaction_wire_size(tx), frame.size()) << tx.to_string();
  }
}

TEST(Messages, AnnouncementWireSizeIsFixed) {
  const size_t s = announcement_wire_size();
  EXPECT_GT(s, 32u);
  EXPECT_LT(s, 48u);
  EXPECT_EQ(s, announcement_wire_size());
}


TEST(Rlp, DecodeFuzzNeverCrashesAndRoundTrips) {
  // Random byte soup must decode cleanly or fail cleanly; whenever it
  // decodes, re-encoding must reproduce the exact input (canonical form).
  util::Rng rng(99);
  size_t decoded = 0;
  for (int round = 0; round < 5000; ++round) {
    Bytes blob(rng.index(24));
    for (auto& b : blob) b = static_cast<uint8_t>(rng.uniform_int(0, 255));
    const auto item = rlp_decode(blob);
    if (item) {
      ++decoded;
      EXPECT_EQ(rlp_encode(*item), blob) << "decode/encode must be inverse on canonical input";
    }
  }
  EXPECT_GT(decoded, 100u) << "plenty of random short strings are valid RLP";
}

TEST(Messages, TransactionDecodeFuzzIsTotal) {
  // Arbitrary bytes through the transaction decoder: no crash, and valid
  // decodes re-encode to the same bytes.
  util::Rng rng(100);
  for (int round = 0; round < 3000; ++round) {
    Bytes blob(rng.index(64));
    for (auto& b : blob) b = static_cast<uint8_t>(rng.uniform_int(0, 255));
    const auto tx = decode_transaction(blob);
    if (tx) {
      EXPECT_EQ(encode_transaction(*tx), blob);
    }
  }
}

}  // namespace
}  // namespace topo::wire
