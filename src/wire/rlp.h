#pragma once

// RLP (Recursive Length Prefix) — Ethereum's canonical wire serialization,
// used by every devp2p message and by transactions themselves. Implemented
// from the Yellow Paper spec:
//   - a single byte in [0x00, 0x7f] is its own encoding;
//   - a string of 0..55 bytes: 0x80+len prefix;
//   - a longer string: 0xb7+len(len) then big-endian length;
//   - a list with 0..55 bytes of payload: 0xc0+len prefix;
//   - a longer list: 0xf7+len(len) then big-endian length.
//
// The simulator uses RLP to size messages for bandwidth accounting and to
// round-trip transactions/announcements through the wire codec tests.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace topo::wire {

using Bytes = std::vector<uint8_t>;

/// An RLP item: either a byte string or a list of items.
class RlpItem {
 public:
  RlpItem() : is_list_(false) {}
  static RlpItem str(Bytes bytes);
  static RlpItem str(const std::string& s);
  /// Big-endian minimal encoding of an unsigned integer (0 -> empty string).
  static RlpItem uint(uint64_t v);
  static RlpItem list(std::vector<RlpItem> items);

  bool is_list() const { return is_list_; }
  bool is_string() const { return !is_list_; }

  /// Payload accessors; aborts on kind mismatch in debug builds.
  const Bytes& bytes() const { return bytes_; }
  const std::vector<RlpItem>& items() const { return items_; }

  /// Decodes the byte string as a big-endian unsigned integer. Returns
  /// nullopt for lists, >8-byte strings, or non-minimal encodings
  /// (leading zero bytes).
  std::optional<uint64_t> to_uint() const;
  std::string to_string() const { return std::string(bytes_.begin(), bytes_.end()); }

  bool operator==(const RlpItem& o) const;

 private:
  bool is_list_;
  Bytes bytes_;
  std::vector<RlpItem> items_;
};

/// Encodes an item to RLP bytes.
Bytes rlp_encode(const RlpItem& item);

/// Deepest list nesting the decoder accepts. Decoding recurses once per
/// level, so without a bound 100 000 nested list prefixes overflow the
/// stack; deeper input fails like any other malformed encoding.
inline constexpr size_t kRlpMaxDepth = 1024;

/// Decodes exactly one item; fails (nullopt) on truncation, trailing bytes,
/// non-canonical encodings (e.g. a 1-byte string <= 0x7f wrapped in a
/// 0x81 prefix, or long-form lengths that fit the short form), or lists
/// nested deeper than kRlpMaxDepth.
std::optional<RlpItem> rlp_decode(const Bytes& bytes);

/// Decodes one item from a prefix of `bytes` starting at `pos`; advances
/// `pos` past it. Used internally and by stream parsers.
std::optional<RlpItem> rlp_decode_prefix(const Bytes& bytes, size_t& pos);

/// Size in bytes of the encoding of an item without materializing it.
size_t rlp_encoded_size(const RlpItem& item);

}  // namespace topo::wire
