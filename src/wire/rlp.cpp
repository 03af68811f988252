#include "wire/rlp.h"

#include <cassert>

namespace topo::wire {

RlpItem RlpItem::str(Bytes bytes) {
  RlpItem item;
  item.is_list_ = false;
  item.bytes_ = std::move(bytes);
  return item;
}

RlpItem RlpItem::str(const std::string& s) {
  return str(Bytes(s.begin(), s.end()));
}

RlpItem RlpItem::uint(uint64_t v) {
  Bytes out;
  while (v > 0) {
    out.insert(out.begin(), static_cast<uint8_t>(v & 0xff));
    v >>= 8;
  }
  return str(std::move(out));  // zero encodes as the empty string
}

RlpItem RlpItem::list(std::vector<RlpItem> items) {
  RlpItem item;
  item.is_list_ = true;
  item.items_ = std::move(items);
  return item;
}

std::optional<uint64_t> RlpItem::to_uint() const {
  if (is_list_ || bytes_.size() > 8) return std::nullopt;
  if (!bytes_.empty() && bytes_.front() == 0) return std::nullopt;  // non-minimal
  uint64_t v = 0;
  for (uint8_t b : bytes_) v = (v << 8) | b;
  return v;
}

bool RlpItem::operator==(const RlpItem& o) const {
  if (is_list_ != o.is_list_) return false;
  if (is_list_) return items_ == o.items_;
  return bytes_ == o.bytes_;
}

namespace {

void append_length(Bytes& out, size_t len, uint8_t short_base, uint8_t long_base) {
  if (len <= 55) {
    out.push_back(static_cast<uint8_t>(short_base + len));
    return;
  }
  Bytes len_be;
  size_t v = len;
  while (v > 0) {
    len_be.insert(len_be.begin(), static_cast<uint8_t>(v & 0xff));
    v >>= 8;
  }
  out.push_back(static_cast<uint8_t>(long_base + len_be.size()));
  out.insert(out.end(), len_be.begin(), len_be.end());
}

void encode_into(const RlpItem& item, Bytes& out) {
  if (item.is_string()) {
    const Bytes& b = item.bytes();
    if (b.size() == 1 && b[0] <= 0x7f) {
      out.push_back(b[0]);
      return;
    }
    append_length(out, b.size(), 0x80, 0xb7);
    out.insert(out.end(), b.begin(), b.end());
    return;
  }
  Bytes payload;
  for (const auto& sub : item.items()) encode_into(sub, payload);
  append_length(out, payload.size(), 0xc0, 0xf7);
  out.insert(out.end(), payload.begin(), payload.end());
}

size_t length_prefix_size(size_t len) {
  if (len <= 55) return 1;
  size_t bytes = 0;
  while (len > 0) {
    ++bytes;
    len >>= 8;
  }
  return 1 + bytes;
}

}  // namespace

Bytes rlp_encode(const RlpItem& item) {
  Bytes out;
  encode_into(item, out);
  return out;
}

size_t rlp_encoded_size(const RlpItem& item) {
  if (item.is_string()) {
    const Bytes& b = item.bytes();
    if (b.size() == 1 && b[0] <= 0x7f) return 1;
    return length_prefix_size(b.size()) + b.size();
  }
  size_t payload = 0;
  for (const auto& sub : item.items()) payload += rlp_encoded_size(sub);
  return length_prefix_size(payload) + payload;
}

namespace {

/// Reads a big-endian length of `n` bytes at pos; canonical form required
/// (no leading zero, must exceed the 55-byte short-form range).
std::optional<size_t> read_long_length(const Bytes& b, size_t& pos, size_t n) {
  if (n == 0 || n > sizeof(size_t) || pos + n > b.size()) return std::nullopt;
  if (b[pos] == 0) return std::nullopt;  // non-canonical
  size_t len = 0;
  for (size_t i = 0; i < n; ++i) len = (len << 8) | b[pos + i];
  pos += n;
  if (len <= 55) return std::nullopt;  // should have used short form
  return len;
}

/// rlp_decode_prefix at list nesting `depth` (0 = top level).
std::optional<RlpItem> decode_at(const Bytes& bytes, size_t& pos, size_t depth) {
  if (pos >= bytes.size()) return std::nullopt;
  const uint8_t prefix = bytes[pos];

  if (prefix <= 0x7f) {
    ++pos;
    return RlpItem::str(Bytes{prefix});
  }
  if (prefix <= 0xbf) {
    // String.
    ++pos;
    size_t len = 0;
    if (prefix <= 0xb7) {
      len = prefix - 0x80;
    } else {
      auto long_len = read_long_length(bytes, pos, prefix - 0xb7);
      if (!long_len) return std::nullopt;
      len = *long_len;
    }
    if (pos + len > bytes.size()) return std::nullopt;
    Bytes payload(bytes.begin() + static_cast<long>(pos),
                  bytes.begin() + static_cast<long>(pos + len));
    pos += len;
    if (len == 1 && payload[0] <= 0x7f) return std::nullopt;  // non-canonical
    return RlpItem::str(std::move(payload));
  }
  // List.
  if (depth == kRlpMaxDepth) return std::nullopt;
  ++pos;
  size_t len = 0;
  if (prefix <= 0xf7) {
    len = prefix - 0xc0;
  } else {
    auto long_len = read_long_length(bytes, pos, prefix - 0xf7);
    if (!long_len) return std::nullopt;
    len = *long_len;
  }
  if (pos + len > bytes.size()) return std::nullopt;
  const size_t end = pos + len;
  std::vector<RlpItem> items;
  while (pos < end) {
    auto sub = decode_at(bytes, pos, depth + 1);
    if (!sub || pos > end) return std::nullopt;
    items.push_back(std::move(*sub));
  }
  if (pos != end) return std::nullopt;
  return RlpItem::list(std::move(items));
}

}  // namespace

std::optional<RlpItem> rlp_decode_prefix(const Bytes& bytes, size_t& pos) {
  return decode_at(bytes, pos, 0);
}

std::optional<RlpItem> rlp_decode(const Bytes& bytes) {
  size_t pos = 0;
  auto item = rlp_decode_prefix(bytes, pos);
  if (!item || pos != bytes.size()) return std::nullopt;
  return item;
}

}  // namespace topo::wire
