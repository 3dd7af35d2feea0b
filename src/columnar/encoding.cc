#include "columnar/encoding.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <map>
#include <utility>

#include "common/coding.h"

namespace cloudiq {
namespace {

constexpr uint8_t kEncodingNBit = 1;
constexpr uint8_t kEncodingRawDouble = 2;
constexpr uint8_t kEncodingDictString = 3;
constexpr uint8_t kEncodingRawString = 4;
// Sorted runs (load order often is: orderkeys, dates): successive deltas
// are tiny even when the value range is wide, so delta + n-bit beats
// frame-of-reference.
constexpr uint8_t kEncodingDeltaNBit = 5;

constexpr uint64_t LowBits(int width) {
  return width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

// Pages are little-endian on disk, like every format in common/coding.h.
inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// The `W`-bit value whose lowest bit is bit `shift` (0..7) of `p[0]`. One
// word load covers it unless its bits run past that word, which only
// widths above 56 can do.
template <int W>
inline uint64_t ExtractValue(const uint8_t* p, int shift) {
  uint64_t v = LoadWord(p) >> shift;
  if (shift + W > 64) v |= LoadWord(p + 8) << (64 - shift);
  return v & LowBits(W);
}

// Eight values fill exactly W bytes, so every value's byte offset and
// shift within a group is a compile-time constant.
template <int W, int... J>
inline void UnpackGroup(const uint8_t* p, uint64_t* out,
                        std::integer_sequence<int, J...>) {
  ((out[J] = ExtractValue<W>(p + J * W / 8, J * W % 8)), ...);
}

template <int W>
void UnpackWidth(const uint8_t* in, size_t size, size_t count,
                 uint64_t* out) {
  // A group's loads reach at most W + 16 bytes past its first byte.
  constexpr size_t kReach = W + 16;
  size_t groups =
      size >= kReach ? std::min(count / 8, (size - kReach) / W + 1) : 0;
  for (size_t g = 0; g < groups; ++g) {
    UnpackGroup<W>(in + g * W, out + g * 8,
                   std::make_integer_sequence<int, 8>());
  }
  // Byte-safe tail: copy what is left of the buffer into a zeroed window
  // so that bits past `size` read as zero.
  for (size_t i = groups * 8; i < count; ++i) {
    size_t byte = i * W / 8;
    uint8_t window[16] = {};
    if (byte < size) {
      std::memcpy(window, in + byte, std::min<size_t>(16, size - byte));
    }
    out[i] = ExtractValue<W>(window, static_cast<int>(i * W % 8));
  }
}

using UnpackFn = void (*)(const uint8_t*, size_t, size_t, uint64_t*);

template <int... W>
constexpr std::array<UnpackFn, sizeof...(W)> UnpackTable(
    std::integer_sequence<int, W...>) {
  return {&UnpackWidth<W + 1>...};
}

// kUnpackByWidth[w - 1] unpacks w-bit values.
constexpr std::array<UnpackFn, 64> kUnpackByWidth =
    UnpackTable(std::make_integer_sequence<int, 64>());

}  // namespace

int BitWidthFor(uint64_t max_value) {
  int width = 1;
  while (width < 64 && (max_value >> width) != 0) ++width;
  return width;
}

std::vector<uint8_t> NBitPack(const std::vector<uint64_t>& values,
                              int bit_width) {
  assert(bit_width >= 1 && bit_width <= 64);
  const uint64_t mask = LowBits(bit_width);
  std::vector<uint8_t> out((values.size() * bit_width + 7) / 8);
  uint8_t* dst = out.data();
  uint64_t acc = 0;  // the low `filled` bits are packed, not yet written
  int filled = 0;
  for (uint64_t v : values) {
    v &= mask;
    acc |= v << filled;
    filled += bit_width;
    if (filled >= 64) {
      std::memcpy(dst, &acc, sizeof(acc));
      dst += sizeof(acc);
      filled -= 64;
      acc = filled == 0 ? 0 : v >> (bit_width - filled);
    }
  }
  if (filled > 0) std::memcpy(dst, &acc, (filled + 7) / 8);
  return out;
}

void NBitUnpack(const uint8_t* bytes, size_t size, int bit_width,
                size_t count, uint64_t* out) {
  assert(bit_width >= 1 && bit_width <= 64);
  kUnpackByWidth[bit_width - 1](bytes, size, count, out);
}

std::vector<uint8_t> EncodeColumnPage(const ColumnVector& values,
                                      size_t begin, size_t end,
                                      ZoneMapEntry* zone) {
  assert(end <= values.size() && begin <= end);
  size_t count = end - begin;
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(values.type));
  PutU32(out, static_cast<uint32_t>(count));
  zone->row_count = static_cast<uint32_t>(count);

  switch (values.type) {
    case ColumnType::kInt64:
    case ColumnType::kDate:
    case ColumnType::kDecimal: {
      int64_t min_v = count > 0 ? values.ints[begin] : 0;
      int64_t max_v = min_v;
      for (size_t i = begin; i < end; ++i) {
        min_v = std::min(min_v, values.ints[i]);
        max_v = std::max(max_v, values.ints[i]);
      }
      zone->min_int = min_v;
      zone->max_int = max_v;
      // Non-decreasing pages (sorted keys, monotone dates) get delta +
      // n-bit; everything else frame-of-reference + n-bit.
      bool sorted = true;
      uint64_t max_step = 0;
      for (size_t i = begin + 1; i < end; ++i) {
        if (values.ints[i] < values.ints[i - 1]) {
          sorted = false;
          break;
        }
        max_step = std::max(
            max_step,
            static_cast<uint64_t>(values.ints[i] - values.ints[i - 1]));
      }
      int for_width =
          BitWidthFor(static_cast<uint64_t>(max_v - min_v));
      int delta_width = BitWidthFor(max_step);
      if (sorted && count > 1 && delta_width < for_width) {
        std::vector<uint64_t> deltas;
        deltas.reserve(count - 1);
        for (size_t i = begin + 1; i < end; ++i) {
          deltas.push_back(
              static_cast<uint64_t>(values.ints[i] - values.ints[i - 1]));
        }
        out.push_back(kEncodingDeltaNBit);
        out.push_back(static_cast<uint8_t>(delta_width));
        PutI64(out, values.ints[begin]);  // first value, raw
        std::vector<uint8_t> packed = NBitPack(deltas, delta_width);
        PutBytes(out, packed.data(), packed.size());
        break;
      }
      std::vector<uint64_t> deltas;
      deltas.reserve(count);
      for (size_t i = begin; i < end; ++i) {
        deltas.push_back(static_cast<uint64_t>(values.ints[i] - min_v));
      }
      out.push_back(kEncodingNBit);
      out.push_back(static_cast<uint8_t>(for_width));
      PutI64(out, min_v);
      std::vector<uint8_t> packed = NBitPack(deltas, for_width);
      PutBytes(out, packed.data(), packed.size());
      break;
    }
    case ColumnType::kDouble: {
      double min_v = count > 0 ? values.doubles[begin] : 0;
      double max_v = min_v;
      out.push_back(kEncodingRawDouble);
      for (size_t i = begin; i < end; ++i) {
        min_v = std::min(min_v, values.doubles[i]);
        max_v = std::max(max_v, values.doubles[i]);
        PutDouble(out, values.doubles[i]);
      }
      zone->min_double = min_v;
      zone->max_double = max_v;
      break;
    }
    case ColumnType::kString: {
      // Page-local dictionary; n-bit codes if it pays, raw otherwise.
      std::map<std::string, uint32_t> dict;
      for (size_t i = begin; i < end; ++i) {
        dict.emplace(values.strings[i], 0);
      }
      if (count > 0) {
        zone->min_string = dict.begin()->first.substr(0, 16);
        zone->max_string = std::prev(dict.end())->first.substr(0, 16);
      }
      size_t dict_bytes = 0;
      for (const auto& [s, code] : dict) dict_bytes += s.size() + 4;
      size_t raw_bytes = 0;
      for (size_t i = begin; i < end; ++i) {
        raw_bytes += values.strings[i].size() + 4;
      }
      int width =
          BitWidthFor(dict.empty() ? 0 : dict.size() - 1);
      size_t dict_total = dict_bytes + (count * width + 7) / 8;
      if (dict_total < raw_bytes) {
        uint32_t next = 0;
        for (auto& [s, code] : dict) code = next++;
        out.push_back(kEncodingDictString);
        out.push_back(static_cast<uint8_t>(width));
        PutU32(out, static_cast<uint32_t>(dict.size()));
        for (const auto& [s, code] : dict) PutString(out, s);
        std::vector<uint64_t> codes;
        codes.reserve(count);
        for (size_t i = begin; i < end; ++i) {
          codes.push_back(dict[values.strings[i]]);
        }
        std::vector<uint8_t> packed = NBitPack(codes, width);
        PutBytes(out, packed.data(), packed.size());
      } else {
        out.push_back(kEncodingRawString);
        for (size_t i = begin; i < end; ++i) {
          PutString(out, values.strings[i]);
        }
      }
      break;
    }
  }
  return out;
}

namespace {

bool IsIntType(ColumnType type) {
  return type == ColumnType::kInt64 || type == ColumnType::kDate ||
         type == ColumnType::kDecimal;
}

// Reads an n-bit width byte; widths outside [1, 64] are corrupt.
Result<int> ReadWidth(ByteReader& reader) {
  int width = reader.GetU8();
  if (reader.overflow()) return Status::Corruption("column page truncated");
  if (width < 1 || width > 64) {
    return Status::Corruption("n-bit width out of range");
  }
  return width;
}

}  // namespace

Result<ColumnVector> DecodeColumnPage(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  ColumnVector out;
  uint32_t type = reader.GetU32();
  uint32_t count = reader.GetU32();
  uint8_t encoding = reader.GetU8();
  if (reader.overflow()) return Status::Corruption("column page truncated");
  if (type > static_cast<uint32_t>(ColumnType::kDecimal)) {
    return Status::Corruption("unknown column type");
  }
  out.type = static_cast<ColumnType>(type);

  switch (encoding) {
    case kEncodingNBit:
    case kEncodingDeltaNBit: {
      if (!IsIntType(out.type)) {
        return Status::Corruption("n-bit page of a non-integer column");
      }
      CLOUDIQ_ASSIGN_OR_RETURN(int width, ReadWidth(reader));
      int64_t first = reader.GetI64();
      // Frame of reference packs every value; delta packs all but the
      // first, which is stored raw.
      bool delta = encoding == kEncodingDeltaNBit;
      size_t n_packed = delta && count > 0 ? count - 1 : count;
      // Checked against the page before `out` is sized by `count`.
      size_t packed_size = (n_packed * width + 7) / 8;
      const uint8_t* packed = reader.GetPointer(packed_size);
      if (reader.overflow()) {
        return Status::Corruption("column page truncated");
      }
      out.ints.resize(count);
      // int64_t and uint64_t may alias; all arithmetic below wraps.
      uint64_t* v = reinterpret_cast<uint64_t*>(out.ints.data());
      uint64_t base = static_cast<uint64_t>(first);
      if (delta) {
        if (count == 0) break;
        v[0] = base;
        NBitUnpack(packed, packed_size, width, n_packed, v + 1);
        for (size_t i = 1; i < count; ++i) v[i] += v[i - 1];
      } else {
        NBitUnpack(packed, packed_size, width, n_packed, v);
        for (size_t i = 0; i < count; ++i) v[i] += base;
      }
      break;
    }
    case kEncodingRawDouble: {
      if (out.type != ColumnType::kDouble) {
        return Status::Corruption("double page of a non-double column");
      }
      size_t raw_size = size_t{count} * sizeof(double);
      const uint8_t* raw = reader.GetPointer(raw_size);
      if (reader.overflow()) {
        return Status::Corruption("column page truncated");
      }
      out.doubles.resize(count);
      if (count > 0) std::memcpy(out.doubles.data(), raw, raw_size);
      break;
    }
    case kEncodingDictString: {
      if (out.type != ColumnType::kString) {
        return Status::Corruption("string page of a non-string column");
      }
      CLOUDIQ_ASSIGN_OR_RETURN(int width, ReadWidth(reader));
      uint32_t dict_size = reader.GetU32();
      // Every entry takes at least its 4-byte length.
      if (dict_size > reader.remaining() / 4) {
        return Status::Corruption("dictionary larger than its page");
      }
      std::vector<std::string> dict(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) dict[i] = reader.GetString();
      size_t packed_size = (size_t{count} * width + 7) / 8;
      const uint8_t* packed = reader.GetPointer(packed_size);
      if (reader.overflow()) {
        return Status::Corruption("column page truncated");
      }
      std::vector<uint64_t> codes(count);
      NBitUnpack(packed, packed_size, width, count, codes.data());
      out.strings.reserve(count);
      for (uint64_t code : codes) {
        if (code >= dict.size()) {
          return Status::Corruption("dictionary code out of range");
        }
        out.strings.push_back(dict[code]);
      }
      break;
    }
    case kEncodingRawString: {
      if (out.type != ColumnType::kString) {
        return Status::Corruption("string page of a non-string column");
      }
      // Every string takes at least its 4-byte length.
      if (count > reader.remaining() / 4) {
        return Status::Corruption("column page truncated");
      }
      out.strings.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        out.strings.push_back(reader.GetString());
      }
      break;
    }
    default:
      return Status::Corruption("unknown column encoding");
  }
  if (reader.overflow()) return Status::Corruption("column page truncated");
  return out;
}

}  // namespace cloudiq
