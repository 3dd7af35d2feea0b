#include "store/page_codec.h"

#include <cstring>

#include "common/coding.h"

namespace cloudiq {
namespace {

constexpr uint32_t kPageMagic = 0x49515047;  // "IQPG"
constexpr uint32_t kFlagRle = 1u << 0;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

}  // namespace

std::vector<uint8_t> RleCompress(const std::vector<uint8_t>& in) {
  // Byte-oriented RLE: a run of >= 4 equal bytes becomes
  // [0x00 marker][byte][u32 length]; literals are chunked as
  // [0x01 marker][u32 length][bytes...].
  std::vector<uint8_t> out;
  out.reserve(in.size() / 4 + 16);
  size_t i = 0;
  while (i < in.size()) {
    size_t run = 1;
    while (i + run < in.size() && in[i + run] == in[i] && run < 0xffffffff) {
      ++run;
    }
    if (run >= 4) {
      out.push_back(0x00);
      out.push_back(in[i]);
      uint32_t len = static_cast<uint32_t>(run);
      out.insert(out.end(), reinterpret_cast<uint8_t*>(&len),
                 reinterpret_cast<uint8_t*>(&len) + 4);
      i += run;
    } else {
      // Gather literals until the next long run.
      size_t lit_start = i;
      while (i < in.size()) {
        size_t r = 1;
        while (i + r < in.size() && in[i + r] == in[i] && r < 4) ++r;
        if (r >= 4 && i + 3 < in.size() && in[i + 3] == in[i]) break;
        i += 1;
      }
      uint32_t len = static_cast<uint32_t>(i - lit_start);
      out.push_back(0x01);
      out.insert(out.end(), reinterpret_cast<uint8_t*>(&len),
                 reinterpret_cast<uint8_t*>(&len) + 4);
      out.insert(out.end(), in.begin() + lit_start, in.begin() + i);
    }
  }
  return out;
}

Result<std::vector<uint8_t>> RleDecompress(const uint8_t* in, size_t size,
                                           uint64_t expected_size) {
  // First pass: validate every marker and sum the run and literal
  // lengths, so a corrupt length or `expected_size` fails here instead of
  // sizing an allocation.
  uint64_t total = 0;
  size_t i = 0;
  while (i < size) {
    uint8_t marker = in[i++];
    if (marker > 0x01) return Status::Corruption("bad RLE marker");
    size_t header = marker == 0x00 ? 5 : 4;  // [byte] u32 length
    if (size - i < header) return Status::Corruption("truncated RLE");
    uint32_t len;
    std::memcpy(&len, in + i + header - 4, 4);
    i += header;
    if (marker == 0x01) {
      if (size - i < len) return Status::Corruption("literal overrun");
      i += len;
    }
    if (len > expected_size - total) {
      return Status::Corruption("RLE run overrun");
    }
    total += len;
  }
  if (total != expected_size) {
    return Status::Corruption("RLE size mismatch");
  }

  // Second pass: the markers are known good; fill the one allocation.
  std::vector<uint8_t> out(expected_size);
  size_t pos = 0;
  i = 0;
  while (i < size) {
    uint8_t marker = in[i++];
    size_t header = marker == 0x00 ? 5 : 4;
    uint32_t len;
    std::memcpy(&len, in + i + header - 4, 4);
    if (len > 0 && marker == 0x00) {
      std::memset(out.data() + pos, in[i], len);
    } else if (len > 0) {
      std::memcpy(out.data() + pos, in + i + header, len);
    }
    pos += len;
    i += header + (marker == 0x01 ? len : 0);
  }
  return out;
}

std::vector<uint8_t> EncodePage(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> compressed = RleCompress(payload);
  bool use_rle = compressed.size() < payload.size();
  const std::vector<uint8_t>& body = use_rle ? compressed : payload;

  std::vector<uint8_t> frame;
  frame.reserve(kHeaderSize + body.size());
  PutU32(frame, kPageMagic);
  PutU32(frame, use_rle ? kFlagRle : 0);
  PutU64(frame, payload.size());
  PutU64(frame, Checksum64(payload.data(), payload.size()));
  PutBytes(frame, body.data(), body.size());
  return frame;
}

Result<std::vector<uint8_t>> DecodePage(const std::vector<uint8_t>& frame) {
  if (frame.size() < kHeaderSize) {
    return Status::Corruption("page frame too small");
  }
  ByteReader reader(frame);
  if (reader.GetU32() != kPageMagic) {
    return Status::Corruption("bad page magic");
  }
  uint32_t flags = reader.GetU32();
  uint64_t raw_size = reader.GetU64();
  uint64_t checksum = reader.GetU64();

  const uint8_t* body = frame.data() + kHeaderSize;
  size_t body_size = frame.size() - kHeaderSize;
  std::vector<uint8_t> payload;
  if (flags & kFlagRle) {
    CLOUDIQ_ASSIGN_OR_RETURN(payload,
                             RleDecompress(body, body_size, raw_size));
  } else {
    payload.assign(body, body + body_size);
    if (payload.size() != raw_size) {
      return Status::Corruption("raw page size mismatch");
    }
  }
  if (Checksum64(payload.data(), payload.size()) != checksum) {
    return Status::Corruption("page checksum mismatch");
  }
  return payload;
}

}  // namespace cloudiq
