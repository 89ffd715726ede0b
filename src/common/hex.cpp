#include "common/hex.hpp"

#include "common/errors.hpp"

namespace phishinghook::common {

namespace {

constexpr char kDigits[] = "0123456789abcdef";

std::string_view strip_prefix(std::string_view hex) {
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  return hex;
}

}  // namespace

void hex_append(std::string& out, std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0F]);
  }
}

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  hex_append(out, bytes);
  return out;
}

std::string hex_encode_prefixed(std::span<const std::uint8_t> bytes) {
  return "0x" + hex_encode(bytes);
}

std::uint8_t hex_digit(char c) {
  if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<std::uint8_t>(c - 'A' + 10);
  throw ParseError(std::string("not a hex digit: '") + c + "'");
}

std::vector<std::uint8_t> hex_decode(std::string_view hex) {
  hex = strip_prefix(hex);
  if (hex.size() % 2 != 0) {
    throw ParseError("hex string has odd length (" + std::to_string(hex.size()) +
                     " digits)");
  }
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hex_digit(hex[i]) << 4) |
                                            hex_digit(hex[i + 1])));
  }
  return out;
}

bool is_hex(std::string_view text) {
  text = strip_prefix(text);
  if (text.size() % 2 != 0) return false;
  for (char c : text) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                    (c >= 'A' && c <= 'F');
    if (!ok) return false;
  }
  return true;
}

}  // namespace phishinghook::common
