// Hexadecimal encoding/decoding helpers used throughout the EVM layer.
//
// Ethereum tooling conventionally prefixes hex strings with "0x"; both
// prefixed and bare forms are accepted on input, and encoding always
// produces lowercase digits.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace phishinghook::common {

/// Encodes `bytes` as lowercase hex without a prefix ("6080...").
std::string hex_encode(std::span<const std::uint8_t> bytes);

/// Appends hex_encode(bytes) to `out`.
void hex_append(std::string& out, std::span<const std::uint8_t> bytes);

/// Encodes `bytes` as lowercase hex with a "0x" prefix ("0x6080...").
std::string hex_encode_prefixed(std::span<const std::uint8_t> bytes);

/// Decodes a hex string (with or without "0x" prefix, either case).
/// Throws ParseError on odd length or non-hex characters.
std::vector<std::uint8_t> hex_decode(std::string_view hex);

/// True if `text` is a syntactically valid hex string (optionally
/// "0x"-prefixed, even number of hex digits; the empty payload is valid).
bool is_hex(std::string_view text);

/// Value of a single hex digit; throws ParseError for non-hex characters.
std::uint8_t hex_digit(char c);

}  // namespace phishinghook::common
