// Small string utilities shared by the textual model/script parsers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mdsm {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Split on a delimiter character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on any run of whitespace; no empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// `prefix` followed by the decimal digits of `n`: numbered("s", 7) is
/// "s7". It appends rather than writing `"s" + std::to_string(7)`, which
/// GCC 12 misreports under -Wrestrict when optimizing.
std::string numbered(std::string_view prefix, std::int64_t n);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// True if `name` is a valid identifier: [A-Za-z_][A-Za-z0-9_.-]*
bool is_identifier(std::string_view name) noexcept;

}  // namespace mdsm
