/**
 * @file
 * Strict parsing of values given on a command line or in the
 * environment: decimal numbers (thread counts, seeds, sizes) and
 * comma-separated lists (policies, machines, trace components, models).
 */

#ifndef WO_SIM_CLI_PARSE_HH
#define WO_SIM_CLI_PARSE_HH

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace wo {

/**
 * Parse @p text as a plain decimal integer in [@p lo, @p hi]: digits
 * only, with no sign, space or trailing text, and no value that does
 * not fit in T. Returns false on anything else, leaving @p out as it was.
 */
template <typename T>
bool
parseDecimal(std::string_view text, T &out, T lo = 0,
             T hi = std::numeric_limits<T>::max())
{
    const char *first = text.data();
    const char *last = first + text.size();
    if (first == last || *first < '0' || *first > '9')
        return false;
    T v{};
    auto [end, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || end != last || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/**
 * Split @p text at commas into @p out. Returns false if any item is
 * empty (an empty list, a leading or trailing comma, two commas in a
 * row), leaving @p out as it was.
 */
inline bool
splitCommaList(std::string_view text, std::vector<std::string> &out)
{
    std::vector<std::string> items;
    for (;;) {
        std::size_t comma = text.find(',');
        std::string_view item = text.substr(0, comma);
        if (item.empty())
            return false;
        items.emplace_back(item);
        if (comma == std::string_view::npos)
            break;
        text.remove_prefix(comma + 1);
    }
    out = std::move(items);
    return true;
}

} // namespace wo

#endif // WO_SIM_CLI_PARSE_HH
