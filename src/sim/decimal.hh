/**
 * @file
 * Strict decimal parsing for numbers given on a command line or in the
 * environment (thread counts, seeds, sizes).
 */

#ifndef WO_SIM_DECIMAL_HH
#define WO_SIM_DECIMAL_HH

#include <charconv>
#include <limits>
#include <string_view>

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

} // namespace wo

#endif // WO_SIM_DECIMAL_HH
