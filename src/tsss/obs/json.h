#ifndef TSSS_OBS_JSON_H_
#define TSSS_OBS_JSON_H_

#include <string>
#include <string_view>

namespace tsss::obs {

/// Escapes `s` for use inside a JSON string literal (without the quotes):
/// `"` and `\` get a backslash, newline and tab their short forms, and every
/// other byte below 0x20 becomes \u00XX. The one escaper every obs report
/// uses.
std::string JsonEscape(std::string_view s);

}  // namespace tsss::obs

#endif  // TSSS_OBS_JSON_H_
