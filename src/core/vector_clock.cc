#include "core/vector_clock.hh"

#include <sstream>

namespace wo {

std::string
VectorClock::toString() const
{
    std::ostringstream oss;
    oss << '<';
    for (std::size_t i = 0; i < c_.size(); ++i) {
        if (i)
            oss << ',';
        oss << c_[i];
    }
    oss << '>';
    return oss.str();
}

} // namespace wo
