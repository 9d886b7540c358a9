// The untraced binary interposes nothing.
#include "spans.hh"

namespace perfbench {

const WrappedFn kWrapped[1] = {{"", ""}};
const std::size_t kNumWrapped = 0;

} // namespace perfbench
