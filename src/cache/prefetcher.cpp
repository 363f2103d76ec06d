#include "cache/prefetcher.hpp"

#include "binary/state_io.hpp"

namespace vcfr::cache {

void NextLinePrefetcher::state(binary::StateIo& io) { io.u64(stats_.issued); }

}  // namespace vcfr::cache
