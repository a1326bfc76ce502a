#include "failure/failure_model.hpp"

#include "util/check.hpp"

namespace cellflow {

void carve_path(System& sys, const Path& path) {
  for (const CellId id : sys.grid().all_cells())
    if (!path.contains(id)) sys.fail(id);
}

void carve_mask(System& sys, const CellMask& keep) {
  CF_EXPECTS(keep.side() == sys.grid().side());
  for (const CellId id : sys.grid().all_cells())
    if (!keep.test(id)) sys.fail(id);
}

}  // namespace cellflow
