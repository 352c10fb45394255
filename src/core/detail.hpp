// Internal entry points shared between SRNA2, the traceback, and PRNA's
// sequential fallbacks. Not part of the public API surface.
#pragma once

#include "core/memo_table.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "core/workspace.hpp"
#include "rna/secondary_structure.hpp"

namespace srna::detail {

// Runs SRNA2 and leaves the fully populated memo table in `memo` (which must
// be sized n × m). The traceback re-derives matched arcs from it without
// re-running stage one per nesting level. Returns F(0, n-1, 0, m-1).
// Slice scratch comes from `scratch` (slice_scratch(0)); the overload
// without a Workspace uses the calling thread's pooled workspace.
Score run_srna2(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const McosOptions& options, McosStats& stats, MemoTable& memo,
                Workspace& scratch);
Score run_srna2(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const McosOptions& options, McosStats& stats, MemoTable& memo);

}  // namespace srna::detail
