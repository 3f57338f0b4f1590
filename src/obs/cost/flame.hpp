// Collapsed-stack (flamegraph) export of TraceRecorder spans, attributed
// by query context.
//
// The tracer already records where wall time went as Chrome 'X' spans; a
// flamegraph is the aggregate view of the same data: one line per distinct
// span stack, weighted by EXCLUSIVE microseconds (a parent's self time,
// its children's time subtracted). The folder rebuilds each thread's span
// nesting from (ts, dur) intervals — children sort after their parents at
// equal start because longer spans open first — and merges identical
// stacks across threads.
//
// Attribution: a span whose argument key is "cost_ctx" (the serve broker
// emits one around every batch) scopes its whole subtree to that
// CostLedger context; the folder splices "tenant=<t>;query=<id>" frames in
// at that point, so the flamegraph answers "who's eating my cluster" the
// same way /costs does. Context 0 and spans outside any cost.ctx span fold
// unprefixed.
//
// Output is the de-facto collapsed format consumed by flamegraph.pl,
// speedscope and inferno: `frame;frame;frame <count>\n`, lines sorted, so
// two folds of the same trace are byte-identical.
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace overcount {

class CostLedger;

/// Folds `recorder`'s complete spans into collapsed-stack text. `ledger`
/// (optional) resolves context ids to tenant/query names; without it the
/// attribution frame is "ctx=<id>". Call only when tracing has quiesced
/// (same contract as TraceRecorder::events()).
std::string fold_collapsed_stacks(const TraceRecorder& recorder,
                                  const CostLedger* ledger = nullptr);

/// fold_collapsed_stacks into `path`; returns false (with a stderr note)
/// when the file cannot be opened.
bool write_collapsed_file(const std::string& path,
                          const TraceRecorder& recorder,
                          const CostLedger* ledger = nullptr);

}  // namespace overcount
