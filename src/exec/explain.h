#ifndef ECA_EXEC_EXPLAIN_H_
#define ECA_EXEC_EXPLAIN_H_

#include <string>

#include "algebra/plan.h"
#include "exec/executor.h"

namespace eca {

// EXPLAIN ANALYZE rendering: `plan` as Plan::ToString() prints it, each
// node annotated with the actual rows and own time that the executor
// recorded in `stats.profile` while running that plan (Executor::Execute
// or ExecuteWithContext, Optimizer::Execute or ExecuteGoverned). The
// numbers are the real run's — its thread count, join preference, fused
// chains and spills. Nodes fused into a chain print "fused" in place of
// rows; nodes a stopped run never reached print "(not run)".
std::string ExplainAnalyze(const Plan& plan, const ExecStats& stats);

}  // namespace eca

#endif  // ECA_EXEC_EXPLAIN_H_
