#ifndef FTA_PERFBENCH_WORKLOADS_H_
#define FTA_PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// Runner and pool threads of every workload: nproc - 1 on the 4-core
/// reference host, fixed so the workloads are the same on any host.
inline constexpr size_t kThreads = 3;

/// `serve-steady` (rush = false) or `serve-rush` (rush = true): a city
/// trace replayed open loop through AssignmentServer.
WorkloadResult RunServe(bool rush, const RunSpec& spec);

/// `syn-batch`: the paper's SYN instance solved per center with Generate,
/// SolveFgt and SolveIegt, repeated.
WorkloadResult RunSynBatch(const RunSpec& spec);

}  // namespace perfbench

#endif  // FTA_PERFBENCH_WORKLOADS_H_
