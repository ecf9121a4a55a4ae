/**
 * @file
 * The dataflow-jobs workload: wordcount, terasort and pagerank on all
 * six backends, one unit per runDataflow call. Functional serde runs
 * here on real record batches, with LZ on the wire, the operators and
 * frame verification. Its ledger times BatchCodec and LzCodec on record
 * batches the benchmark generates.
 */

#ifndef HOSTBENCH_DATAFLOW_JOBS_HH
#define HOSTBENCH_DATAFLOW_JOBS_HH

#include <cstdint>
#include <memory>

#include "hostbench/ledger.hh"

namespace hostbench {

struct DataflowParams
{
    /** DataflowConfig::recordsPerNode. */
    std::uint64_t recordsPerNode = 1024;
    /** Record batches per backend in the ledger's codec timing. */
    unsigned ledgerBatches = 16;
    /** Records per ledger batch. */
    unsigned ledgerBatchRecords = 256;
};

std::unique_ptr<Workload> makeDataflowJobs(const DataflowParams &params = {});

} // namespace hostbench

#endif // HOSTBENCH_DATAFLOW_JOBS_HH
