#include "sched/policy.hh"

#include "core/stfm.hh"
#include "sched/fcfs.hh"
#include "sched/fr_fcfs.hh"
#include "sched/fr_fcfs_cap.hh"
#include "sched/nfq.hh"

namespace stfm
{

const char *
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::FrFcfs: return "FR-FCFS";
      case PolicyKind::Fcfs: return "FCFS";
      case PolicyKind::FrFcfsCap: return "FRFCFS+Cap";
      case PolicyKind::Nfq: return "NFQ";
      case PolicyKind::Stfm: return "STFM";
    }
    return "?";
}

std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const SchedulerConfig &config, unsigned num_threads,
                     unsigned total_banks, unsigned channels)
{
    switch (config.kind) {
      case PolicyKind::FrFcfs:
        return std::make_unique<FrFcfsPolicy>();
      case PolicyKind::Fcfs:
        return std::make_unique<FcfsPolicy>();
      case PolicyKind::FrFcfsCap:
        return std::make_unique<FrFcfsCapPolicy>(config.cap, total_banks);
      case PolicyKind::Nfq:
        return std::make_unique<NfqPolicy>(num_threads, total_banks,
                                           config.shares,
                                           config.inversionThreshold);
      case PolicyKind::Stfm: {
        StfmParams params;
        params.alpha = config.alpha;
        params.intervalLength = config.intervalLength;
        params.gamma = config.gamma;
        params.quantize = config.quantizeSlowdowns;
        params.busInterference = config.busInterference;
        params.requestLevelEstimator = config.requestLevelEstimator;
        params.weights = config.weights;
        return std::make_unique<StfmPolicy>(params, num_threads,
                                            total_banks, channels);
      }
    }
    return nullptr;
}

} // namespace stfm
