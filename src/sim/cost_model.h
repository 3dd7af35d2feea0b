#ifndef CLOUDIQ_SIM_COST_MODEL_H_
#define CLOUDIQ_SIM_COST_MODEL_H_

#include <cstdint>

#include "sim/object_store.h"
#include "telemetry/attribution.h"

namespace cloudiq {

// Public cloud price points used by the simulator's cost accounting.
//
// Request and storage rates are the published AWS us-east-1 prices the paper
// cites ("costs are calculated based on the publicly available prices listed
// by Amazon"). The EC2 hourly rate for m5ad.24xlarge is calibrated from the
// paper's own Table 2 x Table 3 arithmetic (EBS load: 4,294.1 s at $5.04
// implies ~$4.22/h for compute + system-dbspace overhead); the smaller
// instances scale by vCPU count.
struct CloudPrices {
  // Object-store requests (S3-like): PUT/DELETE, GET/HEAD/ranged GET and
  // NDP SELECT (S3 Select-like) rates. The cost ledger prices with this
  // same table, so the meter and the ledger cannot disagree on a rate.
  LedgerPrices requests;
  double s3_storage_gb_month = 0.023;  // USD per GB-month

  // Block volumes.
  double ebs_gp2_gb_month = 0.10;  // USD per GB-month (provisioned)
  double efs_std_gb_month = 0.30;  // USD per GB-month (utilized)

  // Compute (USD per hour).
  double ec2_m5ad_4xlarge = 0.704;
  double ec2_m5ad_12xlarge = 2.112;
  double ec2_m5ad_24xlarge = 4.225;
  double ec2_r5_large = 0.126;
};

// The monetary cost of a simulated run, by category. The meter keeps no
// request counts of its own: it reads the tally of the object store it is
// bound to (SimObjectStore::stats(), the one record of every request) and
// prices it with the ledger's formula (LedgerPrices::RequestUsd). Its only
// state is the EC2 dollars the harness hands it from the simulated clock.
class CostMeter {
 public:
  explicit CostMeter(const SimObjectStore& store,
                     CloudPrices prices = CloudPrices())
      : store_(&store), prices_(prices) {}

  void AddEc2Hours(double hours, double hourly_rate) {
    ec2_usd_ += hours * hourly_rate;
  }

  // HEAD counts (and is billed) as a GET, DELETE is billed at the PUT
  // rate and ranged GET parts at the GET rate.
  uint64_t s3_puts() const { return store_->stats().puts; }
  uint64_t s3_gets() const { return store_->stats().gets; }
  uint64_t s3_deletes() const { return store_->stats().deletes; }
  uint64_t s3_ranged_gets() const { return store_->stats().ranged_gets; }
  uint64_t s3_selects() const { return store_->stats().selects; }
  uint64_t select_scanned_bytes() const {
    return store_->stats().select_scanned_bytes;
  }
  uint64_t select_returned_bytes() const {
    return store_->stats().select_returned_bytes;
  }
  uint64_t S3Requests() const {
    SimObjectStore::Stats s = store_->stats();
    return s.puts + s.gets + s.deletes + s.ranged_gets + s.selects;
  }

  double S3RequestUsd() const {
    SimObjectStore::Stats s = store_->stats();
    return prices_.requests.RequestUsd(
        s.puts + s.deletes, s.gets + s.ranged_gets, s.selects,
        s.select_scanned_bytes, s.select_returned_bytes);
  }
  double Ec2Usd() const { return ec2_usd_; }
  double TotalComputeUsd() const { return Ec2Usd() + S3RequestUsd(); }

  // Data-at-rest cost for `gb` stored for one month on each medium.
  double S3MonthlyUsd(double gb) const {
    return gb * prices_.s3_storage_gb_month;
  }
  double EbsMonthlyUsd(double gb) const {
    return gb * prices_.ebs_gp2_gb_month;
  }
  double EfsMonthlyUsd(double gb) const {
    return gb * prices_.efs_std_gb_month;
  }

  const CloudPrices& prices() const { return prices_; }

 private:
  const SimObjectStore* store_;
  CloudPrices prices_;
  double ec2_usd_ = 0;
};

}  // namespace cloudiq

#endif  // CLOUDIQ_SIM_COST_MODEL_H_
