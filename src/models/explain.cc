#include "models/explain.h"

#include <map>
#include <utility>

namespace gpuperf::models {

PredictionBreakdown ExplainPlan(const PredictionPlan& plan,
                               std::int64_t batch) {
  struct Collect : PlanVisitor {
    const PredictionPlan* plan;
    PredictionBreakdown* out;
    std::map<int, ClusterContribution> clusters;  // sorted => deterministic
    void Term(const PlanTerm& term) {
      TermContribution tc;
      tc.layer = term.layer;
      tc.layer_label = plan->layer_label(term.layer);
      tc.cluster_id = term.cluster_id;
      tc.raw_us = term.us;
      // Applying the scales per term re-associates one multiply; the
      // exact addend lives in the layer contribution.
      tc.scaled_us = term.us * plan->layer_scale_a(term.layer) *
                     plan->layer_scale_b(term.layer);
      ClusterContribution& cc = clusters[tc.cluster_id];
      cc.cluster_id = tc.cluster_id;
      cc.terms += 1;
      cc.us += tc.scaled_us;
      out->terms.push_back(std::move(tc));
    }
    void Layer(std::size_t layer, double addend) {
      LayerContribution lc;
      lc.index = layer;
      lc.label = plan->layer_label(layer);
      lc.us = addend;
      out->layers.push_back(std::move(lc));
    }
  };
  PredictionBreakdown out;
  out.layers.reserve(plan.layer_count());
  out.terms.reserve(plan.term_count());
  Collect collect{{}, &plan, &out, {}};
  const double total = plan.Walk(batch, collect);
  out.total_us = total;
  for (LayerContribution& lc : out.layers) {
    lc.share = total != 0.0 ? lc.us / total : 0.0;
  }
  out.clusters.reserve(collect.clusters.size());
  for (auto& [id, cc] : collect.clusters) {
    (void)id;
    cc.share = total != 0.0 ? cc.us / total : 0.0;
    out.clusters.push_back(std::move(cc));
  }
  return out;
}

std::vector<ResidualAttribution> AttributeResiduals(
    const PredictionBreakdown& breakdown, double observed_us) {
  std::vector<ResidualAttribution> out;
  if (breakdown.total_us == 0.0) return out;
  const double residual = observed_us - breakdown.total_us;
  out.reserve(breakdown.clusters.size());
  for (const ClusterContribution& cc : breakdown.clusters) {
    ResidualAttribution ra;
    ra.cluster_id = cc.cluster_id;
    ra.share = cc.share;
    ra.residual_us = residual * cc.share;
    out.push_back(ra);
  }
  return out;
}

}  // namespace gpuperf::models
