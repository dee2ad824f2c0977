// The human-readable CSV dump of a trained STMaker (SaveModel, behind
// `stmaker_cli unpack`): the mined popular-route transitions, the
// historical feature map in accumulator form, the landmark significances,
// the landmark visit corpus, a small metadata file naming the feature set,
// and — when present — the trajectory index and the routing hierarchy.
// Doubles are written with %.17g, so the dump is exact and two dumps diff
// cleanly. The dump is one-way: the model container (stmaker_container_io)
// is the only format that loads.

#include "common/csv.h"
#include "common/fileutil.h"
#include "common/strings.h"
#include "core/stmaker.h"

namespace stmaker {

namespace {

struct ModelPart {
  std::string suffix;
  std::string content;
};

}  // namespace

Status STMaker::SaveModel(const std::string& prefix) const {
  if (analyzer_ == nullptr) {
    return Status::FailedPrecondition("SaveModel requires a trained model");
  }

  std::vector<ModelPart> parts;

  {  // Metadata: the feature set this model was mined with.
    CsvBuilder csv;
    csv.Row({"key", "value"});
    csv.Row({"num_trained", std::to_string(num_trained_)});
    std::vector<std::string> feature_ids;
    for (const FeatureDef& def : registry_.defs()) {
      feature_ids.push_back(def.id);
    }
    csv.Row({"features", Join(feature_ids, ";")});
    parts.push_back({"_meta.csv", csv.TakeString()});
  }
  {  // Popular-route transitions.
    CsvBuilder csv;
    csv.Row({"from", "to", "count"});
    for (const PopularRouteMiner::Transition& t : miner_.Transitions()) {
      csv.Row({std::to_string(t.from), std::to_string(t.to),
               StrFormat("%.17g", t.count)});
    }
    parts.push_back({"_transitions.csv", csv.TakeString()});
  }
  {  // Historical feature map (accumulator form).
    CsvBuilder csv;
    std::vector<std::string> header = {"from", "to", "count"};
    for (const FeatureDef& def : registry_.defs()) {
      header.push_back("sum_" + def.id);
    }
    csv.Row(header);
    for (const HistoricalFeatureMap::EdgeRecord& e : feature_map_->Edges()) {
      std::vector<std::string> row = {std::to_string(e.from),
                                      std::to_string(e.to),
                                      StrFormat("%.17g", e.count)};
      for (double s : e.sums) row.push_back(StrFormat("%.17g", s));
      csv.Row(row);
    }
    parts.push_back({"_feature_map.csv", csv.TakeString()});
  }
  {  // Landmark significances.
    CsvBuilder csv;
    csv.Row({"landmark", "significance"});
    for (const Landmark& lm : landmarks_->landmarks()) {
      if (lm.significance == 0) continue;  // sparse
      csv.Row({std::to_string(lm.id), StrFormat("%.17g", lm.significance)});
    }
    parts.push_back({"_significance.csv", csv.TakeString()});
  }
  {  // Visit corpus (traveller -> landmark visit counts), in record order
     // (first-seen traveller order, first-visited pair order).
    CsvBuilder csv;
    csv.Row({"traveler", "landmark", "count"});
    for (const VisitCorpus::Record& record : visit_corpus_.records()) {
      for (const auto& [landmark, count] : record.visits) {
        csv.Row({std::to_string(record.key), std::to_string(landmark),
                 StrFormat("%.17g", count)});
      }
    }
    parts.push_back({"_visits.csv", csv.TakeString()});
  }
  if (trip_index_ != nullptr) {
    // Options + descriptors only; the posting lists are derived state.
    parts.push_back({"_index.csv", trip_index_->SaveToString()});
  }
  if (road_hierarchy_ != nullptr) {
    // The hierarchy serializes itself (with a trailing CRC record).
    parts.push_back({"_ch.csv", road_hierarchy_->SaveToString()});
  }

  for (const ModelPart& part : parts) {
    STMAKER_RETURN_IF_ERROR(
        WriteFileAtomic(prefix + part.suffix, part.content));
  }
  return Status::OK();
}

}  // namespace stmaker
