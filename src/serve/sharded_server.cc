#include "serve/sharded_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace delrec::serve {
namespace {

/// splitmix64 finalizer: decorrelates shard assignment from dense or
/// strided user-id spaces so no shard inherits a hot arithmetic slice.
uint64_t MixUserId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

util::Status ShardedServerOptions::Validate() const {
  if (num_shards < 1) {
    return util::Status::InvalidArgument(
        "ShardedServerOptions.num_shards must be >= 1, got " +
        std::to_string(num_shards));
  }
  return engine.Validate();
}

ShardedServer::ShardedServer(std::shared_ptr<const Scorer> initial,
                             const ShardedServerOptions& options)
    : options_(options), handle_(std::move(initial)) {
  const util::Status valid = options_.Validate();
  DELREC_CHECK(valid.ok()) << valid.ToString();
  shards_.reserve(options_.num_shards);
  for (int shard = 0; shard < options_.num_shards; ++shard) {
    shards_.push_back(
        std::make_unique<RecommendationEngine>(&handle_, options_.engine));
  }
}

ShardedServer::~ShardedServer() { Shutdown(); }

int ShardedServer::ShardFor(uint64_t user_id) const {
  return static_cast<int>(MixUserId(user_id) %
                          static_cast<uint64_t>(shards_.size()));
}

std::future<ScoreResponse> ShardedServer::ScoreAsync(uint64_t user_id,
                                                     ScoreRequest request) {
  return shards_[ShardFor(user_id)]->ScoreAsync(std::move(request));
}

ScoreResponse ShardedServer::Score(uint64_t user_id,
                                   std::vector<int64_t> history,
                                   std::vector<int64_t> candidates) {
  ScoreRequest request;
  request.history = std::move(history);
  request.candidates = std::move(candidates);
  return ScoreAsync(user_id, std::move(request)).get();
}

uint64_t ShardedServer::PublishSnapshot(std::shared_ptr<const Scorer> next) {
  return handle_.Publish(std::move(next));
}

RecommendationEngine::Stats ShardedServer::ShardStats(int shard) const {
  DELREC_CHECK_GE(shard, 0);
  DELREC_CHECK_LT(shard, static_cast<int>(shards_.size()));
  return shards_[shard]->GetStats();
}

RecommendationEngine::Stats ShardedServer::TotalStats() const {
  std::vector<RecommendationEngine::Stats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->GetStats());
  return MergeStats(stats);
}

void ShardedServer::Shutdown() {
  for (const auto& shard : shards_) shard->Shutdown();
}

RecommendationEngine::Stats MergeStats(
    const std::vector<RecommendationEngine::Stats>& shards) {
  RecommendationEngine::Stats total;
  for (const RecommendationEngine::Stats& shard : shards) {
    total.submitted += shard.submitted;
    total.requests += shard.requests;
    total.scored += shard.scored;
    total.batches += shard.batches;
    total.max_batch = std::max(total.max_batch, shard.max_batch);
    total.shed_queue_full += shard.shed_queue_full;
    total.shed_deadline += shard.shed_deadline;
    total.shed_shutdown += shard.shed_shutdown;
    total.scorer_failures += shard.scorer_failures;
    total.swaps_observed += shard.swaps_observed;
    total.prefix_tokens_skipped += shard.prefix_tokens_skipped;
    // Merge the per-version attribution by key, never by position: shards
    // observe hot swaps at different times, so the same window can hold
    // shards on different versions, and a positional merge would fold
    // version A's tokens into version B's. Key-wise summing keeps the
    // invariant that the map's values sum to prefix_tokens_skipped.
    for (const auto& [version, skipped] : shard.prefix_tokens_by_version) {
      total.prefix_tokens_by_version[version] += skipped;
    }
    total.snapshot_version =
        std::max(total.snapshot_version, shard.snapshot_version);
    for (int bucket = 0; bucket < RecommendationEngine::kQueueWaitBuckets;
         ++bucket) {
      total.queue_wait_histogram[bucket] += shard.queue_wait_histogram[bucket];
    }
  }
  RecommendationEngine::Summarize(total);
  return total;
}

}  // namespace delrec::serve
