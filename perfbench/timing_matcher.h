#ifndef CEM_PERFBENCH_TIMING_MATCHER_H_
#define CEM_PERFBENCH_TIMING_MATCHER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/matcher.h"

namespace cem::perfbench {

/// Call count and summed in-call time of one matcher entry point. Atomic,
/// so grid map tasks and serving threads can share one decorator.
struct CallStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};

  double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
};

/// Decorator over a core::ProbabilisticMatcher that forwards every virtual
/// unchanged and records how often each was called and for how long. The
/// times are per-call wall durations summed over all calling threads (on a
/// sequential driver they add up to the time spent inside the matcher).
class TimingMatcher : public core::ProbabilisticMatcher {
 public:
  explicit TimingMatcher(const core::ProbabilisticMatcher& inner)
      : inner_(inner) {}

  TimingMatcher(const TimingMatcher&) = delete;
  TimingMatcher& operator=(const TimingMatcher&) = delete;

  core::MatchSet Match(const std::vector<data::EntityId>& entities,
                       const core::MatchSet& positive,
                       const core::MatchSet& negative) const override {
    Clocked clock(match_);
    return inner_.Match(entities, positive, negative);
  }

  core::MatchSet MatchConditioned(const std::vector<data::EntityId>& entities,
                                  const core::MatchSet& positive,
                                  const core::MatchSet& negative)
      const override {
    Clocked clock(conditioned_);
    return inner_.MatchConditioned(entities, positive, negative);
  }

  const data::Dataset& dataset() const override { return inner_.dataset(); }

  std::vector<data::EntityPair> EntangledPairs(
      const std::vector<data::EntityId>& entities,
      const core::MatchSet& evidence,
      const core::MatchSet& base) const override {
    Clocked clock(entangled_);
    return inner_.EntangledPairs(entities, evidence, base);
  }

  double Score(const core::MatchSet& matches) const override {
    Clocked clock(score_);
    return inner_.Score(matches);
  }

  double ScoreDelta(
      const core::MatchSet& current,
      const std::vector<data::EntityPair>& additions) const override {
    Clocked clock(score_delta_);
    return inner_.ScoreDelta(current, additions);
  }

  const CallStats& match() const { return match_; }
  const CallStats& conditioned() const { return conditioned_; }
  const CallStats& score_delta() const { return score_delta_; }

  /// Zeroes every counter. Call only while no thread is inside a forwarded
  /// entry point.
  void Reset() {
    for (CallStats* s :
         {&match_, &conditioned_, &entangled_, &score_, &score_delta_}) {
      s->calls = 0;
      s->ns = 0;
    }
  }

  /// Match + MatchConditioned calls: the black-box runs a driver issued.
  uint64_t runs() const { return match_.calls + conditioned_.calls; }
  /// Summed time inside every forwarded entry point.
  double total_seconds() const {
    return match_.seconds() + conditioned_.seconds() + entangled_.seconds() +
           score_.seconds() + score_delta_.seconds();
  }

 private:
  /// Adds one call and its duration to `stats` when it goes out of scope.
  class Clocked {
   public:
    explicit Clocked(CallStats& stats)
        : stats_(stats), start_(std::chrono::steady_clock::now()) {}
    Clocked(const Clocked&) = delete;
    Clocked& operator=(const Clocked&) = delete;
    ~Clocked() {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      stats_.calls.fetch_add(1, std::memory_order_relaxed);
      stats_.ns.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()),
          std::memory_order_relaxed);
    }

   private:
    CallStats& stats_;
    std::chrono::steady_clock::time_point start_;
  };

  const core::ProbabilisticMatcher& inner_;
  mutable CallStats match_;
  mutable CallStats conditioned_;
  mutable CallStats entangled_;
  mutable CallStats score_;
  mutable CallStats score_delta_;
};

}  // namespace cem::perfbench

#endif  // CEM_PERFBENCH_TIMING_MATCHER_H_
