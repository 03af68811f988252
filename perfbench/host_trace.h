#pragma once

// Benchmark-side host spans. Every call the benchmark makes into a layer of
// the program runs inside a HostTracer::Scope. A scope always measures its
// own steady_clock duration (the end-to-end timers use that); when the
// tracer is on it also records a span — name, start, end, parent, thread —
// in memory. All spans of one run share the tracer's run id and are written
// once, at exit, as Chrome trace JSON (chrome://tracing, Perfetto).
//
// Host time lives outside the program's byte-identity contract: nothing here
// feeds back into the workloads, so tracing cannot change a report byte.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/json.h"

namespace topo::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct HostSpan {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint32_t thread = 0;
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
};

class HostTracer {
 public:
  HostTracer(bool on, std::string run_id)
      : on_(on), run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  HostTracer(const HostTracer&) = delete;
  HostTracer& operator=(const HostTracer&) = delete;

  bool on() const { return on_.load(); }
  /// Turns span recording on or off for scopes opened from now on.
  void set_on(bool on) { on_ = on; }

  /// Small thread label for the trace (0 = the thread that runs the pass).
  static void set_thread_label(uint32_t label) { thread_label() = label; }

  /// Times one layer call; records a span on destruction (or stop()) when
  /// the tracer was on at construction. Scopes nest per thread: a scope's
  /// parent is the innermost scope still open on the same thread.
  class Scope {
   public:
    Scope(HostTracer& tracer, const char* name)
        : tracer_(tracer), name_(name), record_(tracer.on()), start_(Clock::now()) {
      if (record_) {
        id_ = tracer_.next_id();
        auto& stack = open_stack();
        parent_ = stack.empty() ? 0 : stack.back();
        stack.push_back(id_);
      }
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the scope (idempotent) and returns its duration in seconds.
    double stop() {
      if (!stopped_) {
        const Clock::time_point end = Clock::now();
        seconds_ = seconds_between(start_, end);
        stopped_ = true;
        if (record_) {
          open_stack().pop_back();
          tracer_.record(HostSpan{name_, id_, parent_, thread_label(),
                                  tracer_.micros(start_), tracer_.micros(end)});
        }
      }
      return seconds_;
    }

   private:
    HostTracer& tracer_;
    const char* name_;
    bool record_;
    Clock::time_point start_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    bool stopped_ = false;
    double seconds_ = 0.0;
  };

  /// Number of spans recorded so far.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Self time per span name, over spans recorded at index >= `from`: each
  /// span's duration minus the part its direct children cover, summed by
  /// name. Children of one parent never overlap (they run on the parent's
  /// thread, one after another), so self times partition a root's duration.
  std::map<std::string, double> self_seconds(size_t from = 0) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, double> child_us;
    for (size_t i = from; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (size_t i = from; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      const auto it = child_us.find(s.id);
      const double self = s.end_us - s.start_us - (it == child_us.end() ? 0.0 : it->second);
      out[s.name] += self * 1e-6;
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events; microsecond clock).
  std::string chrome_json() const {
    std::lock_guard<std::mutex> lock(mu_);
    rpc::JsonArray events;
    events.reserve(spans_.size());
    for (const HostSpan& s : spans_) {
      events.push_back(rpc::Json(rpc::JsonObject{
          {"name", rpc::Json(s.name)},
          {"ph", rpc::Json("X")},
          {"pid", rpc::Json(1)},
          {"tid", rpc::Json(static_cast<uint64_t>(s.thread))},
          {"ts", rpc::Json(s.start_us)},
          {"dur", rpc::Json(s.end_us - s.start_us)},
          {"args", rpc::Json(rpc::JsonObject{{"id", rpc::Json(s.id)},
                                             {"parent", rpc::Json(s.parent)},
                                             {"run", rpc::Json(run_id_)}})},
      }));
    }
    return rpc::Json(rpc::JsonObject{
                         {"traceEvents", rpc::Json(std::move(events))},
                         {"displayTimeUnit", rpc::Json("ms")},
                         {"otherData", rpc::Json(rpc::JsonObject{{"run", rpc::Json(run_id_)}})},
                     })
        .dump();
  }

 private:
  static std::vector<uint64_t>& open_stack() {
    thread_local std::vector<uint64_t> stack;
    return stack;
  }
  static uint32_t& thread_label() {
    thread_local uint32_t label = 0;
    return label;
  }

  uint64_t next_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  void record(HostSpan span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  std::atomic<bool> on_;
  const std::string run_id_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;  // guarded by mu_
  std::vector<HostSpan> spans_;  // guarded by mu_
};

}  // namespace topo::perfbench
